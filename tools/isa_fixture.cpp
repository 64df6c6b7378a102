// Planted-instruction fixtures for the ISA boundary check (check_isa.py).
// Each build of this file defines one ISA_FIXTURE_* case and plants one
// instruction that the boundary forbids in the object or executable it
// becomes, so the check must name it; tools/CMakeLists.txt registers one
// tamper test per case. The instruction sits in file-scope asm, so no case
// needs an ISA compiler flag, and nothing ever runs it.

#if defined(ISA_FIXTURE_VEX) || defined(ISA_FIXTURE_SHARED_HELPER)
// A baseline object holding VEX-encoded AVX, as -march=native on the whole
// build leaves behind. The shared-helper case links it into an executable
// as a global function whose name holds no wide vector type: a helper the
// linker kept from a wide backend.
#define ISA_FIXTURE_PLANTED "vpxor %xmm0, %xmm0, %xmm0"
#elif defined(ISA_FIXTURE_EVEX)
// A baseline object holding EVEX-encoded AVX-512 (xmm16-31 exist only
// under EVEX).
#define ISA_FIXTURE_PLANTED "vpaddd %xmm17, %xmm18, %xmm19"
#elif defined(ISA_FIXTURE_AVX2_ZMM)
// Compiled as kernel_backend_avx2.cpp: a 512-bit instruction.
#define ISA_FIXTURE_PLANTED "vpaddd %zmm1, %zmm2, %zmm3"
#elif defined(ISA_FIXTURE_AVX2_OPMASK)
// Compiled as kernel_backend_avx2.cpp: an opmask move. It is VEX-encoded,
// so only its register gives it away.
#define ISA_FIXTURE_PLANTED "kmovw %k1, %eax"
#else
#error "define one ISA_FIXTURE_* case"
#endif

asm(".pushsection .text\n"
    ".globl isa_fixture_planted\n"
    ".type isa_fixture_planted, @function\n"
    "isa_fixture_planted:\n"
    "\t" ISA_FIXTURE_PLANTED "\n"
    "\tret\n"
    ".size isa_fixture_planted, .-isa_fixture_planted\n"
    ".popsection\n");

#if defined(ISA_FIXTURE_SHARED_HELPER)
int main() { return 0; }
#endif
