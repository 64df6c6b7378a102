// AVX-512BW backend: the width-generic kernels instantiated on the 512-bit
// vector types (64×u8 / 32×i16 lanes).
//
// This translation unit — and only this one — is compiled with
// -mavx512f -mavx512bw (see src/align/CMakeLists.txt), so the
// instantiations below may use AVX-512 instructions freely; nothing here
// runs unless the runtime dispatcher has confirmed the CPU supports
// AVX-512BW (align/backend.cpp). If the compiler cannot target AVX-512BW
// the provider degrades to nullptr and the backend is reported as not
// compiled.
#include "align/kernel_dispatch.h"
#include "align/simd_avx512.h"

#if defined(SWDUAL_SIMD_AVX512)

#include "align/kernel_banded_impl.h"
#include "align/kernel_interseq_impl.h"
#include "align/kernel_striped8_impl.h"

namespace swdual::align::detail {

namespace {

const KernelTable kTable = {
    &striped8_score_impl<V8x64>,
    &interseq_scores_impl<V16x32>,
    &banded_screen_impl<V8x64, V16x32>,
};

}  // namespace

const KernelTable* avx512_kernel_table() { return &kTable; }

}  // namespace swdual::align::detail

#else

namespace swdual::align::detail {

const KernelTable* avx512_kernel_table() { return nullptr; }

}  // namespace swdual::align::detail

#endif
