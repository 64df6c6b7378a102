// AVX2 backend: the width-generic kernels instantiated on the 256-bit
// vector types (32×u8 / 16×i16 lanes).
//
// This translation unit — and only this one — is compiled with -mavx2 (see
// src/align/CMakeLists.txt), so the instantiations below may use AVX2
// instructions freely; nothing here runs unless the runtime dispatcher has
// confirmed the CPU supports AVX2 (align/backend.cpp). If the compiler
// cannot target AVX2 the provider degrades to nullptr and the backend is
// reported as not compiled.
#include "align/kernel_dispatch.h"
#include "align/simd_avx2.h"

#if defined(SWDUAL_SIMD_AVX2)

#include "align/kernel_banded_impl.h"
#include "align/kernel_interseq_impl.h"
#include "align/kernel_striped8_impl.h"

namespace swdual::align::detail {

namespace {

const KernelTable kTable = {
    &striped8_score_impl<V8x32>,
    &interseq_scores_impl<V16x16>,
    &banded_screen_impl<V8x32, V16x16>,
};

}  // namespace

const KernelTable* avx2_kernel_table() { return &kTable; }

}  // namespace swdual::align::detail

#else

namespace swdual::align::detail {

const KernelTable* avx2_kernel_table() { return nullptr; }

}  // namespace swdual::align::detail

#endif
