// SSE2 backend: the width-generic kernels instantiated on the 128-bit
// vector types (16×u8 / 8×i16). Compiled whenever the base target has SSE2
// (always true on x86-64); absent on other architectures, where the scalar
// backend covers the same geometry.
#include "align/kernel_dispatch.h"

#if defined(__SSE2__)

#include "align/kernel_banded_impl.h"
#include "align/kernel_interseq_impl.h"
#include "align/kernel_striped8_impl.h"
#include "align/simd16.h"
#include "align/simd8.h"

namespace swdual::align::detail {

namespace {

const KernelTable kTable = {
    &striped8_score_impl<V8>,
    &interseq_scores_impl<V16>,
    &banded_screen_impl<V8, V16>,
};

}  // namespace

const KernelTable* sse2_kernel_table() { return &kTable; }

}  // namespace swdual::align::detail

#else

namespace swdual::align::detail {

const KernelTable* sse2_kernel_table() { return nullptr; }

}  // namespace swdual::align::detail

#endif
