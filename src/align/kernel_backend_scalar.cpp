// Scalar backend: the width-generic kernels instantiated on the emulated
// vector types at the narrowest geometry (16×u8 / 8×i16 — the same striped
// layout as SSE2, so profiles are interchangeable between the two). Always
// compiled; serves as the portable fallback and as the reference
// implementation the wide backends are validated against.
#include "align/kernel_banded_impl.h"
#include "align/kernel_dispatch.h"
#include "align/kernel_interseq_impl.h"
#include "align/kernel_striped8_impl.h"
#include "align/simd_scalar.h"

namespace swdual::align::detail {

namespace {

const KernelTable kTable = {
    &striped8_score_impl<VecU8Scalar<16>>,
    &interseq_scores_impl<VecI16Scalar<8>>,
    &banded_screen_impl<VecU8Scalar<16>, VecI16Scalar<8>>,
};

}  // namespace

const KernelTable* scalar_kernel_table() { return &kTable; }

}  // namespace swdual::align::detail
