// Full-traceback pairwise alignment.
//
// These routines keep the whole DP matrix (O(m·n) memory) and recover the
// alignment path, unlike the score-only kernels in scalar.h. They are the
// tests' oracle for the banded and linear-space tracebacks that annotation
// uses (banded.h, linear_space.h), and the quickstart example's Fig. 1
// traceback.
#pragma once

#include <cstdint>
#include <span>

#include "align/alignment.h"
#include "align/scoring.h"

namespace swdual::align {

/// Global (Needleman–Wunsch) alignment with the linear gap model used in the
/// paper's Fig. 1 example: match ma, mismatch mi, gap g (signed scores,
/// ma > 0 >= mi, g <= 0 conventionally).
Alignment nw_align_linear(std::span<const std::uint8_t> query,
                          std::span<const std::uint8_t> db,
                          const ScoreMatrix& matrix, int gap_penalty);

/// Global (Needleman–Wunsch–Gotoh) alignment with the affine-gap model:
/// both sequences are aligned end to end; leading/trailing gaps pay the
/// same affine penalties as internal ones.
Alignment nw_align_affine(std::span<const std::uint8_t> query,
                          std::span<const std::uint8_t> db,
                          const ScoringScheme& scheme);

/// Local (Smith–Waterman) alignment with the Gotoh affine-gap model; the
/// traceback starts at the best-scoring cell and stops at the first zero.
Alignment sw_align_affine(std::span<const std::uint8_t> query,
                          std::span<const std::uint8_t> db,
                          const ScoringScheme& scheme);

}  // namespace swdual::align
