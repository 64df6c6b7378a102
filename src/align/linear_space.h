// Myers–Miller linear-space alignment (Hirschberg divide and conquer).
//
// nw_align_affine / sw_align_affine keep Θ(m·n) DP matrices; the classic
// remedy (Myers & Miller 1988, the algorithm behind the cluster codes the
// paper cites as space-optimal [3]) recovers an *optimal* alignment in
// Θ(min(m,n)) memory: split the query at its midpoint, run a forward
// score-only pass over the top half and a reverse pass over the bottom
// half, find the database column (and gap state) where an optimal path
// crosses, and recurse on the two subproblems. Affine gaps are handled by
// tracking, at every boundary, whether a vertical gap is already open
// (Myers & Miller's tb/te parameters), so a gap spanning the split pays its
// open penalty exactly once.
#pragma once

#include <cstdint>
#include <span>

#include "align/alignment.h"
#include "align/scoring.h"

namespace swdual::align {

/// Global affine-gap alignment in linear space. Score-identical to
/// nw_align_affine; memory Θ(n) instead of Θ(m·n).
Alignment nw_align_affine_linear(std::span<const std::uint8_t> query,
                                 std::span<const std::uint8_t> db,
                                 const ScoringScheme& scheme);

/// Local affine-gap alignment in linear space: locate the optimal region
/// with two O(n)-memory passes (align/locate.h), then align the region
/// globally with the linear-space routine. Score-identical to
/// sw_align_affine with memory Θ(n + region width). The annotate stage's
/// traceback for a hit its band (banded_gotoh_align) does not certify.
Alignment sw_align_affine_linear(std::span<const std::uint8_t> query,
                                 std::span<const std::uint8_t> db,
                                 const ScoringScheme& scheme);

}  // namespace swdual::align
