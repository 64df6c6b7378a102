// Inter-sequence vectorized banded Smith–Waterman (the filter screen).
//
// Stage-1 kernel of the two-stage filtered search, which screen_range
// (search.h) calls through KernelTable::banded: one batch of database
// sequences is banded-aligned against the query simultaneously, one per
// SIMD lane, in the same lane-per-sequence layout as the interseq kernel —
// longest-first batching, per-column dprofile, pre-sorted order detection.
// The DP is restricted per lane to a diagonal band of half-width `band`
// around j = ⌊i·n_l/m⌋, so the screen costs O(m·band) per record instead of
// O(m·n). A lane group ends early before a record shorter than half its
// first one (banded_group_end). A group whose records share one length
// walks the band geometry once for all its lanes; other groups pace each
// lane through its own columns (kernel_banded_impl.h).
//
// Scores are bit-identical to the scalar banded_gotoh_score (banded.h) for
// every lane that does not overflow: the 8-bit saturating tier runs first
// and saturated lanes are regrouped through a 16-bit pass; lanes that
// saturate even there come back with overflow set and the caller rescans
// them with the 32-bit scalar banded kernel. Cells are counted as the
// scalar kernel counts them: each banded cell once, however many tiers
// screened it (the exact kernels likewise count |q|·|d|).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "align/kernel_interseq.h"
#include "align/scoring.h"

namespace swdual::align {

struct BandedBatchResult {
  std::vector<int> scores;     ///< banded score per input sequence
  std::vector<bool> overflow;  ///< saturated even at 16 bits (rescan!)
  std::vector<bool> edge_hit;  ///< best banded cell sat on the band boundary
  std::uint64_t cells = 0;     ///< banded DP cells, each counted once
};

/// End of the lane group the banded screen forms at position `begin` of a
/// longest-first order of `end` records, where `length(i)` is the length of
/// the record at position i: at most `lanes` records, none shorter than
/// half the group's first one. A shorter record would idle its lane for
/// more than half the group's steps while the others pay for its pacing,
/// and ending the group there also leaves the records of the first length
/// one uniform group. screen_cost (parallel_search.cpp) forms its groups
/// with this same rule.
template <class Length>
std::size_t banded_group_end(std::size_t begin, std::size_t end,
                             std::size_t lanes, Length length) {
  const std::size_t first = length(begin);
  const std::size_t limit = std::min(end, begin + lanes);
  std::size_t next = begin + 1;
  while (next < limit && 2 * length(next) >= first) ++next;
  return next;
}

}  // namespace swdual::align
