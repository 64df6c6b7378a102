// Locate the optimal local alignment with score-only passes.
//
// sw_align_affine (traceback.h) keeps the whole O(m·n) DP matrix — fine for
// reporting a handful of hits, prohibitive for aligning a 35,213-residue
// query against a long database record. This module does what SSW and
// SSEARCH do instead:
//
//   1. forward score-only pass (O(n) memory) → best score + END cell,
//   2. reverse score-only pass from the end cell → START cell.
//
// The located region is then aligned globally in linear space
// (sw_align_affine_linear, linear_space.h), so a full local alignment
// needs O(m + n) memory, never the region's area.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "align/scoring.h"

namespace swdual::align {

/// Coordinates of the optimal local alignment (1-based, inclusive).
struct LocalRegion {
  int score = 0;
  std::size_t query_begin = 0, query_end = 0;
  std::size_t db_begin = 0, db_end = 0;
};

/// Locate the optimal local alignment's region with two O(n)-memory passes.
LocalRegion locate_best_alignment(std::span<const std::uint8_t> query,
                                  std::span<const std::uint8_t> db,
                                  const ScoringScheme& scheme);

}  // namespace swdual::align
