// Banded Smith–Waterman (heuristic accelerator).
//
// Restricts the DP to a diagonal band of half-width `band` around the line
// j = ⌊i·n/m⌋. Exact when the optimal local alignment stays inside the band
// (the common case for homologous sequences of similar length); otherwise a
// lower bound on the true score. Cost drops from O(m·n) to O(m·band).
//
// Two certificates ride along with the score (the two-stage filter pipeline
// in search.h is built on them — see DESIGN.md "Two-stage filtered search"):
//
//   * `exact` is the *sound* certificate: true only when the band covers the
//     whole DP matrix (banded_covers_all), so the banded score provably
//     equals the full Gotoh score and the record needs no exact rescan. A
//     boundary-clean best path alone is NOT sufficient — a disjoint local
//     alignment can live entirely outside the band without ever touching it.
//   * `edge_hit` is the *uncertainty* flag: the best banded score was
//     attained on a band-boundary cell, so the true optimum plausibly
//     continues outside the band and the heuristic filter must keep the
//     record as a rescan candidate regardless of its screened rank.
//
// banded_gotoh_align adds a traceback on the same geometry: the annotate
// stage keeps a hit's banded path when the band's best equals the hit's
// exact score, which certifies it as an optimal local alignment.
#pragma once

#include <cstdint>
#include <span>

#include "align/alignment.h"
#include "align/scoring.h"

namespace swdual::align {

/// Result of a banded score-only local alignment.
struct BandedResult {
  int score = 0;              ///< banded similarity (lower bound on exact)
  std::size_t end_query = 0;  ///< 1-based query index of the best cell
  std::size_t end_db = 0;     ///< 1-based database index of the best cell
  std::uint64_t cells = 0;    ///< DP cells computed (for GCUPS accounting)
  bool exact = false;         ///< band covered the full matrix: score is exact
  bool edge_hit = false;      ///< best cell sat on the band boundary
};

/// True when a band of half-width `band` around j = ⌊i·n/m⌋ covers every
/// cell of the m×n DP matrix — the sound exactness certificate. Column 1 is
/// worst-covered at row m (center n, need band ≥ n−1); column n at row 1
/// (center ⌊n/m⌋, need band ≥ n−⌊n/m⌋). Empty inputs are trivially covered.
bool banded_covers_all(std::size_t m, std::size_t n, std::size_t band);

/// Affine-gap banded local alignment score. `band` is the half-width in
/// database positions (must be ≥ 1); cells outside the band are treated as
/// unreachable. Direct calls belong in src/align/ only — every consumer
/// above the align layer goes through the filter pipeline (search.h) so the
/// serve cache key stays honest about what was computed.
BandedResult banded_gotoh_score(std::span<const std::uint8_t> query,
                                std::span<const std::uint8_t> db,
                                const ScoringScheme& scheme, std::size_t band);

/// Affine-gap banded local alignment with traceback, on banded_gotoh_score's
/// geometry and recurrence: its score and end cell are banded_gotoh_score's,
/// and its path attains that score. A banded path is a real local
/// alignment, so the score never exceeds the exact optimum, and when it
/// equals the optimum the path is an optimal alignment. Ties break as in
/// sw_align_affine (the path stops at H = 0, then prefers E, F, the
/// diagonal; a gap opens rather than extends), so a covering band returns
/// sw_align_affine's alignment. Memory: one direction byte per in-band
/// cell slot, m·min(2·band + 1, n), plus O(n). A score-0 result is the
/// empty alignment with all coordinates 0. Same caller rule as
/// banded_gotoh_score.
Alignment banded_gotoh_align(std::span<const std::uint8_t> query,
                             std::span<const std::uint8_t> db,
                             const ScoringScheme& scheme, std::size_t band);

}  // namespace swdual::align
