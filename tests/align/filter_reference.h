// The filtered search's stage contract — screen → cascade → select — as a
// scalar reference built on banded_gotoh_score at the band b, then 2b and
// 4b for the records still on the band's edge that the wider band is
// narrow against. Shared by the pipeline, sharded and master tests: a
// filtered answer must carry these screened scores, select these
// candidates, rescan exactly the uncertified ones and count these banded
// cells, whatever engine, backend or thread count ran it.
// Selection is re-derived here (a full sort, not the bounded heap of
// filter_select_candidates), so the reference does not share its code.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "align/banded.h"
#include "align/search.h"

namespace swdual::align {

/// One query's filtered stages, record by record in database order.
struct FilterReference {
  std::vector<int> scores;             ///< screened score after the cascade
  std::vector<std::uint8_t> exact;     ///< certificate after the cascade
  std::vector<std::uint8_t> edge_hit;  ///< edge flag after the cascade
  std::uint64_t screen_cells = 0;      ///< banded cells at the band
  std::uint64_t cascade_cells = 0;     ///< banded cells at 2b and 4b
  /// Records re-screened at 2b and at 4b.
  std::size_t cascaded[2] = {0, 0};
  std::vector<std::uint32_t> candidates;  ///< selected, ascending
  std::vector<std::uint32_t> rescans;  ///< uncertified candidates, longest
                                       ///< first, ties by index
  FilterStats stats;                   ///< what the pipeline reports

  std::uint64_t cells() const { return screen_cells + cascade_cells; }
};

/// The reference for `query` against `db` at `config`'s band and keep
/// factor with k hits. Records flagged in `failed` (empty: none) belong to
/// a partition that failed: they read score 0 with the certificate, cost
/// no cells, are never re-screened and never become candidates, though
/// they still take part in the keep-best ranking, as the pipeline's
/// selection counts them before it drops them.
inline FilterReference filter_reference(std::span<const std::uint8_t> query,
                                        const DbView& db,
                                        const ScoringScheme& scheme,
                                        const FilterConfig& config,
                                        std::size_t k,
                                        const std::vector<bool>& failed = {}) {
  const std::size_t n = db.size();
  const auto is_failed = [&failed](std::size_t i) {
    return !failed.empty() && failed[i];
  };
  FilterReference ref;
  ref.scores.assign(n, 0);
  ref.exact.assign(n, 1);
  ref.edge_hit.assign(n, 0);
  const auto screen = [&](std::size_t i, std::size_t band) {
    const BandedResult r = banded_gotoh_score(query, db[i], scheme, band);
    ref.scores[i] = r.score;
    ref.exact[i] = r.exact ? 1 : 0;
    ref.edge_hit[i] = r.edge_hit ? 1 : 0;
    return r.cells;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!is_failed(i)) ref.screen_cells += screen(i, config.band);
  }
  for (std::size_t step = 0; step < 2; ++step) {
    const std::size_t band = config.band << (step + 1);
    for (std::size_t i = 0; i < n; ++i) {
      if (!ref.edge_hit[i] || ref.exact[i]) continue;
      // The band must be narrow against the record: over two band widths
      // long, and at least half the query's length.
      const std::size_t length = db[i].size();
      if (length <= 2 * (2 * band + 1) || 2 * length < query.size()) continue;
      ref.cascade_cells += screen(i, band);
      ++ref.cascaded[step];
    }
  }

  const std::size_t keep = std::max<std::size_t>(
      k, static_cast<std::size_t>(
             std::ceil(config.keep_factor * static_cast<double>(k))));
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&ref](std::uint32_t a, std::uint32_t b) {
                     return ref.scores[a] > ref.scores[b];
                   });
  std::vector<std::uint8_t> selected(n, 0);
  for (std::size_t r = 0; r < std::min(keep, n); ++r) selected[order[r]] = 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (!ref.edge_hit[i]) continue;
    selected[i] = 1;
    ++ref.stats.band_uncertain;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (selected[i] && !is_failed(i)) ref.candidates.push_back(i);
  }
  for (const std::uint32_t c : ref.candidates) {
    if (!ref.exact[c]) ref.rescans.push_back(c);
  }
  std::stable_sort(ref.rescans.begin(), ref.rescans.end(),
                   [&db](std::uint32_t a, std::uint32_t b) {
                     return db[a].size() > db[b].size();
                   });
  ref.stats.candidates = ref.candidates.size();
  ref.stats.rescans = ref.rescans.size();
  return ref;
}

}  // namespace swdual::align
