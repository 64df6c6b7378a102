#include "align/search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "align/banded.h"
#include "align/kernel_banded.h"
#include "align/kernel_interseq.h"
#include "align/kernel_striped8.h"
#include "align/scalar.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

bool hit_better(const SearchHit& a, const SearchHit& b) {
  return a.score != b.score ? a.score > b.score : a.db_index < b.db_index;
}

std::vector<SearchHit> SearchResult::top(std::size_t k) const {
  std::vector<SearchHit> hits;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    push_top_hit(hits, {i, scores[i]}, k);
  }
  finish_top_hits(hits);
  return hits;
}

void push_top_hit(std::vector<SearchHit>& heap, const SearchHit& candidate,
                  std::size_t k) {
  if (k == 0) return;
  // Heap ordered by hit_better ("better ranks lower"), so heap.front() is
  // the worst retained hit and each of the n candidates costs O(log k) —
  // O(n log k) overall instead of the former full stable_sort.
  if (heap.size() < k) {
    heap.push_back(candidate);
    std::push_heap(heap.begin(), heap.end(), hit_better);
  } else if (hit_better(candidate, heap.front())) {
    std::pop_heap(heap.begin(), heap.end(), hit_better);
    heap.back() = candidate;
    std::push_heap(heap.begin(), heap.end(), hit_better);
  }
}

void finish_top_hits(std::vector<SearchHit>& heap) {
  std::sort(heap.begin(), heap.end(), hit_better);
}

DbView make_db_view(const std::vector<seq::Sequence>& records) {
  DbView view;
  view.reserve(records.size());
  for (const seq::Sequence& record : records) {
    view.emplace_back(record.residues.data(), record.residues.size());
  }
  return view;
}

SearchProfiles::SearchProfiles(std::span<const std::uint8_t> query,
                               const ScoringScheme& scheme, KernelKind kernel,
                               Backend backend)
    : query_(query.begin(), query.end()),
      scheme_(scheme),
      kernel_(kernel),
      backend_(resolve_backend(backend, kernel)),
      table_(&kernel_table(backend_)),
      screen_backend_(resolve_backend(backend)),
      screen_table_(&kernel_table(screen_backend_)) {
  if (kernel_ == KernelKind::kStriped8 && !query_.empty()) {
    profile8_ = std::make_unique<StripedProfileU8>(
        query_, *scheme_.matrix, backend_lanes8(backend_));
  }
}

SearchResult search_range(const SearchProfiles& profiles, const DbView& db,
                          std::size_t begin, std::size_t end) {
  SWDUAL_REQUIRE(begin <= end && end <= db.size(),
                 "search_range out of bounds");
  const std::span<const std::uint8_t> query = profiles.query();
  const ScoringScheme& scheme = profiles.scheme();
  SearchResult result;
  result.scores.assign(end - begin, 0);

  switch (profiles.kernel()) {
    case KernelKind::kScalar: {
      for (std::size_t i = begin; i < end; ++i) {
        const ScoreResult r = gotoh_score(query, db[i], scheme);
        result.scores[i - begin] = r.score;
        result.cells += r.cells;
      }
      break;
    }
    case KernelKind::kStriped8: {
      // Tiered precision: bytes first, then the saturated records together
      // on the 16-bit inter-sequence kernel, one record per lane. Those are
      // the high scorers, on which a striped kernel's lazy-F loop is
      // slowest; the byte kernel stops on them early.
      if (query.empty()) break;
      const KernelTable& table = profiles.table();
      const StripedProfileU8& profile8 = profiles.striped8();
      std::vector<std::size_t> saturated;  // range positions
      SequenceViews records;               // and their residues
      for (std::size_t i = begin; i < end; ++i) {
        const StripedResult r8 = table.striped8(profile8, db[i], scheme.gap);
        result.cells += r8.cells;
        if (r8.overflow) {
          saturated.push_back(i - begin);
          records.push_back(db[i]);
        } else {
          result.scores[i - begin] = r8.score;
        }
      }
      result.overflow_rescans = saturated.size();
      if (saturated.empty()) break;
      // A pair that saturates 16 bits too is scored by gotoh_score.
      const InterSeqResult r16 = table.interseq(query, records, scheme);
      for (std::size_t k = 0; k < saturated.size(); ++k) {
        result.scores[saturated[k]] =
            r16.overflow[k] ? gotoh_score(query, records[k], scheme).score
                            : r16.scores[k];
      }
      break;
    }
  }
  return result;
}

SearchResult search_database(std::span<const std::uint8_t> query,
                             const DbView& db, const ScoringScheme& scheme,
                             KernelKind kernel, Backend backend) {
  WallTimer timer;
  const SearchProfiles profiles(query, scheme, kernel, backend);
  SearchResult result = search_range(profiles, db, 0, db.size());
  result.seconds = timer.seconds();
  return result;
}

SearchResult search_database(const SearchProfiles& profiles, const DbView& db) {
  WallTimer timer;
  SearchResult result = search_range(profiles, db, 0, db.size());
  result.seconds = timer.seconds();
  return result;
}

SearchResult search_database(const seq::Sequence& query,
                             const std::vector<seq::Sequence>& db,
                             const ScoringScheme& scheme, KernelKind kernel,
                             Backend backend) {
  const DbView view = make_db_view(db);
  return search_database(
      std::span<const std::uint8_t>(query.residues.data(),
                                    query.residues.size()),
      view, scheme, kernel, backend);
}

const char* filter_mode_name(FilterMode mode) {
  switch (mode) {
    case FilterMode::kOff: return "off";
    case FilterMode::kHeuristic: return "heuristic";
  }
  return "unknown";
}

bool parse_filter_mode(const std::string& name, FilterMode& out) {
  if (name == "off") {
    out = FilterMode::kOff;
    return true;
  }
  if (name == "heuristic") {
    out = FilterMode::kHeuristic;
    return true;
  }
  return false;
}

namespace {

/// The widest banded-screen half-width: wider than any record the SWDB
/// index's 32-bit lengths describe, and small enough that the banded
/// kernels' signed 64-bit geometry cannot overflow.
constexpr std::size_t kMaxBand = std::numeric_limits<std::uint32_t>::max();

void require_band(std::size_t band) {
  SWDUAL_REQUIRE(band >= 1 && band <= kMaxBand,
                 "filter band must be between 1 and 2^32 - 1");
}

}  // namespace

void FilterConfig::validate() const {
  if (!enabled()) return;
  require_band(band);
  SWDUAL_REQUIRE(std::isfinite(keep_factor) && keep_factor >= 1.0,
                 "filter keep_factor must be a finite value >= 1");
}

ScreenResult screen_range(const SearchProfiles& profiles, const DbView& db,
                          std::size_t begin, std::size_t end,
                          std::size_t band) {
  SWDUAL_REQUIRE(begin <= end && end <= db.size(),
                 "screen_range out of bounds");
  require_band(band);
  const std::span<const std::uint8_t> query = profiles.query();
  const ScoringScheme& scheme = profiles.scheme();
  const std::size_t count = end - begin;
  ScreenResult result;
  result.scores.assign(count, 0);
  result.exact.assign(count, 0);
  result.edge_hit.assign(count, 0);
  for (std::size_t i = 0; i < count; ++i) {
    result.exact[i] =
        banded_covers_all(query.size(), db[begin + i].size(), band) ? 1 : 0;
  }
  if (query.empty()) return result;  // all scores 0, all bands covering

  if (profiles.kernel() == KernelKind::kScalar) {
    // The scalar kernel selection means "no SIMD": screen with the banded
    // reference so the whole pipeline stays on one code path.
    for (std::size_t i = begin; i < end; ++i) {
      const BandedResult r = banded_gotoh_score(query, db[i], scheme, band);
      result.scores[i - begin] = r.score;
      result.edge_hit[i - begin] = r.edge_hit ? 1 : 0;
      result.cells += r.cells;
    }
    return result;
  }

  const SequenceViews slice(db.begin() + static_cast<std::ptrdiff_t>(begin),
                            db.begin() + static_cast<std::ptrdiff_t>(end));
  const BandedBatchResult batch =
      profiles.screen_table().banded(query, slice, scheme, band);
  result.cells = batch.cells;
  for (std::size_t i = 0; i < count; ++i) {
    if (batch.overflow[i]) {
      // Saturated even at 16 bits: rescreen this record with the 32-bit
      // banded reference (same results, wider accumulators).
      const BandedResult r =
          banded_gotoh_score(query, slice[i], scheme, band);
      result.scores[i] = r.score;
      result.edge_hit[i] = r.edge_hit ? 1 : 0;
    } else {
      result.scores[i] = batch.scores[i];
      result.edge_hit[i] = batch.edge_hit[i] ? 1 : 0;
    }
  }
  return result;
}

std::vector<std::uint32_t> filter_select_candidates(const ScreenResult& screen,
                                                    std::size_t top_k,
                                                    const FilterConfig& config,
                                                    FilterStats* stats) {
  const std::size_t n = screen.scores.size();
  // Keeping more records than there are keeps them all, so the count is
  // capped at n while it is still a double: the cast stays in range and
  // the heap reserves no more than the records.
  const double wanted =
      std::max(static_cast<double>(top_k),
               std::ceil(config.keep_factor * static_cast<double>(top_k)));
  const std::size_t keep =
      wanted < static_cast<double>(n) ? static_cast<std::size_t>(wanted) : n;
  std::vector<SearchHit> heap;
  heap.reserve(keep + 1);
  std::vector<std::uint32_t> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    push_top_hit(heap, {i, screen.scores[i]}, keep);
    if (screen.edge_hit[i]) {
      candidates.push_back(static_cast<std::uint32_t>(i));
      if (stats) ++stats->band_uncertain;
    }
  }
  candidates.reserve(candidates.size() + heap.size());
  for (const SearchHit& hit : heap) {
    candidates.push_back(static_cast<std::uint32_t>(hit.db_index));
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  if (stats) stats->candidates += candidates.size();
  return candidates;
}

}  // namespace swdual::align
