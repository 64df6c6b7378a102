// Database-search driver: one query against many database sequences.
//
// This is the "fine-grained" layer of the paper's §II-C: a single task
// (query vs whole database) is accelerated internally by the selected
// kernel, while the task-level parallelism across queries is handled by the
// scheduler/master in src/core. Saturating SIMD kernels that overflow are
// transparently recomputed with the 32-bit scalar oracle.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/profile.h"
#include "align/scoring.h"
#include "seq/sequence.h"

namespace swdual::align {

// KernelKind and kernel_name live in align/backend.h (selection is
// kernel-aware); search.h re-exports them via that include.

/// Per-hit significance/alignment annotation (populated by annotate.h on the
/// merged global top-k; full definition there).
struct HitAnnotation;

/// One scored database record. `annotation` stays null on every hot path —
/// scoring, chunk merges, and shard gathers move hits as {index, score}; only
/// the post-merge annotation step attaches the shared payload, so copies of
/// an annotated hit stay cheap (one refcount bump).
struct SearchHit {
  std::size_t db_index = 0;
  int score = 0;
  std::shared_ptr<const HitAnnotation> annotation;

  SearchHit() = default;
  SearchHit(std::size_t index, int hit_score)
      : db_index(index), score(hit_score) {}
};

/// Full result of one query-vs-database task.
struct SearchResult {
  std::vector<int> scores;   ///< score per database record, database order
  std::uint64_t cells = 0;   ///< DP cells computed
  double seconds = 0.0;      ///< wall-clock kernel time
  std::size_t overflow_rescans = 0;  ///< pairs recomputed at 32 bits

  /// Billion cell updates per second (the paper's GCUPS metric).
  double gcups() const {
    return seconds > 0 ? static_cast<double>(cells) / seconds / 1e9 : 0.0;
  }

  /// The k best-scoring records, ties broken by database order.
  std::vector<SearchHit> top(std::size_t k) const;
};

/// A ranked search: the full result plus its k best hits.
struct RankedSearchResult {
  SearchResult result;
  std::vector<SearchHit> hits;  ///< equal to result.top(k)
};

/// Ranking order for hits: higher score first, ties by database order.
bool hit_better(const SearchHit& a, const SearchHit& b);

/// Bounded top-k selection primitives shared by SearchResult::top and the
/// parallel engine's per-chunk merge: push a candidate into a size-k
/// min-heap (O(log k)), then sort the retained hits into rank order.
void push_top_hit(std::vector<SearchHit>& heap, const SearchHit& candidate,
                  std::size_t k);
void finish_top_hits(std::vector<SearchHit>& heap);

/// Lightweight view of an encoded database held in memory.
using DbView = std::vector<std::span<const std::uint8_t>>;

/// Make views over a record vector (records must outlive the views).
DbView make_db_view(const std::vector<seq::Sequence>& records);

/// Per-query kernel state, built once and shared read-only by every chunk of
/// one search (serial or parallel). It owns a copy of the query residues,
/// so it stays valid after the caller's buffer is gone (align::ProfileCache
/// stores it as is). Profiles are striped for the resolved
/// SIMD backend's lane counts, so one SearchProfiles caches exactly one
/// profile set per active backend. The 16-bit escalation profile used by
/// the striped8 tier is built lazily on the first saturated pair, under a
/// once-flag, so concurrent chunks share a single build instead of one per
/// chunk (or, previously, one per search_database call).
class SearchProfiles {
 public:
  SearchProfiles(std::span<const std::uint8_t> query,
                 const ScoringScheme& scheme, KernelKind kernel,
                 Backend backend = Backend::kAuto);

  SearchProfiles(const SearchProfiles&) = delete;
  SearchProfiles& operator=(const SearchProfiles&) = delete;

  std::span<const std::uint8_t> query() const { return query_; }
  const ScoringScheme& scheme() const { return scheme_; }
  KernelKind kernel() const { return kernel_; }

  /// The resolved SIMD backend (never kAuto) the profiles are striped for.
  Backend backend() const { return backend_; }

  /// Kernel entry points of the resolved backend.
  const KernelTable& table() const { return *table_; }

  /// The backend the banded screen runs on: best_backend() when the
  /// profiles' backend was auto-selected (per-kernel gates shape only the
  /// exact kernel), else the explicit backend. Screens are bit-identical
  /// across backends, so this choice moves only speed.
  Backend screen_backend() const { return screen_backend_; }
  const KernelTable& screen_table() const { return *screen_table_; }

  /// 16-bit striped profile: eager for kStriped, lazy (first overflow) for
  /// kStriped8. Safe to call concurrently; query must be non-empty.
  const StripedProfile& striped16() const;

  /// Byte-precision profile (kStriped8 only; query must be non-empty).
  const StripedProfileU8& striped8() const { return *profile8_; }

 private:
  std::vector<std::uint8_t> query_;
  ScoringScheme scheme_;
  KernelKind kernel_;
  Backend backend_;
  const KernelTable* table_;
  Backend screen_backend_;
  const KernelTable* screen_table_;
  std::unique_ptr<StripedProfileU8> profile8_;
  mutable std::once_flag once16_;
  mutable std::unique_ptr<StripedProfile> profile16_;
};

/// Score `query` against db[begin, end) with shared profiles. scores[i] of
/// the result corresponds to db[begin + i]. This is the single scan routine
/// behind both the serial driver and the parallel engine, so chunked runs
/// are bit-identical to serial ones by construction.
SearchResult search_range(const SearchProfiles& profiles, const DbView& db,
                          std::size_t begin, std::size_t end);

/// Score `query` against every database sequence with the chosen kernel on
/// the chosen SIMD backend (kAuto = widest the host supports, overridable
/// with SWDUAL_FORCE_BACKEND).
SearchResult search_database(std::span<const std::uint8_t> query,
                             const DbView& db, const ScoringScheme& scheme,
                             KernelKind kernel,
                             Backend backend = Backend::kAuto);

/// Same scan with caller-provided (possibly cached/shared) profiles: the
/// per-query build step is skipped, results are bit-identical.
SearchResult search_database(const SearchProfiles& profiles, const DbView& db);

/// Convenience overload for Sequence inputs.
SearchResult search_database(const seq::Sequence& query,
                             const std::vector<seq::Sequence>& db,
                             const ScoringScheme& scheme, KernelKind kernel,
                             Backend backend = Backend::kAuto);

// --- Two-stage filter primitives ------------------------------------------
//
// Stage 1 screens every record with the cheap vectorized banded kernel
// (align/kernel_banded.h) and re-screens its band-edge hits at wider bands;
// stage 2 rescans only the surviving candidates with the configured exact
// kernel (the stage sequence lives in align/pipeline.h). Screening is
// bit-identical across SIMD backends and candidate selection is
// deterministic, so filtered results are a pure function of (query, db,
// scheme, kernel, filter config) — they do not depend on backend, thread
// count, chunking, or shard topology.

/// Filtering policy for a search.
enum class FilterMode {
  kOff,        ///< no screening; results bit-identical to search_database
  kHeuristic,  ///< banded screen, keep top keep_factor*k + uncertain records
};

const char* filter_mode_name(FilterMode mode);
bool parse_filter_mode(const std::string& name, FilterMode& out);

/// Configuration of the two-stage pipeline.
struct FilterConfig {
  FilterMode mode = FilterMode::kOff;
  std::size_t band = 32;     ///< banded-screen half-width (>= 1)
  double keep_factor = 4.0;  ///< keep ceil(keep_factor * k) screened records

  bool enabled() const { return mode != FilterMode::kOff; }

  /// Throws InvalidArgument on out-of-range parameters (band == 0,
  /// keep_factor < 1, non-finite keep_factor).
  void validate() const;
};

/// Counters describing what the filter did (the pipeline exports these as
/// filter_candidates / filter_rescans / filter_band_uncertain metrics).
struct FilterStats {
  std::uint64_t candidates = 0;      ///< records surviving the screen
  std::uint64_t rescans = 0;         ///< candidates rescanned exactly
  std::uint64_t band_uncertain = 0;  ///< records kept via the edge flag

  void merge(const FilterStats& other) {
    candidates += other.candidates;
    rescans += other.rescans;
    band_uncertain += other.band_uncertain;
  }
};

/// Stage-1 output for a database range. `exact[i]` is the band-coverage
/// certificate (the screened score IS the exact score); `edge_hit[i]` marks
/// records whose best banded path ended on the band boundary (the score may
/// underestimate, so selection must keep them).
struct ScreenResult {
  std::vector<int> scores;            ///< banded lower-bound score per record
  std::vector<std::uint8_t> exact;    ///< 1 = certificate: score is exact
  std::vector<std::uint8_t> edge_hit; ///< 1 = boundary-uncertain score
  std::uint64_t cells = 0;            ///< banded DP cells computed
};

/// Screen db[begin, end) with the banded kernel of the profiles' screen
/// backend (kScalar kernel: the scalar banded reference). scores[i]
/// corresponds to db[begin + i]. Results are bit-identical across backends
/// and chunkings.
ScreenResult screen_range(const SearchProfiles& profiles, const DbView& db,
                          std::size_t begin, std::size_t end,
                          std::size_t band);

/// Deterministic stage-2 candidate selection: the max(k, ceil(keep_factor*k))
/// best screened records plus every edge-uncertain one, as sorted unique
/// range-local indices. `stats` (optional) accumulates selection counters.
/// The search pipeline (align/pipeline.h) is its one caller in the library.
std::vector<std::uint32_t> filter_select_candidates(const ScreenResult& screen,
                                                    std::size_t top_k,
                                                    const FilterConfig& config,
                                                    FilterStats* stats);

}  // namespace swdual::align
