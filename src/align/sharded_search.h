// Sharded scatter-gather database search: the serve-layer scale-out engine.
//
// One monolithic database search caps out at one machine's worth of
// threads. This engine splits the database into N residue-balanced shards —
// zero-copy views into one shared buffer or mmap-backed SWDB, never copies —
// and runs an independent ParallelSearchEngine (with its own ProfileCache,
// simulating one worker node each) per shard. A search scatters over the
// shards, each shard scan keeps a local top-k heap, and the gather step
// merges the per-shard heaps with the same inverse-permutation discipline
// the chunked engine uses, so results are bit-identical to the unsharded
// search for every kernel, backend, thread count, and shard count.
//
// Multi-query groups: every pass takes K concurrent queries and shares ONE
// pass over every shard chunk between them (profiles built once, the chunk
// scanned once per query while hot), the way SWAPHI amortizes one database
// partition pass across concurrent queries.
//
// As a pipeline engine (align/pipeline.h) it supplies the scattered group
// scan and group screen; candidate selection, the rescan and annotation run
// once on the gathered, database-order data, so they never see the shards.
//
// Failure semantics: an optional before_shard hook (mirroring the serve
// layer's before_batch) is invoked ahead of every shard attempt, scan or
// screen alike; a throwing attempt is retried up to max_shard_retries times
// on the recovery path — the serial engine over the shard's view,
// independent of the shard's own engine/pool — and a shard that exhausts
// its budget is reported in SearchOutcome::failures with a reason while the
// remaining shards' results are still returned (partial results, scores of
// unscanned records read 0 and never enter the merged top-k).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "align/parallel_search.h"
#include "align/pipeline.h"
#include "align/search.h"
#include "util/mutex.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::seq {
class MappedSwdb;
}  // namespace swdual::seq

namespace swdual::align {

/// Residue-balanced shard assignment: which database records each shard
/// scans. Assignment is greedy longest-processing-time (records visited
/// longest-first, each placed on the currently lightest shard, ties to the
/// lowest shard index); each shard's record list is then stored in
/// ascending database order so shard-local rank ties resolve exactly like
/// global ones (the per-shard engine re-sorts longest-first internally for
/// the inter-sequence kernel and inverse-permutes back). Deterministic for
/// a given (lengths, shard count).
struct ShardPlan {
  struct Shard {
    std::vector<std::uint32_t> records;  ///< db indices, ascending
    std::uint64_t residues = 0;          ///< load (empty records count as 1)
  };

  std::vector<Shard> shards;
  std::uint64_t total_residues = 0;

  /// Relative load imbalance: max shard load / mean shard load − 1.
  /// 0 means perfectly balanced; the planner keeps this small whenever no
  /// single record exceeds a shard's fair share.
  double imbalance() const;
};

/// Plan `num_shards` shards over records with the given residue lengths.
/// num_shards is clamped to [1, record count]; an empty database yields a
/// plan with zero shards.
ShardPlan plan_shards(std::span<const std::uint32_t> lengths,
                      std::size_t num_shards);
ShardPlan plan_shards(const DbView& db, std::size_t num_shards);

struct ShardedSearchOptions {
  std::size_t num_shards = 1;

  /// Intra-shard scan threads (each shard's ParallelSearchEngine pool).
  std::size_t threads_per_shard = 1;

  /// Recovery attempts after a shard attempt throws. Each retry runs the
  /// shard's records through the serial engine (independent of the shard's
  /// pool); a shard that fails 1 + max_shard_retries times is reported as
  /// failed.
  std::size_t max_shard_retries = 1;

  /// Test hook mirroring serve's before_batch: invoked with (shard index,
  /// attempt) before every shard attempt, including recovery attempts. A
  /// throw from the hook is treated as that attempt failing. nullptr in
  /// production.
  std::function<void(std::size_t shard, std::size_t attempt)> before_shard;

  /// Optional observability sinks: every shard attempt becomes a
  /// `shard_scan` span on `trace_track` and feeds the `serve_shard_*`
  /// counters/histograms. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  std::size_t trace_track = 0;
};

/// Result of one query of a sharded search (the pipeline's outcome).
using ShardedSearchResult = SearchOutcome;

class ShardedSearchEngine : public SearchEngine {
 public:
  /// Shards over record views (spans are copied, viewed residues must
  /// outlive the engine).
  ShardedSearchEngine(const DbView& db, const ShardedSearchOptions& options);

  /// Zero-copy shards straight into an mmap-backed SWDB: every shard's view
  /// points into the one shared mapping, which the engine keeps alive.
  ShardedSearchEngine(std::shared_ptr<const seq::MappedSwdb> db,
                      const ShardedSearchOptions& options);

  ~ShardedSearchEngine() override;

  ShardedSearchEngine(const ShardedSearchEngine&) = delete;
  ShardedSearchEngine& operator=(const ShardedSearchEngine&) = delete;

  /// Exact group search through the pipeline: all queries share one pass
  /// over each shard chunk. Results are per query, in input order, and
  /// bit-identical to the unsharded search when complete; a shard failure
  /// applies to the whole group (the pass is shared), so every result
  /// reports the same failures.
  std::vector<ShardedSearchResult> search_many(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      Backend backend = Backend::kAuto) const;

  /// Two-stage filtered group search through the pipeline: every shard
  /// screens the group (one shared pass per shard chunk), then candidates
  /// are selected GLOBALLY from the gathered screens and rescanned — so
  /// heuristic results are identical for every shard count, thread count,
  /// and backend. Mode kOff is search_many.
  std::vector<ShardedSearchResult> search_many_filtered(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      const FilterConfig& config, Backend backend = Backend::kAuto) const;

  // Pipeline primitives (align/pipeline.h): scatter over the shards, each
  // through the retry ladder, then gather to database order.
  std::uint64_t db_residues() const override { return db_residues_; }
  std::span<const std::uint8_t> record(std::size_t index) const override {
    return global_view_[index];
  }
  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const override;
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const override;

  std::size_t num_shards() const { return shards_.size(); }
  const ShardPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t scans = 0;      ///< successful shard attempts
    std::uint64_t retries = 0;    ///< recovery attempts after a failure
    std::uint64_t failures = 0;   ///< shards that exhausted their budget
    std::uint64_t group_passes = 0;  ///< scatter passes (scan or screen)
  };
  Stats stats() const;

 private:
  struct ShardState;

  void init(const DbView& db);

  /// Run `pass(engine, shard)` on every shard — its own engine first, the
  /// serial engine over its view on each retry — through the one retry
  /// ladder. Failed shards are appended to `failures`; the result flags
  /// the shards that answered.
  std::vector<std::uint8_t> scatter(
      std::size_t queries, bool screen,
      const std::function<void(const SearchEngine& engine, std::size_t shard)>&
          pass,
      std::vector<ShardFailure>& failures) const;

  ShardedSearchOptions options_;
  ShardPlan plan_;
  std::size_t db_records_ = 0;
  std::uint64_t db_residues_ = 0;
  DbView global_view_;  ///< database-order spans, for candidate rescans
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::shared_ptr<const seq::MappedSwdb> mapped_;  ///< keeps mapping alive
  std::unique_ptr<ThreadPool> scatter_pool_;       ///< null for one shard

  /// Leaf capability: only the Stats aggregate lives under it, and no other
  /// lock is ever acquired while it is held (shard attempts update it
  /// between engine passes, never inside one).
  mutable util::Mutex stats_mutex_;
  mutable Stats stats_ SWDUAL_GUARDED_BY(stats_mutex_);
};

}  // namespace swdual::align
