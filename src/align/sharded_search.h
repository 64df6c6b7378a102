// Sharded database search: the serve-layer scale-out engine.
//
// One monolithic database search caps out at one machine's worth of
// threads. This engine splits the database into N residue-balanced shards —
// zero-copy views into one shared buffer or mmap-backed SWDB, never copies —
// each a fault domain of the chunked engine's pass (align/parallel_search.h):
// the shards are contiguous runs of the longest-first record order, chunks
// never cross a shard boundary, and one group pass runs every chunk of every
// shard on the engine's one pool of num_shards × threads_per_shard threads.
// The merge is the chunked engine's, so results are bit-identical to the
// unsharded search for every kernel, backend, thread count, and shard count.
//
// Multi-query groups: every pass takes K concurrent queries and shares ONE
// pass over every shard chunk between them (profiles built once, the chunk
// scanned once per query while hot), the way SWAPHI amortizes one database
// partition pass across concurrent queries.
//
// As a pipeline engine (align/pipeline.h) it supplies the group scan and
// group screen; candidate selection, the rescan and annotation run once on
// the merged, database-order data, so they never see the shards. The
// pipeline's rescan ranges and tracebacks run on the same pool.
//
// Failure semantics: an optional before_shard hook (mirroring the serve
// layer's before_batch) is invoked ahead of every shard attempt, scan or
// screen alike; attempt 0 runs inside the pass, the hook at the start of
// the shard's first chunk. If the hook or any chunk of the shard throws,
// the attempt fails and the shard's chunk outputs are discarded. A failed
// shard is retried up to max_shard_retries times on the calling thread,
// its chunks inline — the serial path, independent of the pool — and a
// shard that exhausts its budget is reported in SearchOutcome::failures
// with a reason while the remaining shards' results are still returned
// (partial results, scores of unscanned records read 0 and never enter the
// merged top-k). A shard is a run of the length order, so a partial answer
// misses one contiguous length band of the database.
//
// Concurrency: the chunked engine's contract (align/parallel_search.h)
// holds. Passes may overlap, their chunks sharing the one pool's FIFO queue,
// and each pass runs its own retry ladder on its own calling thread, so
// before_shard may be called concurrently by overlapping passes (as well as
// by one pass's shards on different pool threads). Stats are one aggregate
// over every pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
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
/// scans. The records, visited longest first (ties by id: the chunked
/// engine's layout order), are cut into contiguous runs whose largest
/// residue load is as small as any such cut allows, so every shard's lane
/// batches are the global longest-first ones and pad few lanes. Each
/// shard's record list is stored in ascending database order, the form in
/// which ShardFailure::records reports a failed shard.
/// Deterministic for a given (lengths, shard count).
struct ShardPlan {
  struct Shard {
    std::vector<std::uint32_t> records;  ///< db indices, ascending
    std::uint64_t residues = 0;          ///< load (empty records count as 1)
  };

  std::vector<Shard> shards;
  std::uint64_t total_residues = 0;

  /// Relative load imbalance: max shard load / mean shard load − 1.
  /// 0 means perfectly balanced; the planner keeps this small whenever no
  /// single record exceeds a shard's fair share (a run can overshoot it by
  /// at most one record).
  double imbalance() const;
};

/// Plan `num_shards` shards over records with the given residue lengths.
/// num_shards is clamped to [1, record count], and every shard gets at least
/// one record; an empty database yields a plan with zero shards.
ShardPlan plan_shards(std::span<const std::uint32_t> lengths,
                      std::size_t num_shards);
ShardPlan plan_shards(const DbView& db, std::size_t num_shards);

struct ShardedSearchOptions {
  std::size_t num_shards = 1;

  /// Scan threads per shard: each shard is cut into threads_per_shard × 4
  /// chunks, and the engine's one pool holds num_shards × threads_per_shard
  /// threads.
  std::size_t threads_per_shard = 1;

  /// Recovery attempts after a shard attempt throws. Each retry runs the
  /// shard's chunks inline on the calling thread (independent of the pool);
  /// a shard that fails 1 + max_shard_retries times is reported as failed.
  std::size_t max_shard_retries = 1;

  /// Test hook mirroring serve's before_batch: invoked with (shard index,
  /// attempt) before every shard attempt, including recovery attempts. A
  /// throw from the hook is treated as that attempt failing. Calls may be
  /// concurrent: one pass's shards start on different pool threads, and
  /// passes may overlap. nullptr in production.
  std::function<void(std::size_t shard, std::size_t attempt)> before_shard;

  /// Optional observability sinks: every shard attempt becomes a
  /// `shard_scan` span on track 0 and feeds the `serve_shard_*`
  /// counters/histograms. Both must outlive the engine.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Result of one query of a sharded search (the pipeline's outcome).
using ShardedSearchResult = SearchOutcome;

class ShardedSearchEngine : public ParallelSearchEngine {
 public:
  /// Shards over record views (spans are copied, viewed residues must
  /// outlive the engine).
  ShardedSearchEngine(const DbView& db, const ShardedSearchOptions& options);

  /// Zero-copy shards straight into an mmap-backed SWDB: the DbView form
  /// over db->residue_views(), so every shard's records point into the one
  /// shared mapping, which the engine keeps alive.
  ShardedSearchEngine(std::shared_ptr<const seq::MappedSwdb> db,
                      const ShardedSearchOptions& options);

  /// Exact group search through the pipeline: all queries share one pass
  /// over each shard chunk. Results are per query, in input order, and
  /// bit-identical to the unsharded search when complete; a shard failure
  /// applies to the whole group (the pass is shared), so every result
  /// reports the same failures.
  std::vector<ShardedSearchResult> search_many(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      Backend backend = Backend::kAuto) const;

  /// Two-stage filtered group search through the pipeline: the group is
  /// screened in one shared pass over every shard chunk, then candidates
  /// are selected GLOBALLY from the merged screens and rescanned — so
  /// heuristic results are identical for every shard count, thread count,
  /// and backend. Mode kOff is search_many.
  std::vector<ShardedSearchResult> search_many_filtered(
      std::span<const std::span<const std::uint8_t>> queries,
      const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
      const FilterConfig& config, Backend backend = Backend::kAuto) const;

  std::size_t num_shards() const { return plan_.shards.size(); }
  const ShardPlan& plan() const { return plan_; }

  struct Stats {
    std::uint64_t scans = 0;      ///< successful shard attempts
    std::uint64_t retries = 0;    ///< recovery attempts after a failure
    std::uint64_t failures = 0;   ///< shards that exhausted their budget
    std::uint64_t group_passes = 0;  ///< group passes (scan or screen)
  };
  Stats stats() const;

 protected:
  /// The retry ladder as the pass's chunk policy: attempt 0 of every shard
  /// on the pool, then each failed shard's retries inline. Only the chunks
  /// of shards that answered are merged; shards past their budget are
  /// appended to `failures`.
  std::vector<std::uint8_t> run_chunks(
      std::span<const Chunk> chunks, std::size_t queries, bool screen,
      const std::function<void(std::size_t)>& run,
      std::vector<ShardFailure>& failures) const override;

 private:
  /// The DbView form: plan and layout from one longest-first order.
  ShardedSearchEngine(const DbView& db,
                      std::span<const std::uint32_t> longest_first,
                      const ShardedSearchOptions& options);
  ShardedSearchEngine(const DbView& db,
                      std::span<const std::uint32_t> longest_first,
                      ShardPlan plan, const ShardedSearchOptions& options);

  ShardedSearchOptions options_;
  ShardPlan plan_;
  std::shared_ptr<const seq::MappedSwdb> mapped_;  ///< keeps mapping alive

  /// Leaf capability: only the Stats aggregate lives under it, and no other
  /// lock is ever acquired while it is held (shard attempts update it
  /// between chunk runs, never inside one).
  mutable util::Mutex stats_mutex_;
  mutable Stats stats_ SWDUAL_GUARDED_BY(stats_mutex_);
};

}  // namespace swdual::align
