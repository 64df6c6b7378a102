// Long-running concurrent query service over the master–slave runtime.
//
// The paper's runtime answers one batch and exits; a deployment sits behind
// an API and fields overlapping requests all day. This layer adds the three
// pieces that turn the batch engine into a service:
//
//   - Admission control: a bounded queue between submitters and the
//     execution loop. When it is full, submit() rejects immediately with a
//     machine-readable reason — it never blocks a caller indefinitely, so
//     backpressure propagates to clients instead of accumulating as hidden
//     memory growth.
//   - Micro-batching: a batcher thread drains up to `max_batch` admitted
//     requests at a time and dispatches their distinct queries as ONE
//     workload: through master::run_search, whose dual-approximation
//     scheduler sees the whole batch and splits it across CPU and GPU
//     workers as the paper's Fig. 6 flow intends, or as one group pass of
//     the sharded engine. The sharded path runs one batcher per thread of
//     the engine's pool, so several batches are in flight and the pool
//     interleaves their chunks; the master path runs one. A query whose
//     twin is already being searched, in its own batch or another, joins
//     that search instead of starting a second one. Only result-cache misses
//     reach an engine, so the service keeps no profile cache: each batch
//     builds its queries' profiles.
//   - Result caching: finished answers go into an LRU ResultCache keyed by
//     (query residues, db id, scoring params, filter, annotation); a hit at
//     admission time is answered without touching a worker.
//
// Every request is tracked end to end: enqueue→admit→execute→complete
// timestamps become spans on the obs::Tracer and latency histograms
// (`serve_*`) in the obs::MetricsRegistry, whose percentile() gives
// p50/p95/p99 directly.
//
// Thread-safety: submit(), shutdown(), and stats() may be called from any
// thread concurrently. Results arrive through shared_futures, so several
// consumers can wait on one answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "align/annotate.h"
#include "align/sharded_search.h"
#include "master/master.h"
#include "seq/sequence.h"
#include "seq/swdb.h"
#include "serve/cache.h"
#include "util/lru_cache.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::serve {

struct ServiceConfig {
  /// Execution engine configuration (workers, policy, scoring, kernel). The
  /// service installs its observability sinks and calibration into this
  /// before each dispatch; leave those fields alone here.
  master::MasterConfig master;

  /// Bounded admission queue: submissions beyond this many waiting requests
  /// are rejected with SubmitStatus::kQueueFull (never blocked).
  std::size_t admission_capacity = 256;

  /// Most requests coalesced into one scheduler workload.
  std::size_t max_batch = 16;

  std::size_t result_cache_capacity = 1024;

  /// Identity of the database this service fronts; part of every result
  /// cache key (two services over different databases must not share hits).
  /// Shard topology is deliberately NOT part of the identity: sharded and
  /// unsharded searches are bit-identical, so cached answers are valid at
  /// any shard count (the same way the exact kernel and the SIMD backend
  /// are excluded: every kernel on every backend scores alike). The
  /// two-stage filter config (master.filter) DOES join the key when enabled
  /// — it changes which hits come back — but stays topology-free for the
  /// same determinism reason (see serve/cache.h). The annotation config
  /// (master.annotate) joins the key the same way when enabled: annotated
  /// hits carry extra payload and the e-value cutoff changes which hits
  /// survive, but annotation itself is topology-independent (it runs once
  /// on the merged global top-k), so the key still excludes topology.
  std::string db_id = "db";

  /// Scale-out: > 0 runs every batch through an align::ShardedSearchEngine
  /// with this many residue-balanced shards (zero-copy views into the one
  /// database), with the batch's distinct queries sharing one pass over
  /// every shard chunk. 0 keeps the classic path: one
  /// master::run_search (CPU+GPU scheduler) per batch.
  std::size_t shards = 0;

  /// Scan threads per shard for the sharded path; the engine's one pool
  /// holds shards × threads_per_shard threads, and the service runs one
  /// batcher per pool thread.
  std::size_t threads_per_shard = 1;

  /// Retries after a shard attempt fails (sharded path): the engine's retry
  /// ladder re-runs the shard's chunks inline, with candidate selection
  /// still global. A shard that exhausts them surfaces as a partial,
  /// uncached response.
  std::size_t max_shard_retries = 1;

  /// Test hook mirroring before_batch, forwarded to the sharded engine:
  /// invoked with (shard, attempt) before every shard-scan attempt; a throw
  /// fails that attempt. nullptr in production.
  std::function<void(std::size_t shard, std::size_t attempt)> before_shard;

  /// Optional observability sinks, borrowed for the service's lifetime and
  /// forwarded into every master::run_search dispatch.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;

  /// Test hook: invoked by the batcher thread that took a batch, with the
  /// batch size, right before the batch executes. Lets tests hold that
  /// batcher at a known point (e.g. to fill the admission queue
  /// deterministically). The sharded path runs several batchers, which may
  /// call it concurrently. nullptr in production.
  std::function<void(std::size_t batch_size)> before_batch;
};

/// Outcome of one submit() call.
enum class SubmitStatus {
  kAccepted,   ///< queued; `result` will be fulfilled
  kQueueFull,  ///< admission queue at capacity — retry later
  kShutdown,   ///< service no longer accepts work
};

/// One fulfilled request.
struct QueryResponse {
  std::vector<align::SearchHit> hits;  ///< top hits, rank order
  bool cache_hit = false;              ///< answered from the result cache
  double queue_seconds = 0.0;          ///< enqueue → admitted by a batcher
  double execute_seconds = 0.0;        ///< admitted → answer ready
  double total_seconds = 0.0;          ///< enqueue → answer ready

  /// Sharded path only: some shards failed past every retry, so `hits`
  /// covers only the shards that were scanned. `partial_reason` names the
  /// failed shards and the last error. Partial answers are never cached.
  bool partial = false;
  std::string partial_reason;

  /// Set when the two-stage filter (ServiceConfig master.filter) produced
  /// this answer. `filter` carries the query's screen counters behind a
  /// fresh answer and is zero on cache hits (the work was already paid for
  /// by the request that populated the cache).
  bool filtered = false;
  align::FilterStats filter;

  /// True when annotation (ServiceConfig master.annotate) is enabled: every
  /// hit's `annotation` then carries e-value and bit score, plus a CIGAR
  /// and aligned coordinates under stats+cigar. Annotations ride the result
  /// cache with the hits, so cache hits are annotated too.
  bool annotated = false;
};

/// Ticket returned by submit(). `result` is only valid when accepted().
struct Submission {
  SubmitStatus status = SubmitStatus::kShutdown;
  std::string reason;  ///< human-readable rejection reason; empty on accept
  std::shared_future<QueryResponse> result;

  bool accepted() const { return status == SubmitStatus::kAccepted; }
};

class QueryService {
 public:
  /// Takes ownership of the database records (a long-running service must
  /// not depend on a caller's buffers) and starts the batcher threads.
  QueryService(std::vector<seq::Sequence> db, ServiceConfig config);

  /// Zero-copy variant: the service shares an mmap-backed SWDB instead of
  /// owning record copies. The shared_ptr keeps the mapping alive for the
  /// service's lifetime (MappedSwdb lifetime rule), so any number of
  /// services/engines/shards over the same file share one physical copy of
  /// the database via the page cache.
  QueryService(std::shared_ptr<const seq::MappedSwdb> db,
               ServiceConfig config);

  /// Graceful: stops admissions, drains already-admitted requests, joins.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submit one query. Never blocks on the execution pipeline: the call
  /// either enqueues and returns a future, or rejects with a reason.
  Submission submit(const seq::Sequence& query);

  /// Stop accepting new work. Already-admitted requests still complete
  /// (their futures are fulfilled) before the batchers exit. Idempotent.
  void shutdown();

  struct Stats {
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t rejected_shutdown = 0;
    std::uint64_t batches = 0;    ///< workloads dispatched to the engine
    std::uint64_t searches = 0;   ///< distinct queries actually executed
    /// Cache misses answered by a search another request had started (in
    /// the same batch or another): misses = searches + joined once every
    /// search has succeeded.
    std::uint64_t joined = 0;
    std::uint64_t partial_responses = 0;  ///< fulfilled with failed shards
    util::CacheStats results;
    /// The sharded engine's retry ladder (zeros on the master path):
    /// `retries` counts attempts after a failure, `failures` the shards
    /// that exhausted it, each of which made its group's answers partial.
    align::ShardedSearchEngine::Stats shards;

    /// Accumulated two-stage filter counters across every executed search
    /// (zeros while master.filter is off).
    align::FilterStats filter;
  };
  Stats stats() const;

  /// Shards the service searches with (1 when unsharded/master path).
  std::size_t num_shards() const {
    return sharded_ ? sharded_->num_shards() : 1;
  }

 private:
  struct Request {
    seq::Sequence query;
    std::string key;  ///< result-cache key
    std::shared_ptr<std::promise<QueryResponse>> promise;
    WallTimer timer;           ///< started at enqueue
    double enqueue_wall = 0;   ///< tracer-epoch timestamp (0 if no tracer)
    double admit_wall = 0;     ///< tracer-epoch timestamp at admission
    double admit_seconds = 0;  ///< enqueue → admission (filled at admission)
    std::uint64_t id = 0;      ///< monotonic request id, for trace args
  };

  /// One batcher: take up to max_batch admitted requests, dispatch them,
  /// repeat until shut down and drained.
  void run();
  /// The one dispatch path: admit the batch, answer cache hits, join the
  /// searches already in flight, search the other distinct queries (the
  /// sharded pipeline or the master), then one error fan-out, one stats
  /// update, one fulfil loop over the searchers and their joiners.
  void dispatch(std::vector<Request> batch);
  /// Take `searcher`'s key out of the in-flight table: the requests its
  /// search answers, the searcher first, then every request that joined.
  std::vector<Request> end_search(Request searcher);
  /// config_.master with the service's cache and sinks installed.
  master::MasterConfig master_config();
  void admit(Request& request);
  void fulfill(Request& request, std::vector<align::SearchHit> hits,
               bool cache_hit, std::string partial_reason = {},
               const align::FilterStats& filter = {});
  /// Shared ctor tail: validate config, start the batchers.
  void start();

  std::vector<seq::Sequence> db_;  ///< owned records (record ctor only)
  std::shared_ptr<const seq::MappedSwdb> mapped_;  ///< mmap ctor only
  align::DbView view_;  ///< residue views into db_ or mapped_
  ServiceConfig config_;
  ResultCache results_;
  align::StatsCache stats_cache_;  ///< calibrated Karlin–Altschul params
  /// Acquired once at start() when master.annotate is enabled; every
  /// dispatch borrows the same calibration (deterministic per scheme ×
  /// alphabet × db_id, see align::StatsCache).
  std::shared_ptr<const align::KarlinAltschulParams> stats_params_;
  std::unique_ptr<align::ShardedSearchEngine> sharded_;  ///< shards > 0 only

  /// Service capability, declared before the result cache's: the admission
  /// lock may be held briefly around queue, in-flight and counter state,
  /// but the cache is only ever entered with it released (its methods are
  /// self-locking), so the service cannot produce a service↔cache deadlock
  /// — and under Clang, acquiring mutex_ while the cache lock is held
  /// contradicts this declaration and fails the build.
  mutable util::Mutex mutex_ SWDUAL_ACQUIRED_BEFORE(results_.capability());
  util::CondVar wake_;
  std::deque<Request> admission_ SWDUAL_GUARDED_BY(mutex_);
  bool accepting_ SWDUAL_GUARDED_BY(mutex_) = true;
  std::uint64_t next_id_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t accepted_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_queue_full_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t rejected_shutdown_ SWDUAL_GUARDED_BY(mutex_) = 0;
  /// The searches in flight, by result key: each entry holds the requests
  /// that joined it (its searcher stays in its batch). A key leaves the
  /// table after its complete answer has entered the result cache.
  std::unordered_map<std::string, std::vector<Request>> in_flight_
      SWDUAL_GUARDED_BY(mutex_);
  std::uint64_t batches_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t searches_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t joined_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t partial_responses_ SWDUAL_GUARDED_BY(mutex_) = 0;
  align::FilterStats filter_stats_ SWDUAL_GUARDED_BY(mutex_);

  /// Must be last: joined before the members they use destruct.
  std::vector<std::thread> batchers_;
};

}  // namespace swdual::serve
