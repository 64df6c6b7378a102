#include "serve/service.h"

#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace swdual::serve {

QueryService::QueryService(std::vector<seq::Sequence> db, ServiceConfig config)
    : db_(std::move(db)),
      view_(align::make_db_view(db_)),
      config_(std::move(config)),
      results_(config_.result_cache_capacity) {
  start();
}

QueryService::QueryService(std::shared_ptr<const seq::MappedSwdb> db,
                           ServiceConfig config)
    : mapped_(std::move(db)),
      config_(std::move(config)),
      results_(config_.result_cache_capacity) {
  SWDUAL_REQUIRE(mapped_ != nullptr, "mapped database must not be null");
  view_ = mapped_->residue_views();
  start();
}

void QueryService::start() {
  SWDUAL_REQUIRE(config_.max_batch > 0, "max_batch must be positive");
  SWDUAL_REQUIRE(config_.admission_capacity > 0,
                 "admission_capacity must be positive");
  config_.master.filter.validate();
  if (config_.master.annotate.enabled()) {
    config_.master.annotate.validate();
    // One calibration per service, acquired before the batchers start:
    // every dispatch (master path or sharded path) then borrows the same
    // deterministic parameters.
    const seq::AlphabetKind kind =
        mapped_ ? mapped_->alphabet()
                : (db_.empty() ? seq::AlphabetKind::kProtein
                               : db_.front().alphabet);
    stats_params_ = stats_cache_.acquire(
        config_.master.scheme, seq::Alphabet::get(kind), config_.db_id);
  }
  if (config_.shards > 0) {
    align::ShardedSearchOptions options;
    options.num_shards = config_.shards;
    options.threads_per_shard = config_.threads_per_shard;
    options.max_shard_retries = config_.max_shard_retries;
    options.before_shard = config_.before_shard;
    options.tracer = config_.tracer;
    options.metrics = config_.metrics;
    sharded_ = mapped_ ? std::make_unique<align::ShardedSearchEngine>(
                             mapped_, options)
                       : std::make_unique<align::ShardedSearchEngine>(
                             view_, options);
  }
  // The sharded path runs one batcher per pool thread: each runs its own
  // align::search on the one engine, whose pool interleaves the chunks of
  // every pass in flight, so no pass's serial steps or narrow fan-outs leave
  // the pool idle. The master path keeps one batcher: every
  // master::run_search starts its own cpu_workers + gpu_workers threads for
  // the modeled platform, so overlapping runs would multiply threads instead
  // of sharing a fixed pool.
  const std::size_t batchers = sharded_ ? sharded_->threads() : 1;
  try {
    for (std::size_t b = 0; b < batchers; ++b) {
      batchers_.emplace_back([this] { run(); });
    }
  } catch (...) {
    shutdown();
    for (std::thread& batcher : batchers_) batcher.join();
    throw;
  }
}

QueryService::~QueryService() {
  shutdown();
  for (std::thread& batcher : batchers_) batcher.join();
}

Submission QueryService::submit(const seq::Sequence& query) {
  SWDUAL_REQUIRE(!query.empty(), "cannot search with an empty query");
  Request request;
  request.query = query;
  request.key = result_key({query.residues.data(), query.residues.size()},
                           config_.db_id, config_.master.scheme,
                           config_.master.filter, config_.master.annotate);
  request.enqueue_wall = config_.tracer ? config_.tracer->now() : 0.0;

  Submission ticket;
  {
    util::MutexLock lock(mutex_);
    if (!accepting_) {
      ++rejected_shutdown_;
      if (config_.metrics) config_.metrics->add("serve_rejected_shutdown");
      ticket.status = SubmitStatus::kShutdown;
      ticket.reason = "service is shut down";
      return ticket;
    }
    if (admission_.size() >= config_.admission_capacity) {
      ++rejected_queue_full_;
      if (config_.metrics) config_.metrics->add("serve_rejected_queue_full");
      ticket.status = SubmitStatus::kQueueFull;
      ticket.reason = "admission queue full (capacity " +
                      std::to_string(config_.admission_capacity) + ")";
      return ticket;
    }
    request.id = next_id_++;
    request.promise = std::make_shared<std::promise<QueryResponse>>();
    ticket.status = SubmitStatus::kAccepted;
    ticket.result = request.promise->get_future().share();
    ++accepted_;
    if (config_.tracer) {
      config_.tracer->instant(
          "submit", "serve", obs::kMasterTrack,
          {{"request", static_cast<double>(request.id)},
           {"queued", static_cast<double>(admission_.size())}});
    }
    admission_.push_back(std::move(request));
  }
  if (config_.metrics) config_.metrics->add("serve_accepted");
  wake_.notify_one();
  return ticket;
}

void QueryService::shutdown() {
  {
    util::MutexLock lock(mutex_);
    accepting_ = false;
  }
  wake_.notify_all();
}

void QueryService::run() {
  for (;;) {
    std::vector<Request> batch;
    {
      util::MutexLock lock(mutex_);
      while (admission_.empty() && accepting_) wake_.wait(mutex_);
      if (admission_.empty()) return;  // shut down and fully drained
      while (!admission_.empty() && batch.size() < config_.max_batch) {
        batch.push_back(std::move(admission_.front()));
        admission_.pop_front();
      }
    }
    dispatch(std::move(batch));
  }
}

master::MasterConfig QueryService::master_config() {
  master::MasterConfig engine = config_.master;
  engine.tracer = config_.tracer;
  engine.metrics = config_.metrics;
  engine.stats = stats_params_.get();
  return engine;
}

void QueryService::admit(Request& request) {
  request.admit_seconds = request.timer.seconds();
  if (config_.tracer) {
    request.admit_wall = config_.tracer->now();
    obs::TraceEvent queued;
    queued.phase = obs::TraceEvent::Phase::kComplete;
    queued.clock = obs::Clock::kWall;
    queued.name = "queued";
    queued.category = "serve";
    queued.track = obs::kMasterTrack;
    queued.start = request.enqueue_wall;
    queued.end = request.admit_wall;
    queued.args = {{"request", static_cast<double>(request.id)}};
    config_.tracer->record(std::move(queued));
  }
  if (config_.metrics) {
    config_.metrics->observe("serve_queue_seconds", request.admit_seconds);
  }
}

void QueryService::fulfill(Request& request,
                           std::vector<align::SearchHit> hits,
                           bool cache_hit, std::string partial_reason,
                           const align::FilterStats& filter) {
  QueryResponse response;
  response.hits = std::move(hits);
  response.cache_hit = cache_hit;
  response.partial = !partial_reason.empty();
  response.partial_reason = std::move(partial_reason);
  response.filtered = config_.master.filter.enabled();
  response.filter = filter;
  response.annotated = config_.master.annotate.enabled();
  if (response.partial) {
    util::MutexLock lock(mutex_);
    ++partial_responses_;
  }
  response.queue_seconds = request.admit_seconds;
  response.total_seconds = request.timer.seconds();
  response.execute_seconds = response.total_seconds - response.queue_seconds;
  if (config_.tracer) {
    obs::TraceEvent executed;
    executed.phase = obs::TraceEvent::Phase::kComplete;
    executed.clock = obs::Clock::kWall;
    executed.name = cache_hit ? "cache-hit" : "execute";
    executed.category = "serve";
    executed.track = obs::kMasterTrack;
    executed.start = request.admit_wall;
    executed.end = config_.tracer->now();
    executed.args = {{"request", static_cast<double>(request.id)}};
    config_.tracer->record(std::move(executed));
  }
  if (config_.metrics) {
    if (response.partial) config_.metrics->add("serve_partial_responses");
    config_.metrics->add(cache_hit ? "serve_cache_hits"
                                   : "serve_cache_misses");
    config_.metrics->observe("serve_execute_seconds",
                             response.execute_seconds);
    config_.metrics->observe("serve_latency_seconds",
                             response.total_seconds);
  }
  request.promise->set_value(std::move(response));
}

void QueryService::dispatch(std::vector<Request> batch) {
  if (config_.before_batch) config_.before_batch(batch.size());
  obs::Span span;
  if (config_.tracer) {
    span = config_.tracer->span("batch", "serve", obs::kMasterTrack);
    span.arg("requests", static_cast<double>(batch.size()));
  }
  if (config_.metrics) {
    config_.metrics->observe("serve_batch_size",
                             static_cast<double>(batch.size()));
  }

  // Admit every request and answer cache hits immediately. A miss whose key
  // is in flight, started by this batch or another, joins that search; every
  // other miss starts one.
  std::vector<Request> searchers;  // one per search this batch starts
  std::size_t joined = 0;
  for (Request& request : batch) {
    admit(request);
    if (const auto cached = results_.lookup(request.key)) {
      fulfill(request, *cached, /*cache_hit=*/true);
      continue;
    }
    util::MutexLock lock(mutex_);
    const auto [entry, started] = in_flight_.try_emplace(request.key);
    if (started) {
      searchers.push_back(std::move(request));
    } else {
      entry->second.push_back(std::move(request));
      ++joined_;
      ++joined;
    }
  }
  if (config_.metrics && joined > 0) {
    config_.metrics->add("serve_joined", static_cast<double>(joined));
  }
  if (searchers.empty()) return;

  const master::MasterConfig& mc = config_.master;
  std::vector<align::SearchOutcome> outcomes(searchers.size());
  try {
    if (sharded_) {
      // The distinct queries form one multi-query group: each shard chunk
      // is scanned once per query while hot, instead of one full database
      // pass per query; selection, rescan and annotation run on the merged
      // data. Profiles are built per batch: only result-cache misses get
      // here, so a profile cache would hold queries that do not come back.
      std::vector<std::unique_ptr<const align::SearchProfiles>> profiles;
      std::vector<const align::SearchProfiles*> group;
      for (const Request& searcher : searchers) {
        const seq::Sequence& query = searcher.query;
        profiles.push_back(std::make_unique<const align::SearchProfiles>(
            std::span<const std::uint8_t>(query.residues.data(),
                                          query.residues.size()),
            mc.scheme, mc.cpu_kernel, mc.cpu_backend));
        group.push_back(profiles.back().get());
      }
      align::SearchRequest request;
      request.k = mc.top_hits;
      request.filter = mc.filter;
      request.annotate = mc.annotate;
      request.stats = stats_params_.get();
      outcomes = align::search(*sharded_, group, request);
    } else {
      // One scheduler workload: the master's workers run the pipeline per
      // query, split across CPU and GPU workers.
      std::vector<seq::Sequence> queries;
      queries.reserve(searchers.size());
      for (const Request& searcher : searchers) {
        queries.push_back(searcher.query);
      }
      master::SearchReport report =
          master::run_search(queries, view_, master_config());
      for (std::size_t q = 0; q < searchers.size(); ++q) {
        outcomes[q].ranked.hits = std::move(report.results[q].hits);
        outcomes[q].filtered = mc.filter.enabled();
        outcomes[q].filter = report.results[q].filter;
      }
    }
  } catch (...) {
    // Execution failed (e.g. a task exhausted its retries): fail exactly the
    // requests that share this batch's searches and keep serving — the
    // batcher must survive.
    const std::exception_ptr error = std::current_exception();
    for (Request& searcher : searchers) {
      for (Request& request : end_search(std::move(searcher))) {
        request.promise->set_exception(error);
      }
    }
    return;
  }

  // Count the batch before fulfilling any promise: a caller that waits on
  // its future and immediately reads stats() must see this work included.
  {
    util::MutexLock lock(mutex_);
    ++batches_;
    searches_ += searchers.size();
    for (const align::SearchOutcome& outcome : outcomes) {
      filter_stats_.merge(outcome.filter);
    }
  }
  if (config_.metrics) {
    config_.metrics->add("serve_batches");
    config_.metrics->add("serve_searches",
                         static_cast<double>(searchers.size()));
  }

  // Failures are shared by the group (one pass per shard chunk).
  std::string partial_reason;
  for (const align::ShardFailure& failure : outcomes.front().failures) {
    if (!partial_reason.empty()) partial_reason += "; ";
    partial_reason += "shard " + std::to_string(failure.shard) +
                      " failed after " + std::to_string(failure.attempts) +
                      " attempts: " + failure.reason;
  }
  for (std::size_t q = 0; q < searchers.size(); ++q) {
    align::SearchOutcome& outcome = outcomes[q];
    Request& searcher = searchers[q];
    if (outcome.complete) {
      // Complete answers are deterministic across shard topology and
      // cacheable under the topology-free key. The answer is cached before
      // its key leaves the in-flight table, so a late duplicate hits the
      // cache or joins; one that slips between the two steps searches again,
      // which is harmless.
      const auto value = results_.insert(
          searcher.key, std::make_shared<const std::vector<align::SearchHit>>(
                            std::move(outcome.ranked.hits)));
      for (Request& request : end_search(std::move(searcher))) {
        fulfill(request, *value, /*cache_hit=*/false, {}, outcome.filter);
      }
    } else {
      // Partial answers never enter the cache: a later request at a healthy
      // moment deserves the complete result.
      for (Request& request : end_search(std::move(searcher))) {
        fulfill(request, outcome.ranked.hits, /*cache_hit=*/false,
                partial_reason, outcome.filter);
      }
    }
  }
}

std::vector<QueryService::Request> QueryService::end_search(Request searcher) {
  std::vector<Request> requests;
  requests.push_back(std::move(searcher));
  util::MutexLock lock(mutex_);
  auto entry = in_flight_.extract(requests.front().key);
  for (Request& joiner : entry.mapped()) {
    requests.push_back(std::move(joiner));
  }
  return requests;
}

QueryService::Stats QueryService::stats() const {
  Stats stats;
  {
    util::MutexLock lock(mutex_);
    stats.accepted = accepted_;
    stats.rejected_queue_full = rejected_queue_full_;
    stats.rejected_shutdown = rejected_shutdown_;
    stats.batches = batches_;
    stats.searches = searches_;
    stats.joined = joined_;
    stats.partial_responses = partial_responses_;
    stats.filter = filter_stats_;
  }
  stats.results = results_.stats();
  if (sharded_) stats.shards = sharded_->stats();
  return stats;
}

}  // namespace swdual::serve
