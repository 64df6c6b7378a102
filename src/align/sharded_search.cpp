#include "align/sharded_search.h"

#include <algorithm>
#include <exception>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace swdual::align {

double ShardPlan::imbalance() const {
  if (shards.empty()) return 0.0;
  std::uint64_t max_load = 0;
  std::uint64_t sum = 0;
  for (const Shard& shard : shards) {
    max_load = std::max(max_load, shard.residues);
    sum += shard.residues;
  }
  if (sum == 0) return 0.0;
  const double mean =
      static_cast<double>(sum) / static_cast<double>(shards.size());
  return static_cast<double>(max_load) / mean - 1.0;
}

ShardPlan plan_shards(std::span<const std::uint32_t> lengths,
                      std::size_t num_shards) {
  ShardPlan plan;
  const std::size_t n = lengths.size();
  if (n == 0) return plan;
  num_shards = std::clamp<std::size_t>(num_shards, 1, n);
  plan.shards.resize(num_shards);

  // Longest-first visit order (ties by record id — the same tie-break the
  // SWDB lane-batch index uses, so shard record lists line up with the
  // inter-sequence kernel's preferred batching).
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&lengths](std::uint32_t a, std::uint32_t b) {
                     return lengths[a] > lengths[b];
                   });

  for (const std::uint32_t id : order) {
    // Lightest shard so far, ties to the lowest index: deterministic LPT.
    std::size_t best = 0;
    for (std::size_t s = 1; s < num_shards; ++s) {
      if (plan.shards[s].residues < plan.shards[best].residues) best = s;
    }
    const std::uint64_t cost = std::max<std::uint64_t>(lengths[id], 1);
    plan.shards[best].records.push_back(id);
    plan.shards[best].residues += cost;
    plan.total_residues += cost;
  }
  // Record lists in ascending database order: a shard's local record order
  // then agrees with global order, so per-shard top-k heaps break score
  // ties exactly the way the unsharded search does (smallest database index
  // wins) — the invariant the scatter-gather merge depends on.
  for (ShardPlan::Shard& shard : plan.shards) {
    std::sort(shard.records.begin(), shard.records.end());
  }
  return plan;
}

ShardPlan plan_shards(const DbView& db, std::size_t num_shards) {
  std::vector<std::uint32_t> lengths;
  lengths.reserve(db.size());
  for (const auto& record : db) {
    lengths.push_back(static_cast<std::uint32_t>(record.size()));
  }
  return plan_shards(lengths, num_shards);
}

struct ShardedSearchEngine::ShardState {
  DbView view;  ///< shard records, ascending database order (shared storage)
  std::unique_ptr<ParallelSearchEngine> engine;
};

ShardedSearchEngine::ShardedSearchEngine(const DbView& db,
                                         const ShardedSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}),
      options_(options) {
  plan_ = plan_shards(db, options_.num_shards);
  init(db);
}

ShardedSearchEngine::ShardedSearchEngine(
    std::shared_ptr<const seq::MappedSwdb> db,
    const ShardedSearchOptions& options)
    : SearchEngine({options.tracer, options.metrics, options.trace_track}),
      options_(options),
      mapped_(std::move(db)) {
  SWDUAL_REQUIRE(mapped_ != nullptr, "mapped database must not be null");
  plan_ = plan_shards(mapped_->lengths(), options_.num_shards);
  init(mapped_->residue_views());
}

ShardedSearchEngine::~ShardedSearchEngine() = default;

void ShardedSearchEngine::init(const DbView& db) {
  db_records_ = db.size();
  global_view_ = db;  // span copies; candidate rescans read through it
  db_residues_ = db_residue_count(global_view_);
  shards_.reserve(plan_.shards.size());
  for (const ShardPlan::Shard& shard_plan : plan_.shards) {
    auto state = std::make_unique<ShardState>();
    state->view.reserve(shard_plan.records.size());
    for (const std::uint32_t id : shard_plan.records) {
      state->view.push_back(db[id]);
    }
    ParallelSearchOptions engine_options;
    engine_options.threads = std::max<std::size_t>(1, options_.threads_per_shard);
    engine_options.tracer = options_.tracer;
    engine_options.metrics = options_.metrics;
    engine_options.trace_track = options_.trace_track;
    // The shard view is in ascending database order (the merge-discipline
    // invariant); the engine re-sorts longest-first internally for the
    // inter-sequence lane batches and inverse-permutes results back.
    state->engine =
        std::make_unique<ParallelSearchEngine>(state->view, engine_options);
    shards_.push_back(std::move(state));
  }
  if (shards_.size() > 1) {
    scatter_pool_ = std::make_unique<ThreadPool>(shards_.size());
  }
}

std::vector<std::uint8_t> ShardedSearchEngine::scatter(
    std::size_t queries, bool screen,
    const std::function<void(const SearchEngine&, std::size_t)>& pass,
    std::vector<ShardFailure>& failures) const {
  {
    util::MutexLock lock(stats_mutex_);
    ++stats_.group_passes;
  }
  if (options_.metrics) {
    options_.metrics->add("serve_shard_group_passes");
    options_.metrics->observe("serve_shard_group_queries",
                              static_cast<double>(queries));
  }
  // The retry ladder, one shard at a time: its own engine first, then the
  // serial engine over the shard's view on this thread — independent of
  // the shard's engine/pool, same results by construction.
  std::vector<ShardFailure> attempts(shards_.size());
  std::vector<std::uint8_t> ok(shards_.size(), 0);
  const auto ladder = [&](std::size_t s) {
    const ShardState& shard = *shards_[s];
    ShardFailure& failure = attempts[s];
    failure.shard = s;
    failure.records = plan_.shards[s].records;
    for (std::size_t attempt = 0; attempt <= options_.max_shard_retries;
         ++attempt) {
      ++failure.attempts;
      obs::Span span;
      if (options_.tracer) {
        span = options_.tracer->span("shard_scan", "shard",
                                     options_.trace_track);
        span.arg("shard", static_cast<double>(s));
        span.arg("attempt", static_cast<double>(attempt));
        span.arg("records", static_cast<double>(shard.view.size()));
        span.arg("queries", static_cast<double>(queries));
        if (screen) span.arg("screen", 1.0);
      }
      WallTimer timer;
      try {
        if (options_.before_shard) options_.before_shard(s, attempt);
        if (attempt == 0) {
          pass(*shard.engine, s);
        } else {
          pass(SerialSearchEngine(shard.view), s);
        }
        ok[s] = 1;
      } catch (const std::exception& error) {
        failure.reason = error.what();
      } catch (...) {
        failure.reason = "unknown shard failure";
      }
      const bool retrying = !ok[s] && attempt < options_.max_shard_retries;
      if (options_.metrics) {
        if (ok[s]) {
          options_.metrics->add("serve_shard_scans");
          options_.metrics->observe("serve_shard_scan_seconds",
                                    timer.seconds());
        } else {
          options_.metrics->add(retrying ? "serve_shard_retries"
                                         : "serve_shard_failures");
        }
      }
      {
        util::MutexLock lock(stats_mutex_);
        ++(ok[s] ? stats_.scans : retrying ? stats_.retries : stats_.failures);
      }
      if (ok[s]) return;
    }
  };
  if (scatter_pool_) {
    parallel_for(*scatter_pool_, shards_.size(), ladder);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) ladder(s);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!ok[s]) failures.push_back(std::move(attempts[s]));
  }
  return ok;
}

std::vector<RankedSearchResult> ShardedSearchEngine::scan(
    std::span<const SearchProfiles* const> group, std::size_t k,
    std::vector<ShardFailure>& failures) const {
  std::vector<std::vector<RankedSearchResult>> per_shard(shards_.size());
  const std::vector<std::uint8_t> ok = scatter(
      group.size(), false,
      [&](const SearchEngine& engine, std::size_t s) {
        std::vector<ShardFailure> none;
        per_shard[s] = engine.scan(group, k, none);
      },
      failures);

  // Gather: scatter shard-local scores back to database order and merge the
  // per-shard top-k heaps in shard order. Shard-local hit indices become
  // global ones through the plan's record list (ascending, so ties resolve
  // by global index and the ranking matches the unsharded search).
  std::vector<RankedSearchResult> results(group.size());
  for (RankedSearchResult& result : results) {
    result.result.scores.assign(db_records_, 0);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!ok[s]) continue;
    const std::vector<std::uint32_t>& records = plan_.shards[s].records;
    for (std::size_t q = 0; q < group.size(); ++q) {
      RankedSearchResult& result = results[q];
      const RankedSearchResult& shard_ranked = per_shard[s][q];
      for (std::size_t i = 0; i < records.size(); ++i) {
        result.result.scores[records[i]] = shard_ranked.result.scores[i];
      }
      result.result.cells += shard_ranked.result.cells;
      result.result.overflow_rescans += shard_ranked.result.overflow_rescans;
      for (const SearchHit& hit : shard_ranked.hits) {
        push_top_hit(result.hits, {records[hit.db_index], hit.score}, k);
      }
    }
  }
  for (RankedSearchResult& result : results) finish_top_hits(result.hits);
  return results;
}

std::vector<ScreenResult> ShardedSearchEngine::screen(
    std::span<const SearchProfiles* const> group, std::size_t band,
    std::vector<ShardFailure>& failures) const {
  std::vector<std::vector<ScreenResult>> per_shard(shards_.size());
  const std::vector<std::uint8_t> ok = scatter(
      group.size(), true,
      [&](const SearchEngine& engine, std::size_t s) {
        std::vector<ShardFailure> none;
        per_shard[s] = engine.screen(group, band, none);
      },
      failures);

  // Gather the screens to database order. Records of failed shards keep
  // score 0 with the exact certificate set, so they are never rescanned.
  std::vector<ScreenResult> screens(group.size());
  for (ScreenResult& screen : screens) {
    screen.scores.assign(db_records_, 0);
    screen.exact.assign(db_records_, 1);
    screen.edge_hit.assign(db_records_, 0);
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (!ok[s]) continue;
    const std::vector<std::uint32_t>& records = plan_.shards[s].records;
    for (std::size_t q = 0; q < group.size(); ++q) {
      ScreenResult& screen = screens[q];
      const ScreenResult& shard_screen = per_shard[s][q];
      for (std::size_t i = 0; i < records.size(); ++i) {
        screen.scores[records[i]] = shard_screen.scores[i];
        screen.exact[records[i]] = shard_screen.exact[i];
        screen.edge_hit[records[i]] = shard_screen.edge_hit[i];
      }
      screen.cells += shard_screen.cells;
    }
  }
  return screens;
}

std::vector<ShardedSearchResult> ShardedSearchEngine::search_many(
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
    Backend backend) const {
  return search_many_filtered(queries, scheme, kernel, k, FilterConfig{},
                              backend);
}

std::vector<ShardedSearchResult> ShardedSearchEngine::search_many_filtered(
    std::span<const std::span<const std::uint8_t>> queries,
    const ScoringScheme& scheme, KernelKind kernel, std::size_t k,
    const FilterConfig& config, Backend backend) const {
  // One profile set per query, shared read-only by every shard.
  std::vector<std::unique_ptr<SearchProfiles>> profiles;
  std::vector<const SearchProfiles*> group;
  profiles.reserve(queries.size());
  for (const auto& query : queries) {
    SWDUAL_REQUIRE(!query.empty(), "cannot search with an empty query");
    profiles.push_back(
        std::make_unique<SearchProfiles>(query, scheme, kernel, backend));
    group.push_back(profiles.back().get());
  }
  SearchRequest request;
  request.k = k;
  request.filter = config;
  return search(*this, group, request);
}

ShardedSearchEngine::Stats ShardedSearchEngine::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace swdual::align
