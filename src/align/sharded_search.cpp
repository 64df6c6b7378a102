#include "align/sharded_search.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::align {

namespace {

/// The shard of each of `records` records: the chunked engine's layout.
std::vector<std::uint32_t> shard_of(const ShardPlan& plan,
                                    std::size_t records) {
  std::vector<std::uint32_t> out(records);
  for (std::uint32_t s = 0; s < plan.shards.size(); ++s) {
    for (const std::uint32_t id : plan.shards[s].records) out[id] = s;
  }
  return out;
}

const seq::MappedSwdb& require_mapped(
    const std::shared_ptr<const seq::MappedSwdb>& db) {
  SWDUAL_REQUIRE(db != nullptr, "mapped database must not be null");
  return *db;
}

/// Run one shard attempt: nullopt when it returned, else what() of the
/// exception it threw.
template <typename Attempt>
std::optional<std::string> failure_of(const Attempt& attempt) {
  try {
    attempt();
    return std::nullopt;
  } catch (const std::exception& error) {
    return std::string(error.what());
  } catch (...) {
    return std::string("unknown shard failure");
  }
}

}  // namespace

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
  // Record lists in ascending database order: a search over one shard's
  // records (the serve layer's rescue of a failed shard) then breaks score
  // ties exactly the way the unsharded search does (smallest database index
  // wins).
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

ShardedSearchEngine::ShardedSearchEngine(
    const DbView& db, std::span<const std::uint32_t> longest_first,
    ShardPlan plan, const ShardedSearchOptions& options)
    : ParallelSearchEngine(
          db, longest_first, shard_of(plan, db.size()),
          options.threads_per_shard,
          {options.tracer, options.metrics, options.trace_track}),
      options_(options),
      plan_(std::move(plan)) {}

ShardedSearchEngine::ShardedSearchEngine(const DbView& db,
                                         const ShardedSearchOptions& options)
    : ShardedSearchEngine(db, longest_first(db),
                          plan_shards(db, options.num_shards), options) {}

ShardedSearchEngine::ShardedSearchEngine(
    std::shared_ptr<const seq::MappedSwdb> db,
    const ShardedSearchOptions& options)
    : ShardedSearchEngine(
          require_mapped(db).residue_views(), require_mapped(db).lane_order(),
          plan_shards(require_mapped(db).lengths(), options.num_shards),
          options) {
  mapped_ = std::move(db);
}

std::vector<std::uint8_t> ShardedSearchEngine::run_chunks(
    std::span<const Chunk> chunks, std::size_t queries, bool screen,
    const std::function<void(std::size_t)>& run,
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
  // Chunks come in shard order: shard s owns chunks [first[s], first[s+1]).
  const std::size_t num_shards = plan_.shards.size();
  std::vector<std::size_t> first(num_shards + 1, chunks.size());
  for (std::size_t c = chunks.size(); c-- > 0;) first[chunks[c].shard] = c;

  // One outcome per shard attempt: a shard_scan span over [start, end] on
  // the pass clock, the serve_shard_* metrics and Stats.
  WallTimer pass_timer;
  const double epoch = options_.tracer ? options_.tracer->now() : 0.0;
  const auto note = [&](std::size_t s, std::size_t attempt, double start,
                        double end, bool ok) {
    const bool retrying = !ok && attempt < options_.max_shard_retries;
    if (options_.tracer) {
      obs::TraceEvent event;
      event.name = "shard_scan";
      event.category = "shard";
      event.track = options_.trace_track;
      event.start = epoch + start;
      event.end = epoch + end;
      event.args = {
          {"shard", static_cast<double>(s)},
          {"attempt", static_cast<double>(attempt)},
          {"records", static_cast<double>(plan_.shards[s].records.size())},
          {"queries", static_cast<double>(queries)}};
      if (screen) event.args.emplace_back("screen", 1.0);
      options_.tracer->record(std::move(event));
    }
    if (options_.metrics) {
      if (ok) {
        options_.metrics->add("serve_shard_scans");
        options_.metrics->observe("serve_shard_scan_seconds", end - start);
      } else {
        options_.metrics->add(retrying ? "serve_shard_retries"
                                       : "serve_shard_failures");
      }
    }
    util::MutexLock lock(stats_mutex_);
    ++(ok ? stats_.scans : retrying ? stats_.retries : stats_.failures);
  };

  // Attempt 0: every chunk of every shard on the pool, each shard's hook at
  // the start of its first chunk.
  std::vector<std::optional<std::string>> errors(chunks.size());
  std::vector<std::pair<double, double>> times(chunks.size());
  parallel_for(chunks.size(), [&](std::size_t c) {
    const std::size_t s = chunks[c].shard;
    times[c].first = pass_timer.seconds();
    errors[c] = failure_of([&] {
      if (c == first[s] && options_.before_shard) options_.before_shard(s, 0);
      run(c);
    });
    times[c].second = pass_timer.seconds();
  });

  // The ladder: a shard whose hook or chunk threw reruns all its chunks
  // inline, its hook first, until one attempt succeeds or the budget ends.
  std::vector<std::uint8_t> merged(chunks.size(), 1);
  for (std::size_t s = 0; s < num_shards; ++s) {
    ShardFailure failure;
    failure.shard = s;
    failure.attempts = 1;
    failure.records = plan_.shards[s].records;
    double start = std::numeric_limits<double>::infinity();
    double end = 0.0;
    std::optional<std::string> error;
    for (std::size_t c = first[s]; c < first[s + 1]; ++c) {
      start = std::min(start, times[c].first);
      end = std::max(end, times[c].second);
      if (!error) error = errors[c];
    }
    note(s, 0, start, end, !error);
    while (error && failure.attempts <= options_.max_shard_retries) {
      const std::size_t attempt = failure.attempts++;
      start = pass_timer.seconds();
      error = failure_of([&] {
        if (options_.before_shard) options_.before_shard(s, attempt);
        for (std::size_t c = first[s]; c < first[s + 1]; ++c) run(c);
      });
      note(s, attempt, start, pass_timer.seconds(), !error);
    }
    if (error) {
      for (std::size_t c = first[s]; c < first[s + 1]; ++c) merged[c] = 0;
      failure.reason = std::move(*error);
      failures.push_back(std::move(failure));
    }
  }
  return merged;
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
  return align::search(*this, group, request);
}

ShardedSearchEngine::Stats ShardedSearchEngine::stats() const {
  util::MutexLock lock(stats_mutex_);
  return stats_;
}

}  // namespace swdual::align
