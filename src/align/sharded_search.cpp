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

/// Cut `order` (record ids, longest first) into min(num_shards, records)
/// contiguous non-empty runs whose largest residue load is as small as it
/// can be; `length(id)` is record id's residue count, empty records load 1.
template <typename Length>
ShardPlan cut_runs(std::span<const std::uint32_t> order,
                   std::size_t num_shards, const Length& length) {
  ShardPlan plan;
  const std::size_t n = order.size();
  if (n == 0) return plan;
  num_shards = std::clamp<std::size_t>(num_shards, 1, n);
  std::vector<std::uint64_t> load(n);
  for (std::size_t i = 0; i < n; ++i) {
    load[i] = std::max<std::uint64_t>(length(order[i]), 1);
    plan.total_residues += load[i];
  }
  // Runs of a greedy fill under `capacity`: the fewest any cut can manage.
  const auto runs_within = [&](std::uint64_t capacity) {
    std::size_t runs = 1;
    std::uint64_t run_load = 0;
    for (const std::uint64_t l : load) {
      if (run_load + l > capacity) {
        ++runs;
        run_load = 0;
      }
      run_load += l;
    }
    return runs;
  };
  // The smallest capacity that num_shards greedy runs can hold.
  std::uint64_t low = *std::max_element(load.begin(), load.end());
  std::uint64_t high = plan.total_residues;
  while (low < high) {
    const std::uint64_t mid = low + (high - low) / 2;
    if (runs_within(mid) <= num_shards) {
      high = mid;
    } else {
      low = mid + 1;
    }
  }
  // Fill greedily under it, closing a run early when the records left are
  // only enough for one per remaining shard.
  plan.shards.resize(num_shards);
  std::size_t s = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ShardPlan::Shard& run = plan.shards[s];
    if (!run.records.empty() &&
        (run.residues + load[i] > low || n - i < num_shards - s)) {
      ++s;
    }
    plan.shards[s].records.push_back(order[i]);
    plan.shards[s].residues += load[i];
  }
  // Record lists in ascending database order, the form in which
  // ShardFailure::records reports a failed shard.
  for (ShardPlan::Shard& shard : plan.shards) {
    std::sort(shard.records.begin(), shard.records.end());
  }
  return plan;
}

/// Each shard's record count: the runs of the chunked engine's layout.
std::vector<std::size_t> run_lengths(const ShardPlan& plan) {
  std::vector<std::size_t> runs;
  for (const ShardPlan::Shard& shard : plan.shards) {
    runs.push_back(shard.records.size());
  }
  return runs;
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
  // Longest first, ties by record id: the order of the chunked engine's
  // layout.
  std::vector<std::uint32_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&lengths](std::uint32_t a, std::uint32_t b) {
                     return lengths[a] > lengths[b];
                   });
  return cut_runs(order, num_shards,
                  [&lengths](std::uint32_t id) { return lengths[id]; });
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
    : ParallelSearchEngine(db, longest_first, run_lengths(plan),
                           options.threads_per_shard,
                           {options.tracer, options.metrics}),
      options_(options),
      plan_(std::move(plan)) {
  // The layout cut `longest_first` into runs of the shards' sizes; each run
  // must hold exactly its shard's records, or a failed shard would drop the
  // wrong chunks.
  std::size_t begin = 0;
  for (std::size_t s = 0; s < plan_.shards.size(); ++s) {
    const std::vector<std::uint32_t>& records = plan_.shards[s].records;
    const auto run = longest_first.subspan(begin, records.size());
    std::vector<std::uint32_t> ids(run.begin(), run.end());
    std::sort(ids.begin(), ids.end());
    SWDUAL_CHECK(ids == records,
                 "shard " + std::to_string(s) + " is not its layout run");
    begin += records.size();
  }
}

ShardedSearchEngine::ShardedSearchEngine(const DbView& db,
                                         const ShardedSearchOptions& options)
    : ShardedSearchEngine(db, longest_first(db), options) {}

ShardedSearchEngine::ShardedSearchEngine(
    std::shared_ptr<const seq::MappedSwdb> db,
    const ShardedSearchOptions& options)
    : ShardedSearchEngine(require_mapped(db).residue_views(), options) {
  mapped_ = std::move(db);
}

ShardedSearchEngine::ShardedSearchEngine(
    const DbView& db, std::span<const std::uint32_t> longest_first,
    const ShardedSearchOptions& options)
    : ShardedSearchEngine(
          db, longest_first,
          cut_runs(longest_first, options.num_shards,
                   [&db](std::uint32_t id) { return db[id].size(); }),
          options) {}

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
  // Each shard's chunks, in the pass's order (which may interleave shards).
  const std::size_t num_shards = plan_.shards.size();
  std::vector<std::vector<std::size_t>> owned(num_shards);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    owned[chunks[c].shard].push_back(c);
  }

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
      if (c == owned[s].front() && options_.before_shard) {
        options_.before_shard(s, 0);
      }
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
    for (const std::size_t c : owned[s]) {
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
        for (const std::size_t c : owned[s]) run(c);
      });
      note(s, attempt, start, pass_timer.seconds(), !error);
    }
    if (error) {
      for (const std::size_t c : owned[s]) merged[c] = 0;
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
