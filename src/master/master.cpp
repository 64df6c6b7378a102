#include "master/master.h"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "check/bounds.h"
#include "check/trace_check.h"
#include "master/worker.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "platform/des.h"
#include "sched/baselines.h"
#include "sched/dual_approx.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::master {

const char* policy_name(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kSwdual: return "swdual";
    case AllocationPolicy::kSwdualRefined: return "swdual-refined";
    case AllocationPolicy::kSelfScheduling: return "self-scheduling";
    case AllocationPolicy::kEqualPower: return "equal-power";
    case AllocationPolicy::kProportional: return "proportional";
    case AllocationPolicy::kLpt: return "lpt";
  }
  return "unknown";
}

namespace {

/// Map a schedule PE to the worker id convention: GPUs register first
/// (ids 0..k-1), CPUs after (ids k..k+m-1), as in the paper's experiments.
std::size_t worker_for(const sched::PeId& pe, std::size_t gpu_workers) {
  return pe.type == sched::PeType::kGpu ? pe.index : gpu_workers + pe.index;
}

}  // namespace

SearchReport run_search(const std::vector<seq::Sequence>& queries,
                        const std::vector<seq::Sequence>& db,
                        const MasterConfig& config) {
  // The engine only ever needs residue views; materialized records just
  // borrow through them (Fig. 6 "acquire sequences").
  return run_search(queries, align::make_db_view(db), config);
}

SearchReport run_search(const std::vector<seq::Sequence>& queries,
                        const align::DbView& db_view,
                        const MasterConfig& config) {
  SWDUAL_REQUIRE(config.cpu_workers + config.gpu_workers > 0,
                 "need at least one worker");
  // Every task is one query through the search pipeline: a worker ranks,
  // filters and annotates its query's answer, so the merge below only
  // collects. Validated here, on the caller's thread.
  align::SearchRequest request;
  request.k = config.top_hits;
  request.filter = config.filter;
  request.annotate = config.annotate;
  request.stats = config.stats;
  request.validate();
  SearchReport report;
  if (queries.empty()) return report;

  WallTimer wall;

  const std::uint64_t db_residues = align::db_residue_count(db_view);

  std::vector<sched::Task> tasks;
  tasks.reserve(queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::uint64_t cells =
        static_cast<std::uint64_t>(queries[q].length()) * db_residues;
    tasks.push_back(config.model.make_task(q, cells));
  }

  const sched::HybridPlatform platform{config.cpu_workers,
                                       config.gpu_workers};

  // --- Allocate tasks (Fig. 6, "Allocation policies"). ---
  const bool dynamic = config.policy == AllocationPolicy::kSelfScheduling;
  const auto plan_batch =
      [&config, &platform](const std::vector<sched::Task>& batch) {
        sched::DualSearchStats stats;
        const auto note_lambda = [&config, &stats] {
          if (config.metrics) {
            config.metrics->observe("lambda_iterations",
                                    static_cast<double>(stats.iterations));
          }
        };
        switch (config.policy) {
          case AllocationPolicy::kSwdual: {
            sched::Schedule s = sched::swdual_schedule(
                batch, platform, 1e-3, &stats, config.tracer);
            note_lambda();
            return s;
          }
          case AllocationPolicy::kSwdualRefined: {
            sched::Schedule s = sched::swdual_schedule_refined(
                batch, platform, 1e-3, &stats, config.tracer);
            note_lambda();
            return s;
          }
          case AllocationPolicy::kEqualPower:
            return sched::equal_power(batch, platform);
          case AllocationPolicy::kProportional:
            return sched::proportional_static(batch, platform);
          case AllocationPolicy::kLpt:
            return sched::lpt_hybrid(batch, platform);
          case AllocationPolicy::kSelfScheduling:
            break;  // decided at run time, one task per pull
        }
        return sched::Schedule{};
      };

  // --- Register slaves, dispatch, execute. ---
  WorkerContext context;
  context.queries = &queries;
  context.db = &db_view;
  context.scheme = config.scheme;
  context.model = config.model;
  context.cpu_kernel = config.cpu_kernel;
  // Resolve the SIMD backend once, here on the caller's thread: a bad
  // --backend or SWDUAL_FORCE_BACKEND surfaces as a clean configuration
  // error instead of an exception escaping a worker thread. The workers
  // get the configured backend itself, so kAuto profiles scan on
  // best_backend(kernel) and screen on best_backend(), as everywhere else.
  static_cast<void>(
      align::resolve_backend(config.cpu_backend, config.cpu_kernel));
  context.cpu_backend = config.cpu_backend;
  context.request = request;
  context.profile_cache = config.profile_cache;
  context.fault_injector = config.fault_injector;
  context.tracer = config.tracer;
  context.metrics = config.metrics;

  ConcurrentQueue<TaskReport> results;
  std::vector<std::unique_ptr<Worker>> workers;
  for (std::size_t g = 0; g < config.gpu_workers; ++g) {
    workers.push_back(std::make_unique<Worker>(
        workers.size(), sched::PeId{sched::PeType::kGpu, g}, context,
        results));
  }
  for (std::size_t c = 0; c < config.cpu_workers; ++c) {
    workers.push_back(std::make_unique<Worker>(
        workers.size(), sched::PeId{sched::PeType::kCpu, c}, context,
        results));
  }

  sched::Schedule plan;  // union of all rounds' plans, for the report
  std::vector<TaskReport> collected;
  collected.reserve(tasks.size());

  const auto note_dispatch = [&config](std::size_t worker_id,
                                       std::size_t task_id) {
    if (config.metrics) config.metrics->add("tasks_dispatched");
    if (config.tracer) {
      config.tracer->instant("dispatch", "master", obs::kMasterTrack,
                             {{"task_id", static_cast<double>(task_id)},
                              {"worker", static_cast<double>(worker_id)}});
    }
  };

  // Failure handling: a failed report (an injected fault or a task that
  // threw) is reassigned to the next worker in registration order (a
  // different one than the failing worker whenever the platform has more
  // than one), bounded by max_task_retries per task; past that, the run
  // throws here, on the caller's thread, with the last attempt's error.
  std::map<std::size_t, std::size_t> retries;
  const auto handle_failure = [&](const TaskReport& r) {
    const std::size_t attempt = ++retries[r.task_id];
    SWDUAL_CHECK(attempt <= config.max_task_retries,
                 "task " + std::to_string(r.task_id) + " failed " +
                     std::to_string(attempt) + " times — giving up: " +
                     r.error);
    const std::size_t target = (r.worker_id + 1) % workers.size();
    if (config.metrics) config.metrics->add("task_retries");
    if (config.tracer) {
      config.tracer->instant("retry", "retry", obs::kMasterTrack,
                             {{"task_id", static_cast<double>(r.task_id)},
                              {"attempt", static_cast<double>(attempt)},
                              {"failed_worker",
                               static_cast<double>(r.worker_id)},
                              {"target_worker", static_cast<double>(target)}});
    }
    note_dispatch(target, r.task_id);
    SWDUAL_CHECK(workers[target]->assign({r.task_id, r.query_index}),
                 "no worker available for failed-task reassignment");
  };

  if (dynamic) {
    // Fully iterative: prime every worker with one task; refill on
    // completion. Worker shutdown is handled by the destructors once every
    // result has arrived.
    std::size_t next_task = 0;
    for (auto& worker : workers) {
      if (next_task >= tasks.size()) break;
      note_dispatch(worker->id(), next_task);
      SWDUAL_CHECK(worker->assign({next_task, next_task}),
                   "worker rejected initial task assignment");
      ++next_task;
    }
    obs::Span collect_span;
    if (config.tracer) {
      collect_span =
          config.tracer->span("collect", "master", obs::kMasterTrack);
      collect_span.arg("tasks", static_cast<double>(tasks.size()));
    }
    while (collected.size() < tasks.size()) {
      auto r = results.pop();
      SWDUAL_CHECK(r.has_value(), "result stream ended early");
      if (next_task < tasks.size()) {
        note_dispatch(r->worker_id, next_task);
        SWDUAL_CHECK(workers[r->worker_id]->assign({next_task, next_task}),
                     "worker rejected self-scheduled task");
        ++next_task;
      }
      if (r->failed) {
        handle_failure(*r);
      } else {
        collected.push_back(std::move(*r));
      }
    }
  } else {
    // Static dispatch in one or more rounds: schedule a batch, send each
    // worker its list in planned start order, collect, repeat.
    const std::size_t rounds =
        std::clamp<std::size_t>(config.rounds, 1, tasks.size());
    const std::size_t batch_size = (tasks.size() + rounds - 1) / rounds;
    for (std::size_t begin = 0; begin < tasks.size(); begin += batch_size) {
      const std::size_t end = std::min(begin + batch_size, tasks.size());
      const std::vector<sched::Task> batch(
          tasks.begin() + static_cast<std::ptrdiff_t>(begin),
          tasks.begin() + static_cast<std::ptrdiff_t>(end));
      const double round_index =
          static_cast<double>(begin / batch_size);
      obs::Span schedule_span;
      if (config.tracer) {
        schedule_span =
            config.tracer->span("schedule", "master", obs::kMasterTrack);
        schedule_span.arg("round", round_index);
        schedule_span.arg("tasks", static_cast<double>(batch.size()));
      }
      sched::Schedule round_plan = plan_batch(batch);
      schedule_span.finish();
      if (config.validate_contracts) {
        // Contract layer (debug flag): the plan must be structurally sound,
        // the dual-approximation policies must honor their certified bound,
        // and the DES must replay the plan exactly.
        sched::validate_schedule(round_plan, batch, platform);
        if (config.policy == AllocationPolicy::kSwdual ||
            config.policy == AllocationPolicy::kSwdualRefined) {
          check::check_approximation_bound(round_plan, batch, platform,
                                           check::kDualApproxFactor);
        }
        check::cross_validate_trace(
            platform::simulate_static(round_plan, batch, platform),
            round_plan, batch, platform);
      }
      std::vector<sched::Assignment> ordered(round_plan.assignments());
      std::sort(ordered.begin(), ordered.end(),
                [](const sched::Assignment& a, const sched::Assignment& b) {
                  return a.start < b.start;
                });
      for (const sched::Assignment& a : ordered) {
        const std::size_t worker = worker_for(a.pe, config.gpu_workers);
        note_dispatch(worker, a.task_id);
        SWDUAL_CHECK(workers[worker]->assign({a.task_id, a.task_id}),
                     "worker rejected planned task assignment");
        plan.add(a);
      }
      obs::Span collect_span;
      if (config.tracer) {
        collect_span =
            config.tracer->span("collect", "master", obs::kMasterTrack);
        collect_span.arg("round", round_index);
      }
      const std::size_t target = collected.size() + batch.size();
      while (collected.size() < target) {
        auto r = results.pop();
        SWDUAL_CHECK(r.has_value(), "result stream ended early");
        if (r->failed) {
          handle_failure(*r);
        } else {
          collected.push_back(std::move(*r));
        }
      }
    }
    for (auto& worker : workers) worker->shutdown();
  }
  workers.clear();  // joins all threads

  obs::Span merge_span;
  if (config.tracer) {
    merge_span = config.tracer->span("merge", "master", obs::kMasterTrack);
    merge_span.arg("reports", static_cast<double>(collected.size()));
  }
  report.results.resize(queries.size());
  for (TaskReport& r : collected) {
    report.total_cells += r.cells;
    report.worker_virtual_busy[r.worker_id] += r.virtual_seconds;
    QueryResult& query_result = report.results[r.query_index];
    query_result.query_index = r.query_index;
    query_result.hits = std::move(r.hits);
    query_result.filter = r.filter;
    report.filter.merge(r.filter);
  }
  merge_span.finish();

  double busy_sum = 0.0;
  for (const auto& [worker_id, busy] : report.worker_virtual_busy) {
    report.virtual_makespan = std::max(report.virtual_makespan, busy);
    busy_sum += busy;
  }
  const double capacity =
      report.virtual_makespan * static_cast<double>(platform.total());
  report.virtual_idle_fraction =
      capacity > 0 ? (capacity - busy_sum) / capacity : 0.0;
  report.virtual_gcups =
      report.virtual_makespan > 0
          ? static_cast<double>(report.total_cells) /
                report.virtual_makespan / 1e9
          : 0.0;
  report.planned = std::move(plan);
  report.wall_seconds = wall.seconds();
  return report;
}

}  // namespace swdual::master
