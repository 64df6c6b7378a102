#include "core/apps.h"

#include "sched/dual_approx.h"
#include "util/error.h"

namespace swdual::core {

const char* app_name(AppKind app) {
  switch (app) {
    case AppKind::kSwps3: return "SWPS3";
    case AppKind::kStriped: return "STRIPED";
    case AppKind::kSwipe: return "SWIPE";
    case AppKind::kCudasw: return "CUDASW++";
    case AppKind::kSwdual: return "SWDUAL";
    case AppKind::kSwdualRefined: return "SWDUAL-refined";
  }
  return "unknown";
}

namespace {

AppRunResult from_trace(const platform::ExecutionTrace& trace,
                        const Workload& workload,
                        const sched::HybridPlatform& platform) {
  AppRunResult result;
  result.virtual_seconds = trace.makespan;
  result.gcups = trace.makespan > 0
                     ? static_cast<double>(workload.total_cells()) /
                           trace.makespan / 1e9
                     : 0.0;
  result.idle_fraction = trace.idle_fraction(platform);
  return result;
}

/// Single-PE-class run: every task costs its class time; self-scheduled.
AppRunResult homogeneous_run(const Workload& workload,
                             const platform::WorkerClass& worker_class,
                             std::size_t workers, sched::PeType type) {
  SWDUAL_REQUIRE(workers >= 1, "need at least one worker");
  std::vector<sched::Task> tasks;
  tasks.reserve(workload.query_lengths.size());
  for (std::size_t q = 0; q < workload.query_lengths.size(); ++q) {
    const double seconds = worker_class.seconds_for(workload.cells(q));
    tasks.push_back({q, seconds, seconds});
  }
  const sched::HybridPlatform platform =
      type == sched::PeType::kCpu
          ? sched::HybridPlatform{workers, 0}
          : sched::HybridPlatform{0, workers};
  return from_trace(
      platform::simulate_self_scheduling(tasks, platform), workload, platform);
}

}  // namespace

AppRunResult run_swdual_virtual(const Workload& workload,
                                const sched::HybridPlatform& platform,
                                const platform::PerfModel& model,
                                bool refined) {
  const std::vector<sched::Task> tasks =
      make_tasks(workload, model.cpu_worker(), model.gpu_worker());
  const sched::Schedule plan =
      refined ? sched::swdual_schedule_refined(tasks, platform)
              : sched::swdual_schedule(tasks, platform);
  return from_trace(platform::simulate_static(plan, tasks, platform),
                    workload, platform);
}

AppRunResult run_app_virtual(AppKind app, const Workload& workload,
                             std::size_t workers,
                             const platform::PerfModel& model) {
  switch (app) {
    case AppKind::kSwps3:
      return homogeneous_run(workload, model.swps3_cpu, workers,
                             sched::PeType::kCpu);
    case AppKind::kStriped:
      return homogeneous_run(workload, model.striped_cpu, workers,
                             sched::PeType::kCpu);
    case AppKind::kSwipe:
      return homogeneous_run(workload, model.swipe_cpu, workers,
                             sched::PeType::kCpu);
    case AppKind::kCudasw:
      return homogeneous_run(workload, model.cudasw_gpu, workers,
                             sched::PeType::kGpu);
    case AppKind::kSwdual:
      return run_swdual_virtual(workload, split_workers(workers), model,
                                false);
    case AppKind::kSwdualRefined:
      return run_swdual_virtual(workload, split_workers(workers), model,
                                true);
  }
  throw InvalidArgument("unknown application kind");
}

}  // namespace swdual::core
