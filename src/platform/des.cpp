#include "platform/des.h"

#include <algorithm>
#include <map>
#include <queue>
#include <string>

#include "obs/trace.h"
#include "util/error.h"

namespace swdual::platform {

namespace {

/// Track for a DES PE, matching the master's worker-id convention (GPUs
/// register first): GPU g → worker g, CPU c → worker k + c.
std::size_t track_of(const sched::PeId& pe,
                     const sched::HybridPlatform& platform) {
  const std::size_t worker = pe.type == sched::PeType::kGpu
                                 ? pe.index
                                 : platform.num_gpus + pe.index;
  return obs::worker_track(worker);
}

void finalize(ExecutionTrace& trace, const sched::HybridPlatform& platform,
              obs::Tracer* tracer) {
  for (const TraceEntry& entry : trace.entries) {
    SWDUAL_CHECK(entry.end >= entry.start && entry.start >= 0,
                 "DES produced a negative-length or negative-start span");
    trace.makespan = std::max(trace.makespan, entry.end);
    const double duration = entry.end - entry.start;
    if (entry.pe.type == sched::PeType::kCpu) {
      trace.cpu_busy += duration;
    } else {
      trace.gpu_busy += duration;
    }
    if (tracer) {
      obs::TraceEvent event;
      event.clock = obs::Clock::kVirtual;
      event.name = "task " + std::to_string(entry.task_id);
      event.category = "des";
      event.track = track_of(entry.pe, platform);
      event.start = entry.start;
      event.end = entry.end;
      event.args = {{"task_id", static_cast<double>(entry.task_id)}};
      tracer->record(std::move(event));
    }
  }
  const double capacity =
      trace.makespan * static_cast<double>(platform.total());
  trace.total_idle = capacity - trace.cpu_busy - trace.gpu_busy;
}

}  // namespace

ExecutionTrace simulate_static(const sched::Schedule& schedule,
                               const std::vector<sched::Task>& tasks,
                               const sched::HybridPlatform& platform,
                               obs::Tracer* tracer) {
  std::map<std::size_t, const sched::Task*> by_id;
  for (const sched::Task& task : tasks) by_id[task.id] = &task;

  // Group assignments per PE, keep schedule order, compact.
  std::map<std::pair<int, std::size_t>, std::vector<const sched::Assignment*>>
      per_pe;
  for (const sched::Assignment& a : schedule.assignments()) {
    SWDUAL_REQUIRE(by_id.count(a.task_id) == 1,
                   "schedule references unknown task");
    SWDUAL_REQUIRE(a.pe.index < platform.count(a.pe.type),
                   "schedule uses PE outside the platform");
    per_pe[{static_cast<int>(a.pe.type), a.pe.index}].push_back(&a);
  }

  ExecutionTrace trace;
  for (auto& [key, list] : per_pe) {
    std::sort(list.begin(), list.end(),
              [](const sched::Assignment* a, const sched::Assignment* b) {
                return a->start < b->start;
              });
    double clock = 0.0;
    for (const sched::Assignment* a : list) {
      const double duration = by_id.at(a->task_id)->time_on(a->pe.type);
      trace.entries.push_back(
          {a->task_id, a->pe, clock, clock + duration});
      clock += duration;
    }
  }
  finalize(trace, platform, tracer);
  return trace;
}

ExecutionTrace simulate_self_scheduling(const std::vector<sched::Task>& tasks,
                                        const sched::HybridPlatform& platform,
                                        double dispatch_latency,
                                        obs::Tracer* tracer) {
  SWDUAL_REQUIRE(platform.total() > 0, "platform has no PEs");
  SWDUAL_REQUIRE(dispatch_latency >= 0, "latency must be non-negative");

  // Event queue of (free time, pe slot); GPUs occupy the first k slots so
  // they win ties — they are the workers that register first in the paper's
  // experimental setup.
  std::vector<sched::PeId> pes;
  for (std::size_t g = 0; g < platform.num_gpus; ++g) {
    pes.push_back({sched::PeType::kGpu, g});
  }
  for (std::size_t c = 0; c < platform.num_cpus; ++c) {
    pes.push_back({sched::PeType::kCpu, c});
  }
  using Slot = std::pair<double, std::size_t>;
  std::priority_queue<Slot, std::vector<Slot>, std::greater<>> heap;
  for (std::size_t i = 0; i < pes.size(); ++i) heap.emplace(0.0, i);

  ExecutionTrace trace;
  for (const sched::Task& task : tasks) {
    const auto [free_at, slot] = heap.top();
    heap.pop();
    const sched::PeId pe = pes[slot];
    const double start = free_at + dispatch_latency;
    const double end = start + task.time_on(pe.type);
    trace.entries.push_back({task.id, pe, start, end});
    heap.emplace(end, slot);
  }
  finalize(trace, platform, tracer);
  return trace;
}

}  // namespace swdual::platform
