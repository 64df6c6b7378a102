// Worker threads (the "slaves" of the paper's master–slave model).
//
// Every worker owns a command queue of TaskOrders and pushes TaskReports to
// the master's shared result queue. A task is one query answered by the
// search pipeline (align/pipeline.h) over the worker's engine: a CPU worker
// scans serially on the host; a GPU worker drives a gpusim::VirtualGpu.
// Both compute exact scores on this host with the configured exact kernel,
// and both report modeled ("virtual") execution times for the paper's
// hardware classes: SWIPE-class CPU workers and CUDASW++-class GPU workers.
// Virtual time is charged from DP cells, which every exact kernel counts
// alike, so the host kernel never changes it.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "align/pipeline.h"
#include "align/profile_cache.h"
#include "align/search.h"
#include "master/protocol.h"
#include "platform/perf_model.h"
#include "util/concurrent_queue.h"

namespace swdual::obs {
class MetricsRegistry;
class Tracer;
}  // namespace swdual::obs

namespace swdual::master {

/// Shared read-only context for all workers.
struct WorkerContext {
  const std::vector<seq::Sequence>* queries = nullptr;
  const align::DbView* db = nullptr;
  align::ScoringScheme scheme;
  platform::PerfModel model;
  /// Exact kernel of every worker's host scan, CPU and GPU alike (see
  /// MasterConfig::cpu_kernel).
  align::KernelKind cpu_kernel = align::KernelKind::kStriped8;

  /// SIMD backend for the CPU kernels (kAuto = widest available; see
  /// align/backend.h). Forwarded to every search call a CPU worker makes.
  align::Backend cpu_backend = align::Backend::kAuto;

  /// What every task asks the pipeline for: top_hits, the filter, and the
  /// annotation (see MasterConfig for the determinism argument). Applies to
  /// both worker types.
  align::SearchRequest request;

  /// Optional shared query-profile cache (align/profile_cache.h). When set,
  /// workers acquire per-query profiles from it instead of rebuilding them
  /// per task, so repeated queries reuse one resident profile context. Must
  /// be thread-safe (it is) and outlive the workers. Scores are
  /// bit-identical with or without it.
  align::ProfileCache* profile_cache = nullptr;

  /// Fault injection hook for robustness testing: called before a task
  /// executes; returning true makes the worker report failure instead of
  /// results (simulating a crashed kernel / lost slave), and so does a
  /// throw. Must be thread-safe. nullptr = no faults.
  std::function<bool(std::size_t task_id, std::size_t worker_id)>
      fault_injector;

  /// Optional observability sinks (obs/trace.h, obs/metrics.h). When set,
  /// every executed task becomes a span on track obs::worker_track(id) with
  /// wall time plus the worker's accumulated virtual-time interval, faults
  /// become instant events, and per-task metrics are recorded.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// The pipeline primitives of a GPU worker (defined in worker.cpp).
class DeviceEngine;

class Worker {
 public:
  /// Starts the worker thread immediately (registration step).
  Worker(std::size_t id, sched::PeId pe, const WorkerContext& context,
         ConcurrentQueue<TaskReport>& results);

  /// Joins the thread; assign() must not be called afterwards.
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Enqueue one task order. Returns false after shutdown() was called;
  /// the master must check (an unexecuted order would hang its collect
  /// loop waiting for the missing report).
  [[nodiscard]] bool assign(const TaskOrder& order) {
    return commands_.push(order);
  }

  /// Close the command queue; the thread drains outstanding orders and exits.
  void shutdown() { commands_.close(); }

  std::size_t id() const { return id_; }
  sched::PeId pe() const { return pe_; }

 private:
  void run();
  TaskReport execute(const TaskOrder& order);
  /// The report of a failed attempt: no hits, no cells, no virtual time.
  TaskReport fail(const TaskOrder& order, std::string error);

  std::size_t id_;
  sched::PeId pe_;
  const WorkerContext& context_;
  ConcurrentQueue<TaskReport>& results_;
  ConcurrentQueue<TaskOrder> commands_;
  /// What the pipeline runs this worker's tasks on: the virtual device for
  /// a GPU worker, the serial engine for a CPU worker.
  std::unique_ptr<align::SearchEngine> engine_;
  DeviceEngine* device_ = nullptr;  ///< engine_ of a GPU worker, else null
  /// Virtual clock of this worker: tasks execute back to back in modeled
  /// time, so successive task spans tile [0, worker_virtual_busy) exactly.
  double virtual_clock_ = 0.0;
  std::thread thread_;
};

}  // namespace swdual::master
