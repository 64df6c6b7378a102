#include "master/worker.h"

#include <optional>
#include <string>
#include <utility>

#include "align/parallel_search.h"
#include "gpusim/virtual_gpu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::master {

/// A GPU worker's pipeline primitives: the serial engine, with every exact
/// scan — the whole database, or a filtered task's candidates — run on the
/// virtual device and the banded screen on the host CPU, the way
/// CUDASW++-class tools prefilter before shipping work. Each stage's
/// modeled time is charged to its hardware and accumulates until the worker
/// takes it. Screens and candidate selection are deterministic, so a
/// GPU-executed task reports the same hits as a CPU-executed one. Used by
/// its worker thread only: parallel_for stays the inline default and a
/// rescan stays one unsplit device batch, so modeled occupancy and virtual
/// time do not depend on the pipeline's fan-outs.
class DeviceEngine final : public align::SerialSearchEngine {
 public:
  DeviceEngine(const WorkerContext& context, const align::SearchSinks& sinks)
      : SerialSearchEngine(*context.db, sinks),
        gpu_(gpusim::DeviceSpec{.gcups = context.model.gpu_worker().gcups}),
        host_(context.model.cpu_worker()) {}

  std::vector<align::ScreenResult> screen(
      std::span<const align::SearchProfiles* const> group, std::size_t band,
      std::vector<align::ShardFailure>& failures) const override {
    std::vector<align::ScreenResult> screens =
        SerialSearchEngine::screen(group, band, failures);
    for (const align::ScreenResult& s : screens) {
      virtual_seconds_ += host_.seconds_for(s.cells);
    }
    return screens;
  }

  align::SearchResult rescan(const align::SearchProfiles& profiles,
                             const align::DbView& candidates) const override {
    gpusim::BatchResult batch = gpu_.run_batch(profiles, candidates);
    virtual_seconds_ += batch.virtual_seconds;
    align::SearchResult result;
    result.scores = std::move(batch.scores);
    result.cells = batch.cells;
    return result;
  }

  /// Modeled seconds charged since the last call.
  double take_virtual_seconds() { return std::exchange(virtual_seconds_, 0.0); }

 private:
  mutable gpusim::VirtualGpu gpu_;
  platform::WorkerClass host_;
  mutable double virtual_seconds_ = 0.0;
};

Worker::Worker(std::size_t id, sched::PeId pe, const WorkerContext& context,
               ConcurrentQueue<TaskReport>& results)
    : id_(id), pe_(pe), context_(context), results_(results) {
  SWDUAL_REQUIRE(context.queries != nullptr && context.db != nullptr,
                 "worker context incomplete");
  const align::SearchSinks sinks{context_.tracer, context_.metrics,
                                 obs::worker_track(id_)};
  if (pe_.type == sched::PeType::kGpu) {
    auto device = std::make_unique<DeviceEngine>(context_, sinks);
    device_ = device.get();
    engine_ = std::move(device);
  } else if (context_.threads_per_cpu_worker > 1) {
    align::ParallelSearchOptions options;
    options.threads = context_.threads_per_cpu_worker;
    options.tracer = sinks.tracer;
    options.metrics = sinks.metrics;
    options.trace_track = sinks.trace_track;
    engine_ =
        std::make_unique<align::ParallelSearchEngine>(*context_.db, options);
  } else {
    engine_ = std::make_unique<align::SerialSearchEngine>(*context_.db, sinks);
  }
  thread_ = std::thread([this] { run(); });
}

Worker::~Worker() {
  commands_.close();
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  while (auto order = commands_.pop()) {
    // The master keeps the result queue open until every worker joined, so
    // a rejected push means a task report (and a waiting collect loop) would
    // be lost — that invariant breaking is unrecoverable here.
    SWDUAL_CHECK(results_.push(execute(*order)),
                 "result queue closed while worker " + std::to_string(id_) +
                     " was executing");
  }
}

TaskReport Worker::execute(const TaskOrder& order) {
  const seq::Sequence& query = (*context_.queries)[order.query_index];
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  TaskReport report;
  report.task_id = order.task_id;
  report.query_index = order.query_index;
  report.worker_id = id_;
  report.pe = pe_;

  if (context_.fault_injector &&
      context_.fault_injector(order.task_id, id_)) {
    if (context_.tracer) {
      context_.tracer->instant(
          "fault", "fault", obs::worker_track(id_),
          {{"task_id", static_cast<double>(order.task_id)},
           {"worker", static_cast<double>(id_)}});
    }
    if (context_.metrics) context_.metrics->add("task_faults");
    report.failed = true;
    return report;
  }

  obs::Span span;
  if (context_.tracer) {
    span = context_.tracer->span("task", "task", obs::worker_track(id_));
    span.arg("task_id", static_cast<double>(order.task_id));
    span.arg("query", static_cast<double>(order.query_index));
    span.arg("worker", static_cast<double>(id_));
  }

  WallTimer timer;
  // The device runs the inter-task kernel (CUDASW++'s SIMT model); CPU
  // workers the configured kernel on the configured backend.
  const align::KernelKind kernel =
      device_ ? align::KernelKind::kInterSeq : context_.cpu_kernel;
  const align::Backend backend =
      device_ ? align::Backend::kAuto : context_.cpu_backend;
  std::shared_ptr<const align::CachedProfiles> cached;
  std::optional<align::SearchProfiles> local;
  const align::SearchProfiles* profiles;
  if (context_.profile_cache) {
    cached = context_.profile_cache->acquire(query_view, context_.scheme,
                                             kernel, backend);
    profiles = &cached->profiles();
  } else {
    profiles = &local.emplace(query_view, context_.scheme, kernel, backend);
  }
  const align::SearchProfiles* group[] = {profiles};
  align::SearchOutcome outcome =
      std::move(align::search(*engine_, group, context_.request).front());
  report.hits = std::move(outcome.ranked.hits);
  report.filter = outcome.filter;
  report.cells = outcome.ranked.result.cells;
  report.virtual_seconds =
      device_ ? device_->take_virtual_seconds()
              : context_.model.cpu_worker().seconds_for(report.cells);
  report.wall_seconds = timer.seconds();

  // Successful tasks tile the worker's virtual timeline back to back, so
  // per-track span sums reproduce SearchReport::worker_virtual_busy.
  span.arg("cells", static_cast<double>(report.cells));
  span.virtual_interval(virtual_clock_,
                        virtual_clock_ + report.virtual_seconds);
  virtual_clock_ += report.virtual_seconds;
  if (context_.metrics) {
    context_.metrics->observe("task_virtual_seconds", report.virtual_seconds);
  }
  return report;
}

}  // namespace swdual::master
