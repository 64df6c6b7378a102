#include "master/worker.h"

#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "gpusim/virtual_gpu.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/timer.h"

namespace swdual::master {

/// A GPU worker's pipeline primitives: the serial engine, with every exact
/// scan — the whole database, or a filtered task's candidates — run on the
/// virtual device and the banded screen and its cascade on the host CPU,
/// the way CUDASW++-class tools prefilter before shipping work. The device
/// scores with the profiles' exact kernel; each stage's modeled time is
/// charged to its hardware from cells (the cascade at the host rate, with
/// no second task overhead) and accumulates until the worker takes it.
/// Screens and candidate selection are deterministic, so a GPU-executed
/// task reports the same hits as a CPU-executed one. Used by
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

  std::vector<align::ScreenResult> rescreen(
      std::span<const align::SearchProfiles* const> group,
      std::span<const align::DbView> records,
      std::size_t band) const override {
    std::vector<align::ScreenResult> screens =
        SerialSearchEngine::rescreen(group, records, band);
    for (const align::ScreenResult& s : screens) {
      virtual_seconds_ += static_cast<double>(s.cells) / (host_.gcups * 1e9);
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
  gpusim::VirtualGpu gpu_;
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
    // A task that throws fails its attempt like an injected fault: the
    // master retries it elsewhere or, past its budget, throws on its own
    // thread. An exception must never leave this thread (std::terminate).
    TaskReport report;
    try {
      report = execute(*order);
    } catch (const std::exception& error) {
      report = fail(*order, error.what());
    } catch (...) {
      report = fail(*order, "unknown exception");
    }
    // The master keeps the result queue open until every worker joined, so
    // a rejected push means a task report (and a waiting collect loop) would
    // be lost — that invariant breaking is unrecoverable here.
    SWDUAL_CHECK(results_.push(std::move(report)),
                 "result queue closed while worker " + std::to_string(id_) +
                     " was executing");
  }
}

TaskReport Worker::fail(const TaskOrder& order, std::string error) {
  // The attempt charges no virtual time: drop what the device accrued.
  if (device_) device_->take_virtual_seconds();
  if (context_.tracer) {
    context_.tracer->instant(
        "fault", "fault", obs::worker_track(id_),
        {{"task_id", static_cast<double>(order.task_id)},
         {"worker", static_cast<double>(id_)}});
  }
  if (context_.metrics) context_.metrics->add("task_faults");
  TaskReport report;
  report.task_id = order.task_id;
  report.query_index = order.query_index;
  report.worker_id = id_;
  report.pe = pe_;
  report.failed = true;
  report.error = std::move(error);
  return report;
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
    return fail(order, "injected fault");
  }

  obs::Span span;
  if (context_.tracer) {
    span = context_.tracer->span("task", "task", obs::worker_track(id_));
    span.arg("task_id", static_cast<double>(order.task_id));
    span.arg("query", static_cast<double>(order.query_index));
    span.arg("worker", static_cast<double>(id_));
  }

  WallTimer timer;
  // Both worker types scan with the configured exact kernel on the
  // configured backend, so with a profile cache they share one entry per
  // query. A GPU worker's virtual time comes from the device model, which
  // charges cells.
  std::shared_ptr<const align::SearchProfiles> cached;
  std::optional<align::SearchProfiles> local;
  const align::SearchProfiles* profiles;
  if (context_.profile_cache) {
    cached = context_.profile_cache->acquire(
        query_view, context_.scheme, context_.cpu_kernel, context_.cpu_backend);
    profiles = cached.get();
  } else {
    profiles = &local.emplace(query_view, context_.scheme, context_.cpu_kernel,
                              context_.cpu_backend);
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
