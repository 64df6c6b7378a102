// Virtual-time drivers for the compared applications (paper Table I).
//
// Each driver reproduces a baseline's *parallelization strategy* over a
// workload at its calibrated throughput class and returns the modeled
// execution time on the paper's hardware:
//
//   SWPS3 / STRIPED / SWIPE — CPU-only, T threads, dynamic self-scheduling
//     of query tasks across the threads (these tools parallelize a search
//     internally; at task granularity that behaves like self-scheduling
//     with near-zero dispatch cost).
//   CUDASW++ — GPU-only, T devices, self-scheduling of query tasks.
//   SWDUAL — hybrid: the dual-approximation schedule executed one-round
//     master–slave style (static replay).
//
// These drivers power the Table II / Fig. 7 reproduction; real-kernel
// correctness is covered by the master–slave runtime and its tests.
#pragma once

#include <string>

#include "core/workload.h"
#include "platform/des.h"
#include "platform/perf_model.h"

namespace swdual::core {

enum class AppKind {
  kSwps3,
  kStriped,
  kSwipe,
  kCudasw,
  kSwdual,
  kSwdualRefined,
};

const char* app_name(AppKind app);

struct AppRunResult {
  double virtual_seconds = 0.0;  ///< modeled wall-clock on paper hardware
  double gcups = 0.0;            ///< workload cells / virtual_seconds
  double idle_fraction = 0.0;    ///< PE idle share within the run
};

/// Run one application on `workers` processing elements in virtual time.
/// For CPU-only (GPU-only) apps, all workers are CPUs (GPUs); for SWDUAL the
/// workers are split per §V-A (split_workers) unless an explicit platform is
/// given via run_swdual_virtual. A worker is one processing element that
/// runs whole query-vs-database tasks, as in the paper's Fig. 6 runtime.
AppRunResult run_app_virtual(AppKind app, const Workload& workload,
                             std::size_t workers,
                             const platform::PerfModel& model = {});

/// SWDUAL on an explicit (m CPUs, k GPUs) platform — used for the Table IV
/// extension to 8 CPUs + 8 GPUs.
AppRunResult run_swdual_virtual(const Workload& workload,
                                const sched::HybridPlatform& platform,
                                const platform::PerfModel& model = {},
                                bool refined = false);

}  // namespace swdual::core
