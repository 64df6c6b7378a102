// Performance model for the hybrid platform (the hardware substitution).
//
// The paper's testbed was Idgraf: 2× Intel Xeon (8 cores) + 8× Tesla C2050,
// which we do not have. The scheduling algorithm only consumes per-task
// processing times (p_cpu, p̄_gpu); those are a function of the DP cell count
// (Σ|q|·|d| for one query against the database chunk) divided by the
// processing element's sustained GCUPS. We therefore model each PE class by
// a GCUPS constant plus a fixed per-task overhead, calibrated so that the
// single-worker column of the paper's Table II is reproduced:
//
//   class      Table II (1 worker, UniProt+40 queries) → implied GCUPS
//   SWPS3        69208.2 s   ≈ 0.28  GCUPS/core
//   STRIPED       7190.0 s   ≈ 2.7   GCUPS/core
//   SWIPE         2367.2 s   ≈ 8.3   GCUPS/worker
//   CUDASW++       785.3 s   ≈ 24.9  GCUPS/GPU
//
// (assuming the paper's workload of ≈1.96e13 cells: 40 queries averaging
// ≈2550 aa against UniProt's ≈1.92e8 residues). SWDUAL's CPU workers run a
// SWIPE-class kernel and its GPU workers a CUDASW++-class kernel, matching
// §V "it integrates CUDASW++ 2.0 and SWIPE into the code".
//
// All constants are data, not code — override any of them to recalibrate
// (bench_kernels measures this host's real kernels).
#pragma once

#include <cstdint>

#include "sched/task.h"

namespace swdual::platform {

/// Throughput class of one worker.
struct WorkerClass {
  double gcups = 1.0;          ///< sustained billion cell updates / second
  double task_overhead = 0.0;  ///< fixed seconds per task (dispatch, I/O)

  /// Predicted wall-clock seconds to process `cells` DP cells.
  double seconds_for(std::uint64_t cells) const {
    return task_overhead + static_cast<double>(cells) / (gcups * 1e9);
  }
};

/// Calibrated worker classes (see header comment for the derivation).
struct PerfModel {
  WorkerClass swps3_cpu{0.28, 0.002};
  WorkerClass striped_cpu{2.7, 0.002};
  WorkerClass swipe_cpu{8.3, 0.002};
  WorkerClass cudasw_gpu{24.9, 0.050};  ///< includes host↔device transfers

  /// SWDUAL's worker classes (paper §V: SWIPE on CPUs, CUDASW++ on GPUs).
  const WorkerClass& cpu_worker() const { return swipe_cpu; }
  const WorkerClass& gpu_worker() const { return cudasw_gpu; }

  /// Build a scheduler task from a cell count using the SWDUAL classes.
  sched::Task make_task(std::size_t id, std::uint64_t cells) const {
    return {id, cpu_worker().seconds_for(cells),
            gpu_worker().seconds_for(cells)};
  }
};

}  // namespace swdual::platform
