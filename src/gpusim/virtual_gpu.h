// Virtual GPU device (the CUDA hardware substitution).
//
// No CUDA device is available in this environment, so SWDUAL's GPU workers
// run on a software device that mirrors the externally visible behaviour of
// a Tesla C2050 running a CUDASW++-2.0-class kernel:
//
//   * results  — batch Smith–Waterman scores, computed exactly on the host
//     with the caller's exact kernel. Every exact kernel returns the same
//     scores, so which one the host runs is a wall-time choice only;
//   * timing   — a virtual clock charged from an SM/occupancy model: batches
//     of alignments are waved across `sm_count × threads_per_sm` contexts at
//     `gcups` sustained throughput, plus PCIe transfer time for query and
//     database residues at `pcie_gbps`. It depends on cells, record counts
//     and residue bytes only — every kernel counts a pair as |q|·|d| cells —
//     so it does not depend on the host kernel;
//   * capacity — device-memory tracking; batches that exceed `memory_bytes`
//     are split into sub-batches exactly as CUDASW++ partitions large
//     databases.
//
// The scheduler and master–slave runtime treat this object exactly as they
// would a physical accelerator: correct scores now, timing from the model.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "align/search.h"
#include "seq/sequence.h"

namespace swdual::gpusim {

/// Static description of the simulated device (defaults: Tesla C2050).
struct DeviceSpec {
  std::string name = "Virtual Tesla C2050";
  std::size_t sm_count = 14;             ///< streaming multiprocessors
  std::size_t threads_per_sm = 1024;     ///< resident threads per SM
  double gcups = 24.9;                   ///< sustained kernel throughput
  double pcie_gbps = 4.0;                ///< effective host↔device bandwidth
  double kernel_launch_seconds = 20e-6;  ///< per kernel launch
  std::uint64_t memory_bytes = 3ULL << 30;  ///< 3 GB device memory
};

/// Result of one batch submission.
struct BatchResult {
  std::vector<int> scores;        ///< exact SW scores, database order
  double virtual_seconds = 0.0;   ///< modeled device time for this batch
  std::uint64_t cells = 0;        ///< DP cells in the batch
  std::size_t sub_batches = 1;    ///< memory-partitioning splits
  std::uint64_t bytes_transferred = 0;
};

/// One virtual accelerator. It keeps no state between batches: every
/// run_batch reports its own modeled time, and callers sum what they need.
class VirtualGpu {
 public:
  explicit VirtualGpu(DeviceSpec spec = {});

  const DeviceSpec& spec() const { return spec_; }

  /// Execute one query against a database batch with caller-provided
  /// (possibly cached/shared) query profiles — the resident-query-context
  /// reuse CUDASW++-class tools apply across batches: exact scores from the
  /// profiles' kernel (search_range) plus modeled time, which depends on
  /// cells, record counts and residue bytes only.
  BatchResult run_batch(const align::SearchProfiles& profiles,
                        const align::DbView& db) const;

 private:
  DeviceSpec spec_;
};

}  // namespace swdual::gpusim
