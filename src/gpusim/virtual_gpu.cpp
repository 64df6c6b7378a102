#include "gpusim/virtual_gpu.h"

#include <algorithm>

#include "util/error.h"

namespace swdual::gpusim {

VirtualGpu::VirtualGpu(DeviceSpec spec) : spec_(std::move(spec)) {
  SWDUAL_REQUIRE(spec_.gcups > 0, "device throughput must be positive");
  SWDUAL_REQUIRE(spec_.pcie_gbps > 0, "PCIe bandwidth must be positive");
  SWDUAL_REQUIRE(spec_.memory_bytes > 0, "device memory must be positive");
}

BatchResult VirtualGpu::run_batch(const align::SearchProfiles& profiles,
                                  const align::DbView& db) const {
  const std::span<const std::uint8_t> query = profiles.query();
  BatchResult result;
  result.scores.assign(db.size(), 0);
  if (db.empty() || query.empty()) return result;

  // Memory partitioning: residues resident on the device per sub-batch must
  // fit next to the query profile and per-thread DP state. We budget half
  // the device memory for database residues, as CUDASW++ does.
  const std::uint64_t residue_budget = spec_.memory_bytes / 2;
  std::size_t begin = 0;
  result.sub_batches = 0;
  while (begin < db.size()) {
    std::uint64_t bytes = 0;
    std::size_t end = begin;
    while (end < db.size() &&
           (bytes + db[end].size() <= residue_budget || end == begin)) {
      bytes += db[end].size();
      ++end;
    }

    const align::SearchResult chunk_result =
        align::search_range(profiles, db, begin, end);
    std::copy(chunk_result.scores.begin(), chunk_result.scores.end(),
              result.scores.begin() + static_cast<std::ptrdiff_t>(begin));
    result.cells += chunk_result.cells;

    // Modeled time: transfers + launch + kernel execution at an
    // occupancy-scaled throughput. The device sustains `gcups` only when a
    // full wave of sm_count×threads_per_sm alignments is resident; smaller
    // batches leave SMs idle, which is the first-order reason CUDASW++ loses
    // throughput on short databases.
    const double transfer_seconds =
        static_cast<double>(bytes + query.size()) /
        (spec_.pcie_gbps * 1e9 / 8.0);
    const std::size_t wave_size = spec_.sm_count * spec_.threads_per_sm;
    const std::size_t lanes = end - begin;
    const double occupancy = std::min(
        1.0, static_cast<double>(lanes) / static_cast<double>(wave_size));
    const double kernel_seconds =
        static_cast<double>(chunk_result.cells) /
        (spec_.gcups * 1e9 * occupancy);
    result.virtual_seconds +=
        transfer_seconds + spec_.kernel_launch_seconds + kernel_seconds;
    result.bytes_transferred += bytes + query.size();
    ++result.sub_batches;
    begin = end;
  }
  return result;
}

}  // namespace swdual::gpusim
