// Descriptive statistics over a sequence database (used to print Table III
// and to size workloads for the performance model).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/sequence.h"
#include "seq/swdb.h"

namespace swdual::seq {

struct DatabaseStats {
  std::size_t num_sequences = 0;
  std::size_t min_length = 0;
  std::size_t max_length = 0;
  double mean_length = 0.0;
  std::uint64_t total_residues = 0;
};

/// Compute stats from in-memory records.
DatabaseStats compute_stats(const std::vector<Sequence>& records);

/// Compute stats from length data only (e.g. from an SWDB index, without
/// reading residues).
DatabaseStats compute_stats_from_lengths(const std::vector<std::size_t>& lengths);

/// Compute stats for an open SWDB straight from its index section — no
/// record is decoded and no data-section byte is touched, so this is O(n)
/// in the record count regardless of database size.
DatabaseStats compute_stats(const MappedSwdb& db);

}  // namespace swdual::seq
