#include "seq/dbstats.h"

#include <algorithm>

namespace swdual::seq {

DatabaseStats compute_stats_from_lengths(
    const std::vector<std::size_t>& lengths) {
  DatabaseStats stats;
  stats.num_sequences = lengths.size();
  if (lengths.empty()) return stats;
  stats.min_length = *std::min_element(lengths.begin(), lengths.end());
  stats.max_length = *std::max_element(lengths.begin(), lengths.end());
  for (std::size_t len : lengths) stats.total_residues += len;
  stats.mean_length = static_cast<double>(stats.total_residues) /
                      static_cast<double>(stats.num_sequences);
  return stats;
}

DatabaseStats compute_stats(const std::vector<Sequence>& records) {
  std::vector<std::size_t> lengths;
  lengths.reserve(records.size());
  for (const Sequence& record : records) lengths.push_back(record.length());
  return compute_stats_from_lengths(lengths);
}

DatabaseStats compute_stats(const MappedSwdb& db) {
  DatabaseStats stats;
  stats.num_sequences = db.size();
  if (db.size() == 0) return stats;
  const std::span<const std::uint32_t> lengths = db.lengths();
  stats.min_length = *std::min_element(lengths.begin(), lengths.end());
  stats.max_length = *std::max_element(lengths.begin(), lengths.end());
  stats.total_residues = db.total_residues();
  stats.mean_length = static_cast<double>(stats.total_residues) /
                      static_cast<double>(stats.num_sequences);
  return stats;
}

}  // namespace swdual::seq
