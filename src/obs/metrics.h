// Named runtime metrics: thread-safe counters and value histograms.
//
// Complements the tracer (obs/trace.h): spans answer "when did it happen",
// the registry answers "how often / how much" with O(1) state per metric.
// The instrumented layers use a small shared vocabulary:
//   counters   tasks_dispatched, task_retries, task_faults,
//              serve_accepted, serve_rejected_*, serve_cache_{hits,misses},
//              serve_batches, serve_searches, serve_partial_responses,
//              serve_shard_{scans,retries,failures,group_passes}
//   histograms chunk_scan_seconds, task_virtual_seconds, lambda_iterations,
//              serve_{queue,execute,latency}_seconds, serve_batch_size,
//              serve_shard_scan_seconds, serve_shard_group_queries
// Names are created on first use; readers of absent names see zeros.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/mutex.h"

namespace swdual::obs {

class MetricsRegistry {
 public:
  /// Running summary of one histogram. min/max are 0 when count == 0.
  struct HistogramSummary {
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    double mean() const {
      return count > 0 ? sum / static_cast<double>(count) : 0.0;
    }
  };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Add `delta` to the named counter (created at 0 on first use).
  void add(const std::string& name, double delta = 1.0);

  /// Record one sample into the named histogram.
  void observe(const std::string& name, double value);

  /// Current counter value; 0.0 for a name never touched.
  double counter(const std::string& name) const;

  /// Current histogram summary; all-zero for a name never touched.
  HistogramSummary histogram(const std::string& name) const;

  /// Linear-interpolated percentile of the named histogram's samples,
  /// q in [0,1] (0.5 = p50, 0.99 = p99); 0.0 for a name never touched.
  /// Histograms retain every sample (8 bytes each) to make order statistics
  /// exact — latency-style metrics at service scale, not per-cell rates.
  double percentile(const std::string& name, double q) const;

  /// Flat text dump, deterministic: one `counter <name> <value>` line per
  /// counter then one `histogram <name> count=... sum=... min=... max=...
  /// mean=...` line per histogram, each block sorted by name.
  std::string dump() const;

 private:
  /// Readers–writer lock: add()/observe() are exclusive writers, every
  /// accessor (counter, histogram, percentile, dump) takes a shared read
  /// lock so concurrent report readers never serialize each other.
  mutable util::SharedMutex mutex_;
  std::map<std::string, double> counters_ SWDUAL_GUARDED_BY(mutex_);
  std::map<std::string, HistogramSummary> histograms_
      SWDUAL_GUARDED_BY(mutex_);
  std::map<std::string, std::vector<double>> samples_
      SWDUAL_GUARDED_BY(mutex_);
};

}  // namespace swdual::obs
