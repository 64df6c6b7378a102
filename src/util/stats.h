// Streaming and batch descriptive statistics used by benchmarks and the
// platform simulator (idle-time accounting, run-to-run variance).
#pragma once

#include <cstddef>
#include <vector>

namespace swdual {

/// Welford streaming accumulator: mean/variance without storing samples.
class RunningStats {
 public:
  /// Add one observation.
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Linear-interpolated percentile of a *sorted* sample vector, q in [0,1].
double percentile_sorted(const std::vector<double>& sorted, double q);

}  // namespace swdual
