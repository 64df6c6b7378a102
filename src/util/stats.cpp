#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace swdual {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double percentile_sorted(const std::vector<double>& sorted, double q) {
  SWDUAL_REQUIRE(!sorted.empty(), "percentile of empty sample");
  SWDUAL_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted.size()) return sorted.back();
  return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
}

}  // namespace swdual
