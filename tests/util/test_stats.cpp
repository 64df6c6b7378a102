// Unit tests for streaming and batch statistics.
#include <gtest/gtest.h>

#include "util/error.h"
#include "util/stats.h"

namespace swdual {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 5.0);
  EXPECT_EQ(s.max(), 5.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, HandlesNegativeValues) {
  RunningStats s;
  s.add(-10.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), -10.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> sorted = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0.5), 25.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile_sorted({7.0}, 0.9), 7.0);
}

TEST(Percentile, RejectsEmptyAndBadQuantile) {
  EXPECT_THROW(percentile_sorted({}, 0.5), InvalidArgument);
  EXPECT_THROW(percentile_sorted({1.0}, 1.5), InvalidArgument);
}

}  // namespace
}  // namespace swdual
