// Unit tests for the deterministic PRNG.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "util/rng.h"

namespace swdual {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(20));
  EXPECT_EQ(seen.size(), 20u);
}

TEST(Rng, BetweenInclusiveBounds) {
  Rng rng(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    if (v == -3) hit_lo = true;
    if (v == 3) hit_hi = true;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(10);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalHasZeroMeanUnitVariance) {
  Rng rng(12);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, LognormalMedianIsExpMu) {
  Rng rng(13);
  std::vector<double> samples;
  for (int i = 0; i < 20001; ++i) samples.push_back(rng.lognormal(5.7, 0.65));
  std::sort(samples.begin(), samples.end());
  const double median = samples[samples.size() / 2];
  EXPECT_NEAR(median, std::exp(5.7), std::exp(5.7) * 0.05);
}

TEST(Splitmix, KnownSequenceIsStable) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(splitmix64(state2), first);
  EXPECT_NE(splitmix64(state2), first);  // state advanced
}

}  // namespace
}  // namespace swdual
