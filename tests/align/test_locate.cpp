// Tests for locate-then-realign: the located region, and the local
// alignment that aligns it in linear space (sw_align_affine_linear).
#include <gtest/gtest.h>

#include "align/linear_space.h"
#include "align/locate.h"
#include "align/traceback.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(20));
  return out;
}

TEST(Locate, RegionMatchesFullTraceback) {
  ScoringScheme scheme;
  Rng rng(41);
  for (int rep = 0; rep < 30; ++rep) {
    const auto q = random_codes(rng, 1 + rng.below(150));
    const auto d = random_codes(rng, 1 + rng.below(150));
    const LocalRegion region = locate_best_alignment(q, d, scheme);
    const Alignment full = sw_align_affine(q, d, scheme);
    ASSERT_EQ(region.score, full.score) << "rep " << rep;
    if (region.score == 0) continue;
    // End coordinates must agree exactly (same scan order). Start
    // coordinates may differ between co-optimal alignments, but must form a
    // non-empty region ending at the shared end cell.
    EXPECT_EQ(region.query_end, full.query_end);
    EXPECT_EQ(region.db_end, full.db_end);
    EXPECT_GE(region.query_begin, 1u);
    EXPECT_LE(region.query_begin, region.query_end);
    EXPECT_LE(region.db_begin, region.db_end);
  }
}

TEST(Locate, FrugalAlignmentScoreIdentical) {
  ScoringScheme scheme;
  Rng rng(43);
  for (int rep = 0; rep < 30; ++rep) {
    const auto q = random_codes(rng, 1 + rng.below(120));
    const auto d = random_codes(rng, 1 + rng.below(120));
    const Alignment linear = sw_align_affine_linear(q, d, scheme);
    const Alignment full = sw_align_affine(q, d, scheme);
    ASSERT_EQ(linear.score, full.score) << "rep " << rep;
  }
}

TEST(Locate, FrugalCoordinatesConsistentWithScore) {
  // The linear-space alignment's coordinates must index the original
  // sequences correctly.
  ScoringScheme scheme;
  const seq::Alphabet& alpha = seq::Alphabet::protein();
  Rng rng(45);
  for (int rep = 0; rep < 20; ++rep) {
    const auto q = random_codes(rng, 20 + rng.below(100));
    const auto d = random_codes(rng, 20 + rng.below(100));
    const Alignment a = sw_align_affine_linear(q, d, scheme);
    if (a.score == 0) continue;
    // Strip gaps: must equal the claimed coordinate slices.
    std::string q_nogap, d_nogap;
    for (char c : a.aligned_query) {
      if (c != '-') q_nogap += c;
    }
    for (char c : a.aligned_db) {
      if (c != '-') d_nogap += c;
    }
    std::string q_slice, d_slice;
    for (std::size_t i = a.query_begin; i <= a.query_end; ++i) {
      q_slice += alpha.decode(q[i - 1]);
    }
    for (std::size_t j = a.db_begin; j <= a.db_end; ++j) {
      d_slice += alpha.decode(d[j - 1]);
    }
    EXPECT_EQ(q_nogap, q_slice) << "rep " << rep;
    EXPECT_EQ(d_nogap, d_slice) << "rep " << rep;
  }
}

TEST(Locate, PlantedMotifFound) {
  // A strong motif buried in noise: the located region must pin it.
  ScoringScheme scheme;
  Rng rng(47);
  auto motif = random_codes(rng, 40);
  auto q = random_codes(rng, 30);
  q.insert(q.end(), motif.begin(), motif.end());
  auto q_tail = random_codes(rng, 30);
  q.insert(q.end(), q_tail.begin(), q_tail.end());
  auto d = random_codes(rng, 100);
  d.insert(d.begin() + 50, motif.begin(), motif.end());
  const LocalRegion region = locate_best_alignment(q, d, scheme);
  EXPECT_LE(region.query_begin, 31u + 2);   // motif starts at q position 31
  EXPECT_GE(region.query_end, 70u - 2);
  EXPECT_LE(region.db_begin, 51u + 2);
  EXPECT_GE(region.db_end, 90u - 2);
}

TEST(Locate, EmptyAndZeroScoreInputs) {
  ScoringScheme scheme;
  EXPECT_EQ(locate_best_alignment({}, {}, scheme).score, 0);
  const Alignment a = sw_align_affine_linear({}, {}, scheme);
  EXPECT_EQ(a.score, 0);
  EXPECT_TRUE(a.aligned_query.empty());
}

}  // namespace
}  // namespace swdual::align
