// Property tests: every SIMD kernel must agree exactly with the 32-bit
// scalar Gotoh oracle on randomized inputs, across scoring schemes, sequence
// lengths, and alphabets. The inter-sequence kernel (striped8's 16-bit
// tier) is called through the kernel table of every available backend.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "align/backend.h"
#include "align/kernel_interseq.h"
#include "align/scalar.h"
#include "align/search.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

using seq::AlphabetKind;

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len,
                                       std::size_t alphabet) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(alphabet));
  return out;
}

/// The striped kernel's score for one pair, through the search driver: the
/// byte tier, then the 16-bit and 32-bit rescans of a saturated pair.
SearchResult striped8_search(const std::vector<std::uint8_t>& q,
                             const std::vector<std::uint8_t>& d,
                             const ScoringScheme& s) {
  const DbView one{{d.data(), d.size()}};
  return search_database(q, one, s, KernelKind::kStriped8);
}

struct SchemeParam {
  int match = 0;       // 0 -> BLOSUM62, else uniform(match, mismatch)
  int mismatch = 0;
  int gap_open = 10;
  int gap_extend = 2;
};

class KernelAgreement
    : public ::testing::TestWithParam<std::tuple<SchemeParam, int>> {
 protected:
  // Owns the uniform matrix when one is requested.
  ScoreMatrix uniform_ = ScoreMatrix::uniform(AlphabetKind::kProtein, 1, -1);

  ScoringScheme scheme() {
    const SchemeParam& p = std::get<0>(GetParam());
    ScoringScheme s;
    if (p.match != 0) {
      uniform_ = ScoreMatrix::uniform(AlphabetKind::kProtein,
                                      static_cast<std::int8_t>(p.match),
                                      static_cast<std::int8_t>(p.mismatch));
      s.matrix = &uniform_;
    }
    s.gap.open = p.gap_open;
    s.gap.extend = p.gap_extend;
    return s;
  }
  int seed() const { return std::get<1>(GetParam()); }
};

TEST_P(KernelAgreement, StripedMatchesOracleOnRandomPairs) {
  const ScoringScheme s = scheme();
  Rng rng(static_cast<std::uint64_t>(seed()) * 7919 + 13);
  for (int rep = 0; rep < 25; ++rep) {
    const auto qlen = static_cast<std::size_t>(rng.between(1, 200));
    const auto dlen = static_cast<std::size_t>(rng.between(1, 200));
    const auto q = random_codes(rng, qlen, 20);
    const auto d = random_codes(rng, dlen, 20);
    const int oracle = gotoh_score(q, d, s).score;
    ASSERT_EQ(striped8_search(q, d, s).scores.front(), oracle)
        << "striped mismatch at rep " << rep << " qlen=" << qlen
        << " dlen=" << dlen;
  }
}

TEST_P(KernelAgreement, InterSeqMatchesOracleOnRandomBatches) {
  const ScoringScheme s = scheme();
  Rng rng(static_cast<std::uint64_t>(seed()) * 104729 + 7);
  for (int rep = 0; rep < 5; ++rep) {
    const auto qlen = static_cast<std::size_t>(rng.between(1, 150));
    const auto q = random_codes(rng, qlen, 20);
    // Batch sizes around the 8-lane boundary, with wildly varying lengths.
    const auto batch = static_cast<std::size_t>(rng.between(1, 19));
    std::vector<std::vector<std::uint8_t>> db;
    for (std::size_t i = 0; i < batch; ++i) {
      db.push_back(random_codes(
          rng, static_cast<std::size_t>(rng.between(1, 300)), 20));
    }
    SequenceViews views;
    for (const auto& d : db) views.emplace_back(d.data(), d.size());
    for (const Backend b : available_backends()) {
      const InterSeqResult r = kernel_table(b).interseq(q, views, s);
      ASSERT_EQ(r.scores.size(), batch);
      for (std::size_t i = 0; i < batch; ++i) {
        ASSERT_FALSE(r.overflow[i]);
        const int oracle = gotoh_score(q, views[i], s).score;
        ASSERT_EQ(r.scores[i], oracle)
            << "interseq lane mismatch rep=" << rep << " i=" << i << " on "
            << backend_name(b);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, KernelAgreement,
    ::testing::Combine(
        ::testing::Values(SchemeParam{0, 0, 10, 2},   // BLOSUM62 default
                          SchemeParam{0, 0, 14, 4},   // stiffer affine gaps
                          SchemeParam{0, 0, 5, 1},    // cheap gaps
                          SchemeParam{0, 0, 0, 1},    // pure linear (Gs=0)
                          SchemeParam{2, -3, 8, 2},   // uniform DNA-style
                          SchemeParam{5, -4, 12, 3}), // high-contrast
        ::testing::Range(0, 4)));  // 4 seeds per scheme

TEST(KernelEdgeCases, SingleResidueSequences) {
  ScoringScheme s;
  const std::vector<std::uint8_t> q = {0};  // 'A'
  const std::vector<std::uint8_t> d = {0};
  const int oracle = gotoh_score(q, d, s).score;
  EXPECT_EQ(striped8_search(q, d, s).scores.front(), oracle);
  SequenceViews views{std::span<const std::uint8_t>(d.data(), d.size())};
  for (const Backend b : available_backends()) {
    EXPECT_EQ(kernel_table(b).interseq(q, views, s).scores[0], oracle)
        << backend_name(b);
  }
}

TEST(KernelEdgeCases, QueryLengthExactMultipleOfLanes) {
  ScoringScheme s;
  Rng rng(99);
  for (std::size_t qlen : {16u, 32u, 64u, 128u}) {
    const auto q = random_codes(rng, qlen, 20);
    const auto d = random_codes(rng, 100, 20);
    EXPECT_EQ(striped8_search(q, d, s).scores.front(),
              gotoh_score(q, d, s).score)
        << "qlen=" << qlen;
  }
}

TEST(KernelEdgeCases, QueryShorterThanLaneCount) {
  ScoringScheme s;
  Rng rng(123);
  for (std::size_t qlen : {1u, 2u, 7u, 15u}) {
    const auto q = random_codes(rng, qlen, 20);
    const auto d = random_codes(rng, 50, 20);
    EXPECT_EQ(striped8_search(q, d, s).scores.front(),
              gotoh_score(q, d, s).score);
  }
}

TEST(KernelEdgeCases, HighlyRepetitiveSequencesStressLazyF) {
  // Long runs of one residue maximize vertical gap chains that wrap lanes —
  // the case the lazy-F loop exists for.
  ScoringScheme s;
  const std::vector<std::uint8_t> q(100, 11);  // poly-K
  std::vector<std::uint8_t> d(300, 11);
  for (std::size_t i = 0; i < d.size(); i += 17) d[i] = 3;  // sparse D
  const int oracle = gotoh_score(q, d, s).score;
  EXPECT_EQ(striped8_search(q, d, s).scores.front(), oracle);
  SequenceViews views{std::span<const std::uint8_t>(d.data(), d.size())};
  for (const Backend b : available_backends()) {
    EXPECT_EQ(kernel_table(b).interseq(q, views, s).scores[0], oracle)
        << backend_name(b);
  }
}

TEST(KernelEdgeCases, StripedOverflowDetected) {
  // Identical long sequences of tryptophan: score 11 per residue; 3500
  // residues -> 38500 > INT16_MAX, so both SIMD tiers must flag overflow
  // and the driver must answer at 32 bits.
  ScoringScheme s;
  const std::vector<std::uint8_t> q(3500, 17);  // 'W' scores 11 vs itself
  const SearchResult r = striped8_search(q, q, s);
  EXPECT_EQ(r.overflow_rescans, 1u);
  EXPECT_EQ(r.scores.front(), 38500);
}

TEST(KernelEdgeCases, InterSeqOverflowDetected) {
  ScoringScheme s;
  const std::vector<std::uint8_t> q(3500, 17);
  SequenceViews views{std::span<const std::uint8_t>(q.data(), q.size())};
  for (const Backend b : available_backends()) {
    EXPECT_TRUE(kernel_table(b).interseq(q, views, s).overflow[0])
        << backend_name(b);
  }
}

TEST(KernelEdgeCases, InterSeqEmptyLaneHandling) {
  // A batch with an empty sequence: its score is 0 and other lanes are
  // unaffected.
  ScoringScheme s;
  Rng rng(5);
  const auto q = random_codes(rng, 40, 20);
  const auto d1 = random_codes(rng, 60, 20);
  const std::vector<std::uint8_t> d2;
  SequenceViews views{std::span<const std::uint8_t>(d1.data(), d1.size()),
                      std::span<const std::uint8_t>(d2.data(), d2.size())};
  for (const Backend b : available_backends()) {
    const InterSeqResult r = kernel_table(b).interseq(q, views, s);
    EXPECT_EQ(r.scores[0], gotoh_score(q, views[0], s).score)
        << backend_name(b);
    EXPECT_EQ(r.scores[1], 0) << backend_name(b);
  }
}

}  // namespace
}  // namespace swdual::align
