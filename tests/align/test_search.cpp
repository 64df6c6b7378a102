// Integration tests for the database-search driver across kernels.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "align/backend.h"
#include "align/scalar.h"
#include "align/search.h"
#include "seq/dbgen.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<seq::Sequence> tiny_database(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 200))));
  }
  return db;
}

class SearchKernels : public ::testing::TestWithParam<KernelKind> {};

TEST_P(SearchKernels, AllKernelsAgreeWithScalar) {
  const auto db = tiny_database(30, 7);
  Rng rng(8);
  const seq::Sequence query = seq::random_protein(rng, "q", 90);
  ScoringScheme scheme;
  const SearchResult scalar =
      search_database(query, db, scheme, KernelKind::kScalar);
  const SearchResult other = search_database(query, db, scheme, GetParam());
  ASSERT_EQ(other.scores.size(), scalar.scores.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(other.scores[i], scalar.scores[i]) << "record " << i;
  }
  EXPECT_EQ(other.cells, scalar.cells);
}

INSTANTIATE_TEST_SUITE_P(Kernels, SearchKernels,
                         ::testing::Values(KernelKind::kScalar,
                                           KernelKind::kStriped8),
                         [](const auto& param_info) {
                           return kernel_name(param_info.param);
                         });

TEST(Search, TopHitsSortedAndTiesStable) {
  SearchResult result;
  result.scores = {10, 50, 50, 3, 70};
  const auto top = result.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].db_index, 4u);
  EXPECT_EQ(top[1].db_index, 1u);  // tie: earlier index first
  EXPECT_EQ(top[2].db_index, 2u);
}

TEST(Search, TopClampsToDatabaseSize) {
  SearchResult result;
  result.scores = {1, 2};
  EXPECT_EQ(result.top(10).size(), 2u);
}

TEST(Search, SelfHitScoresHighest) {
  auto db = tiny_database(20, 21);
  Rng rng(22);
  db.push_back(seq::random_protein(rng, "planted", 120));
  const seq::Sequence query = db.back();
  ScoringScheme scheme;
  for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
    const SearchResult r = search_database(query, db, scheme, kernel);
    const auto top = r.top(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].db_index, db.size() - 1) << kernel_name(kernel);
  }
}

TEST(Search, OverflowRescanProducesExactScores) {
  // One enormous self-similar record saturates both of striped8's SIMD
  // tiers; the driver must fall back to the 32-bit oracle for that pair.
  Rng rng(9);
  std::vector<seq::Sequence> db = tiny_database(5, 10);
  seq::Sequence big;
  big.id = "big";
  big.alphabet = seq::AlphabetKind::kProtein;
  big.residues.assign(3500, 17);  // poly-W
  db.push_back(big);
  seq::Sequence query = big;
  ScoringScheme scheme;
  const SearchResult scalar =
      search_database(query, db, scheme, KernelKind::kScalar);
  const SearchResult r =
      search_database(query, db, scheme, KernelKind::kStriped8);
  EXPECT_GE(r.overflow_rescans, 1u);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(r.scores[i], scalar.scores[i]) << "record " << i;
  }
}

TEST(Search, GapsOutsideStriped8LimitsSearchOnTheScalarReference) {
  // The byte kernel needs extend >= 1 and open + extend <= 255; a scheme
  // outside those limits is refused by striped8 and still searches through
  // the scalar reference.
  const auto db = tiny_database(6, 12);
  Rng rng(13);
  const seq::Sequence query = seq::random_protein(rng, "q", 50);
  for (const GapPenalty gap : {GapPenalty{10, 0}, GapPenalty{250, 6}}) {
    ScoringScheme scheme;
    scheme.gap = gap;
    EXPECT_THROW(search_database(query, db, scheme, KernelKind::kStriped8),
                 InvalidArgument)
        << gap.open << "/" << gap.extend;
    const SearchResult r =
        search_database(query, db, scheme, KernelKind::kScalar);
    for (std::size_t i = 0; i < db.size(); ++i) {
      EXPECT_EQ(r.scores[i],
                gotoh_score(query.residues, db[i].residues, scheme).score)
          << gap.open << "/" << gap.extend << " record " << i;
    }
  }
}

class SearchRangeTiers : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << backend_name(GetParam())
                   << " backend not available on this host";
    }
  }
};

TEST_P(SearchRangeTiers, SaturatedRecordsRescoreExactlyInOneBatch) {
  // The striped8 kernel's saturated records are rescored together by the
  // 16-bit inter-sequence kernel, one record per lane: none, one, one lane
  // group's worth and more than one. Planted homologs of the query saturate
  // the byte tier; under the match-100 matrix the longer ones also overflow
  // 16 bits and end at gotoh_score, and the fillers, drawn from residues
  // the query never uses, score 0.
  const Backend backend = GetParam();
  const std::size_t lanes = backend_lanes16(backend);
  static const ScoreMatrix high_match =
      ScoreMatrix::uniform(seq::AlphabetKind::kProtein, 100, -20);
  struct Case {
    const char* name;
    ScoringScheme scheme;
    std::size_t query_len;
    std::uint64_t query_codes;  // the query's residues: codes [0, n)
    std::uint64_t filler_from;  // the fillers' residues: codes [n, 20)
  };
  const Case cases[] = {{"blosum62", ScoringScheme{}, 150, 20, 0},
                        {"match100", ScoringScheme{&high_match, GapPenalty{}},
                         400, 10, 10}};
  Rng rng(0x7135);
  bool reached_32_bits = false;
  for (const Case& c : cases) {
    std::vector<std::uint8_t> query(c.query_len);
    for (auto& code : query) {
      code = static_cast<std::uint8_t>(rng.below(c.query_codes));
    }
    const SearchProfiles profiles(query, c.scheme, KernelKind::kStriped8,
                                  backend);
    for (const std::size_t planted : {std::size_t{0}, std::size_t{1}, lanes,
                                      2 * lanes + 3}) {
      // Homologs between fillers: a point substitution every 19 residues,
      // cut to lengths 60–100% of the query's.
      std::vector<std::vector<std::uint8_t>> records;
      for (std::size_t i = 0; i < 2 * planted + 5; ++i) {
        if (i % 2 == 1 && i / 2 < planted) {
          std::vector<std::uint8_t> homolog = query;
          for (std::size_t p = i % 19; p < homolog.size(); p += 19) {
            homolog[p] = static_cast<std::uint8_t>(rng.below(20));
          }
          homolog.resize(c.query_len - (i * 7) % (2 * c.query_len / 5));
          records.push_back(std::move(homolog));
        } else {
          std::vector<std::uint8_t> filler(40 + rng.below(160));
          for (auto& code : filler) {
            code = static_cast<std::uint8_t>(c.filler_from +
                                             rng.below(20 - c.filler_from));
          }
          records.push_back(std::move(filler));
        }
      }
      DbView db;
      for (const auto& r : records) db.emplace_back(r.data(), r.size());
      const std::string where = std::string(c.name) + " planted " +
                                std::to_string(planted) + " on " +
                                backend_name(backend);
      // One call over every record but the first (a filler), so range
      // positions and database positions differ.
      const SearchResult got = search_range(profiles, db, 1, db.size());
      EXPECT_EQ(got.overflow_rescans, planted) << where;
      ASSERT_EQ(got.scores.size(), db.size() - 1) << where;
      for (std::size_t i = 1; i < db.size(); ++i) {
        const int want = gotoh_score(query, db[i], c.scheme).score;
        EXPECT_EQ(got.scores[i - 1], want) << where << " record " << i;
        reached_32_bits = reached_32_bits ||
                          want > std::numeric_limits<std::int16_t>::max();
      }
    }
  }
  EXPECT_TRUE(reached_32_bits) << "no homolog overflowed 16 bits";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SearchRangeTiers,
                         ::testing::Values(Backend::kScalar, Backend::kSSE2,
                                           Backend::kAVX2, Backend::kAVX512),
                         [](const ::testing::TestParamInfo<Backend>& pi) {
                           return std::string(backend_name(pi.param));
                         });

TEST(Search, GcupsAccountingPositive) {
  const auto db = tiny_database(10, 30);
  Rng rng(31);
  const seq::Sequence query = seq::random_protein(rng, "q", 60);
  ScoringScheme scheme;
  const SearchResult r =
      search_database(query, db, scheme, KernelKind::kStriped8);
  EXPECT_GT(r.cells, 0u);
  EXPECT_GE(r.seconds, 0.0);
}

}  // namespace
}  // namespace swdual::align
