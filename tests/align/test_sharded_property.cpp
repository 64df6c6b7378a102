// Differential property test of the sharded engine: on random record-length
// profiles — uniform, Zipf at s 0.5 and 1.1, one giant above a shard's fair
// share, and empty and length-1 records — a group search through
// align::search on every shard count × threads per shard × filter mode must
// equal the serial engine's answer in hits, scores, cells and filter
// counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "align/pipeline.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(20));
  return out;
}

/// max(1, 3·len / rank^s) over shuffled ranks 1..n: a few giants and a long
/// tail of short records at arbitrary positions.
std::vector<std::size_t> zipf_lengths(Rng& rng, std::size_t n,
                                      std::size_t len, double s) {
  std::vector<std::size_t> rank(n);
  std::iota(rank.begin(), rank.end(), std::size_t{1});
  for (std::size_t i = n; i > 1; --i) {
    std::swap(rank[i - 1], rank[rng.below(i)]);
  }
  std::vector<std::size_t> lengths(n);
  for (std::size_t i = 0; i < n; ++i) {
    lengths[i] = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               3.0 * static_cast<double>(len) /
               std::pow(static_cast<double>(rank[i]), s)));
  }
  return lengths;
}

struct LengthProfile {
  std::string name;
  std::vector<std::size_t> lengths;
};

std::vector<LengthProfile> length_profiles(Rng& rng) {
  std::vector<LengthProfile> out;
  LengthProfile uniform{"uniform", std::vector<std::size_t>(60)};
  for (auto& length : uniform.lengths) length = 1 + rng.below(120);
  out.push_back(std::move(uniform));
  out.push_back({"zipf-0.5", zipf_lengths(rng, 80, 40, 0.5)});
  out.push_back({"zipf-1.1", zipf_lengths(rng, 80, 40, 1.1)});
  LengthProfile giant{"giant", std::vector<std::size_t>(40)};
  for (auto& length : giant.lengths) length = 10 + rng.below(50);
  giant.lengths[rng.below(40)] = 2000;  // more than half of every residue
  out.push_back(std::move(giant));
  LengthProfile tiny{"empty-and-1", std::vector<std::size_t>(50)};
  for (std::size_t i = 0; i < tiny.lengths.size(); ++i) {
    tiny.lengths[i] = i % 5 == 0 ? 0 : i % 5 == 1 ? 1 : 1 + rng.below(80);
  }
  out.push_back(std::move(tiny));
  return out;
}

void expect_same_outcome(const SearchOutcome& actual,
                         const SearchOutcome& expected,
                         const std::string& label) {
  EXPECT_TRUE(actual.complete) << label;
  EXPECT_EQ(actual.filtered, expected.filtered) << label;
  EXPECT_EQ(actual.ranked.result.scores, expected.ranked.result.scores)
      << label;
  EXPECT_EQ(actual.ranked.result.cells, expected.ranked.result.cells)
      << label;
  EXPECT_EQ(actual.ranked.result.overflow_rescans,
            expected.ranked.result.overflow_rescans)
      << label;
  ASSERT_EQ(actual.ranked.hits.size(), expected.ranked.hits.size()) << label;
  for (std::size_t h = 0; h < expected.ranked.hits.size(); ++h) {
    EXPECT_EQ(actual.ranked.hits[h].db_index, expected.ranked.hits[h].db_index)
        << label << " hit " << h;
    EXPECT_EQ(actual.ranked.hits[h].score, expected.ranked.hits[h].score)
        << label << " hit " << h;
  }
  EXPECT_EQ(actual.filter.candidates, expected.filter.candidates) << label;
  EXPECT_EQ(actual.filter.rescans, expected.filter.rescans) << label;
  EXPECT_EQ(actual.filter.band_uncertain, expected.filter.band_uncertain)
      << label;
}

TEST(ShardedProperty, MatchesSerialEngineOnRandomLengthProfiles) {
  Rng rng(0x5a4d);
  const ScoringScheme scheme;
  const std::vector<std::uint8_t> queries[] = {random_codes(rng, 48),
                                               random_codes(rng, 70)};
  const SearchProfiles first(queries[0], scheme, KernelKind::kInterSeq);
  const SearchProfiles second(queries[1], scheme, KernelKind::kInterSeq);
  const SearchProfiles* group[] = {&first, &second};

  FilterConfig heuristic;
  heuristic.mode = FilterMode::kHeuristic;
  heuristic.band = 8;
  heuristic.keep_factor = 2.0;

  for (const LengthProfile& profile : length_profiles(rng)) {
    std::vector<std::vector<std::uint8_t>> records;
    for (const std::size_t length : profile.lengths) {
      records.push_back(random_codes(rng, length));
    }
    DbView db;
    for (const auto& record : records) db.emplace_back(record);
    const SerialSearchEngine serial(db);

    for (const FilterConfig& filter : {FilterConfig{}, heuristic}) {
      SearchRequest request;
      request.k = 5;
      request.filter = filter;
      const std::vector<SearchOutcome> expected =
          search(serial, group, request);
      for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
        for (const std::size_t threads : {1u, 3u}) {
          ShardedSearchOptions options;
          options.num_shards = shards;
          options.threads_per_shard = threads;
          const ShardedSearchEngine engine(db, options);
          const std::vector<SearchOutcome> actual =
              search(engine, group, request);
          ASSERT_EQ(actual.size(), expected.size());
          for (std::size_t q = 0; q < expected.size(); ++q) {
            expect_same_outcome(
                actual[q], expected[q],
                profile.name + (filter.enabled() ? "/heuristic" : "/off") +
                    "/shards=" + std::to_string(shards) +
                    "/threads=" + std::to_string(threads) + "/query " +
                    std::to_string(q));
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace swdual::align
