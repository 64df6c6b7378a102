// Sharded search battery: the sharded engine must be
// bit-identical to the unsharded search at every shard count, for every
// kernel, on every available backend, serial and threaded — including a
// ragged database whose 5000-residue outlier dwarfs every other record.
// Plus: the planner's contract (contiguous runs of the longest-first order
// with the smallest possible largest run, residue balance under Zipf-skewed
// lengths), multi-query group equivalence, deterministic fault injection
// through the before_shard hook (retry-to-recovery and budget exhaustion →
// partial results with a reason), and the zero-copy MappedSwdb path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/parallel_search.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "seq/swdb.h"
#include "util/error.h"
#include "util/rng.h"

#include "filter_reference.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len,
                                       std::size_t alphabet = 20) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(alphabet));
  return out;
}

/// Ragged corpus: mostly short records plus one 5000-residue outlier, so a
/// single record carries more residues than several whole shards.
struct Corpus {
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> records;

  DbView view() const {
    DbView v;
    for (const auto& r : records) v.emplace_back(r.data(), r.size());
    return v;
  }
};

Corpus ragged_corpus(std::uint64_t seed, std::size_t n,
                     std::size_t query_len) {
  Rng rng(seed);
  Corpus c;
  c.query = random_codes(rng, query_len);
  c.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.records.push_back(random_codes(
        rng, static_cast<std::size_t>(rng.between(1, 100))));
  }
  if (n >= 2) {
    c.records[n / 2] = random_codes(rng, 5000);  // the outlier
    c.records[0] = random_codes(rng, 1);
  }
  return c;
}

void expect_hits_equal(const std::vector<SearchHit>& actual,
                       const std::vector<SearchHit>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(actual[h].db_index, expected[h].db_index)
        << label << " hit " << h;
    EXPECT_EQ(actual[h].score, expected[h].score) << label << " hit " << h;
  }
}

constexpr std::size_t kShardCounts[] = {1, 2, 3, 7, 16};

/// One query through the sharded engine (a group of one).
ShardedSearchResult search_one(const ShardedSearchEngine& engine,
                               std::span<const std::uint8_t> query,
                               const ScoringScheme& scheme, KernelKind kernel,
                               std::size_t k,
                               Backend backend = Backend::kAuto) {
  const std::span<const std::uint8_t> queries[] = {query};
  return std::move(
      engine.search_many(queries, scheme, kernel, k, backend).front());
}

TEST(ShardPlan, CoversEveryRecordExactlyOnce) {
  const Corpus corpus = ragged_corpus(11, 40, 30);
  for (const std::size_t shards : kShardCounts) {
    const ShardPlan plan = plan_shards(corpus.view(), shards);
    ASSERT_EQ(plan.shards.size(), std::min<std::size_t>(shards, 40));
    std::vector<int> seen(corpus.records.size(), 0);
    for (const auto& shard : plan.shards) {
      ASSERT_FALSE(shard.records.empty());
      for (std::size_t i = 1; i < shard.records.size(); ++i) {
        EXPECT_LT(shard.records[i - 1], shard.records[i])
            << "records must be ascending";
      }
      for (const std::uint32_t id : shard.records) ++seen[id];
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "record " << i << " at " << shards
                            << " shards";
    }
  }
}

/// Record ids longest first, ties by id: the order the planner cuts.
std::vector<std::uint32_t> longest_first(
    const std::vector<std::uint32_t>& lengths) {
  std::vector<std::uint32_t> order(lengths.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return lengths[a] > lengths[b];
                   });
  return order;
}

/// The largest shard load of a plan.
std::uint64_t largest_load(const ShardPlan& plan) {
  std::uint64_t largest = 0;
  for (const auto& shard : plan.shards) {
    largest = std::max(largest, shard.residues);
  }
  return largest;
}

/// The smallest largest-run load over every cut of `loads` into `runs`
/// contiguous non-empty runs, by trying them all.
std::uint64_t brute_force_optimum(const std::vector<std::uint64_t>& loads,
                                  std::size_t runs) {
  std::uint64_t best = ~std::uint64_t{0};
  const auto recurse = [&](const auto& self, std::size_t begin,
                           std::size_t left, std::uint64_t largest) -> void {
    if (left == 1) {
      std::uint64_t last = 0;
      for (std::size_t i = begin; i < loads.size(); ++i) last += loads[i];
      best = std::min(best, std::max(largest, last));
      return;
    }
    std::uint64_t run = 0;
    for (std::size_t end = begin + 1; end + left - 1 <= loads.size(); ++end) {
      run += loads[end - 1];
      self(self, end, left - 1, std::max(largest, run));
    }
  };
  recurse(recurse, 0, runs, 0);
  return best;
}

TEST(ShardPlan, RunsAreContiguousInLongestFirstOrder) {
  // Lengths with many ties (and empty records): concatenating the shards,
  // each longest first with ties by id, must give the global order back.
  Rng rng(31);
  for (const std::size_t records : {5u, 40u, 300u}) {
    std::vector<std::uint32_t> lengths(records);
    for (auto& length : lengths) {
      length = static_cast<std::uint32_t>(rng.below(12) * rng.below(40));
    }
    const std::vector<std::uint32_t> order = longest_first(lengths);
    for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
      const ShardPlan plan = plan_shards(lengths, shards);
      const std::string label = std::to_string(records) + " records, " +
                                std::to_string(shards) + " shards";
      ASSERT_EQ(plan.shards.size(), std::min(shards, records)) << label;
      std::vector<std::uint32_t> concatenated;
      for (std::size_t s = 0; s < plan.shards.size(); ++s) {
        const auto& ids = plan.shards[s].records;
        ASSERT_FALSE(ids.empty()) << label;
        EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end())) << label;
        std::uint64_t residues = 0;
        for (const std::uint32_t id : ids) {
          residues += std::max<std::uint32_t>(lengths[id], 1);
        }
        EXPECT_EQ(plan.shards[s].residues, residues) << label;
        if (s + 1 < plan.shards.size()) {
          const auto& next = plan.shards[s + 1].records;
          std::uint32_t shortest = ~0u;
          std::uint32_t longest_next = 0;
          for (const std::uint32_t id : ids) {
            shortest = std::min(shortest, lengths[id]);
          }
          for (const std::uint32_t id : next) {
            longest_next = std::max(longest_next, lengths[id]);
          }
          EXPECT_GE(shortest, longest_next) << label << " shard " << s;
        }
        const std::size_t begin = concatenated.size();
        concatenated.insert(concatenated.end(), ids.begin(), ids.end());
        std::stable_sort(concatenated.begin() +
                             static_cast<std::ptrdiff_t>(begin),
                         concatenated.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return lengths[a] > lengths[b];
                         });
      }
      EXPECT_EQ(concatenated, order) << label;
    }
  }
}

TEST(ShardPlan, LargestShardIsTheBestContiguousCut) {
  Rng rng(37);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t records = 1 + rng.below(12);
    const std::size_t shards = 1 + rng.below(5);
    std::vector<std::uint32_t> lengths(records);
    for (auto& length : lengths) {
      // Mostly short, sometimes a giant, sometimes empty.
      length = static_cast<std::uint32_t>(
          rng.below(8) == 0 ? 200 + rng.below(400) : rng.below(60));
    }
    std::vector<std::uint64_t> loads;
    for (const std::uint32_t id : longest_first(lengths)) {
      loads.push_back(std::max<std::uint32_t>(lengths[id], 1));
    }
    const ShardPlan plan = plan_shards(lengths, shards);
    ASSERT_EQ(plan.shards.size(), std::min(shards, records));
    EXPECT_EQ(largest_load(plan),
              brute_force_optimum(loads, plan.shards.size()))
        << "trial " << trial << ": " << records << " records, " << shards
        << " shards";
  }
}

TEST(ShardPlan, RecordAboveTheFairShareSitsAlone) {
  // 40 short records and one giant worth more than a quarter of the total:
  // the giant leads the longest-first order and fills a shard by itself.
  Rng rng(41);
  std::vector<std::uint32_t> lengths(41);
  for (auto& length : lengths) {
    length = static_cast<std::uint32_t>(20 + rng.below(60));
  }
  lengths[17] = 5000;
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const ShardPlan plan = plan_shards(lengths, shards);
    ASSERT_EQ(plan.shards.size(), shards);
    EXPECT_EQ(plan.shards[0].records, std::vector<std::uint32_t>{17})
        << shards << " shards";
    EXPECT_EQ(plan.shards[0].residues, 5000u);
    EXPECT_EQ(largest_load(plan), 5000u) << shards << " shards";
  }
}

TEST(ShardPlan, ZipfSkewedLengthsStayResidueBalanced) {
  // Zipf-skewed record lengths concentrate residues in few hot records; the
  // contiguous-run planner must still bound per-shard residue imbalance to
  // <= 10%.
  Rng rng(23);
  std::vector<std::uint32_t> lengths(600);
  for (std::size_t i = 0; i < lengths.size(); ++i) {
    const double rank = static_cast<double>((i * 131) % lengths.size()) + 1.0;
    lengths[i] = static_cast<std::uint32_t>(
        20.0 + 4000.0 / std::pow(rank, 1.1) +
        static_cast<double>(rng.below(10)));
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    const ShardPlan plan = plan_shards(lengths, shards);
    EXPECT_LE(plan.imbalance(), 0.10)
        << shards << " shards, imbalance " << plan.imbalance();
  }
}

TEST(ShardPlan, EmptyDatabaseYieldsEmptyPlan) {
  const ShardPlan plan = plan_shards(DbView{}, 4);
  EXPECT_TRUE(plan.shards.empty());
  EXPECT_EQ(plan.imbalance(), 0.0);
}

// The battery: shard counts x kernels x available backends x
// serial/threaded, against the direct unsharded search.
TEST(ShardedSearch, BitIdenticalToUnshardedEverywhere) {
  const Corpus corpus = ragged_corpus(42, 60, 64);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  const std::size_t k = 10;

  const KernelKind kernels[] = {KernelKind::kScalar, KernelKind::kStriped,
                                KernelKind::kStriped8,
                                KernelKind::kInterSeq};
  for (const Backend backend : available_backends()) {
    for (const KernelKind kernel : kernels) {
      const SearchResult expected =
          search_database(corpus.query, db, scheme, kernel, backend);
      const std::vector<SearchHit> expected_hits = expected.top(k);
      for (const std::size_t shards : kShardCounts) {
        for (const std::size_t threads : {1u, 3u}) {
          ShardedSearchOptions options;
          options.num_shards = shards;
          options.threads_per_shard = threads;
          const ShardedSearchEngine engine(db, options);
          const ShardedSearchResult result =
              search_one(engine, corpus.query, scheme, kernel, k, backend);
          const std::string label =
              std::string(backend_name(backend)) + "/" +
              kernel_name(kernel) + "/shards=" + std::to_string(shards) +
              "/threads=" + std::to_string(threads);
          EXPECT_TRUE(result.complete) << label;
          EXPECT_TRUE(result.failures.empty()) << label;
          ASSERT_EQ(result.ranked.result.scores.size(),
                    expected.scores.size())
              << label;
          EXPECT_EQ(result.ranked.result.scores, expected.scores) << label;
          EXPECT_EQ(result.ranked.result.cells, expected.cells) << label;
          EXPECT_EQ(result.ranked.result.overflow_rescans,
                    expected.overflow_rescans)
              << label;
          expect_hits_equal(result.ranked.hits, expected_hits, label);
        }
      }
    }
  }
}

TEST(ShardedSearch, MultiQueryGroupMatchesPerQuerySearch) {
  const Corpus corpus = ragged_corpus(7, 50, 48);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  Rng rng(99);
  std::vector<std::vector<std::uint8_t>> query_storage;
  for (const std::size_t len : {30u, 48u, 65u, 90u}) {
    query_storage.push_back(random_codes(rng, len));
  }
  std::vector<std::span<const std::uint8_t>> queries;
  for (const auto& q : query_storage) queries.emplace_back(q.data(), q.size());

  ShardedSearchOptions options;
  options.num_shards = 3;
  options.threads_per_shard = 2;
  const ShardedSearchEngine engine(db, options);

  const auto group = engine.search_many(queries, scheme,
                                        KernelKind::kStriped8, 8);
  ASSERT_EQ(group.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const SearchResult expected =
        search_database(queries[q], db, scheme, KernelKind::kStriped8);
    EXPECT_TRUE(group[q].complete);
    EXPECT_EQ(group[q].ranked.result.scores, expected.scores)
        << "query " << q;
    expect_hits_equal(group[q].ranked.hits, expected.top(8),
                      "query " + std::to_string(q));
  }
  // One group pass over the shards, not one pass per query.
  EXPECT_EQ(engine.stats().group_passes, 1u);
  EXPECT_EQ(engine.stats().scans, 3u);
}

// With threads_per_shard 3 a failed shard spans several chunks on the
// shared pool, and its attempt-0 hook fires mid-pass on a pool thread.
TEST(ShardedSearch, FailedShardRetriesOnRecoveryPathAndStaysBitIdentical) {
  const Corpus corpus = ragged_corpus(5, 30, 40);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  const SearchResult expected =
      search_database(corpus.query, db, scheme, KernelKind::kInterSeq);

  for (const std::size_t threads : {1u, 3u}) {
    const std::string label = "threads=" + std::to_string(threads);
    std::atomic<int> injected{0};
    ShardedSearchOptions options;
    options.num_shards = 4;
    options.threads_per_shard = threads;
    options.max_shard_retries = 1;
    options.before_shard = [&](std::size_t shard, std::size_t attempt) {
      if (shard == 1 && attempt == 0) {
        ++injected;
        throw std::runtime_error("injected shard fault");
      }
    };
    const ShardedSearchEngine engine(db, options);
    const ShardedSearchResult result =
        search_one(engine, corpus.query, scheme, KernelKind::kInterSeq, 6);

    EXPECT_EQ(injected.load(), 1) << label;
    EXPECT_TRUE(result.complete) << label;
    EXPECT_TRUE(result.failures.empty()) << label;
    EXPECT_EQ(engine.stats().retries, 1u) << label;
    EXPECT_EQ(engine.stats().failures, 0u) << label;

    EXPECT_EQ(result.ranked.result.scores, expected.scores) << label;
    EXPECT_EQ(result.ranked.result.cells, expected.cells) << label;
    expect_hits_equal(result.ranked.hits, expected.top(6),
                      "recovered " + label);
  }
}

TEST(ShardedSearch, RetryBudgetExhaustionYieldsPartialResultsWithReason) {
  const Corpus corpus = ragged_corpus(6, 30, 40);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  const SearchResult expected =
      search_database(corpus.query, db, scheme, KernelKind::kStriped);

  for (const std::size_t threads : {1u, 3u}) {
    const std::string label = "threads=" + std::to_string(threads);
    ShardedSearchOptions options;
    options.num_shards = 3;
    options.threads_per_shard = threads;
    options.max_shard_retries = 2;
    options.before_shard = [](std::size_t shard, std::size_t) {
      if (shard == 2) throw std::runtime_error("shard 2 is on fire");
    };
    const ShardedSearchEngine engine(db, options);
    const ShardedSearchResult result =
        search_one(engine, corpus.query, scheme, KernelKind::kStriped, 5);

    EXPECT_FALSE(result.complete) << label;
    ASSERT_EQ(result.failures.size(), 1u) << label;
    EXPECT_EQ(result.failures[0].shard, 2u) << label;
    EXPECT_EQ(result.failures[0].attempts, 3u) << label;  // 1 try + 2 retries
    EXPECT_NE(result.failures[0].reason.find("on fire"), std::string::npos)
        << label;
    EXPECT_EQ(engine.stats().failures, 1u) << label;

    // The scanned shards' scores are still exact; the failed shard's
    // records read zero and are absent from the hits.
    const auto& failed_records = engine.plan().shards[2].records;
    std::vector<bool> failed(db.size(), false);
    for (const std::uint32_t id : failed_records) failed[id] = true;
    for (std::size_t i = 0; i < db.size(); ++i) {
      if (failed[i]) {
        EXPECT_EQ(result.ranked.result.scores[i], 0)
            << label << " record " << i;
      } else {
        EXPECT_EQ(result.ranked.result.scores[i], expected.scores[i])
            << label << " record " << i;
      }
    }
    for (const SearchHit& hit : result.ranked.hits) {
      EXPECT_FALSE(failed[hit.db_index])
          << label << " failed-shard record " << hit.db_index
          << " in partial hits";
    }
  }
}

TEST(ShardedSearch, PublicGroupPassesThrowOnFailedShard) {
  // Partial answers come only through the pipeline primitives, which report
  // the failure; the chunked engine's public passes never drop it silently.
  const Corpus corpus = ragged_corpus(8, 30, 40);
  ShardedSearchOptions options;
  options.num_shards = 3;
  options.threads_per_shard = 2;
  options.max_shard_retries = 1;
  options.before_shard = [](std::size_t shard, std::size_t) {
    if (shard == 0) throw std::runtime_error("shard 0 is gone");
  };
  const ShardedSearchEngine engine(corpus.view(), options);
  const SearchProfiles profiles(corpus.query, ScoringScheme{},
                                KernelKind::kInterSeq);
  const SearchProfiles* group[] = {&profiles};
  EXPECT_THROW((void)engine.search(profiles), Error);
  EXPECT_THROW((void)engine.search_ranked_many(group, 5), Error);

  std::vector<ShardFailure> failures;
  (void)engine.scan(group, 5, failures);
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].shard, 0u);
  EXPECT_NE(failures[0].reason.find("is gone"), std::string::npos);
  std::vector<ShardFailure> screen_failures;
  (void)engine.screen(group, 16, screen_failures);
  ASSERT_EQ(screen_failures.size(), 1u);
  EXPECT_EQ(screen_failures[0].shard, 0u);
}

TEST(ShardedSearch, FilteredShardPastRetryBudgetContributesNothing) {
  // Random records plus planted query homologs in every shard. Shard 1
  // fails every attempt: the filtered answer is partial, none of its
  // records may surface as a hit or count as a candidate, and the hits are
  // the exact top-k of the healthy records.
  Rng rng(0xfa17);
  Corpus corpus;
  corpus.query = random_codes(rng, 90);
  for (std::size_t i = 0; i < 60; ++i) {
    if (i % 5 == 2) {
      auto homolog = corpus.query;
      for (std::size_t p = i % 7; p < homolog.size(); p += 13) {
        homolog[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      corpus.records.push_back(std::move(homolog));
    } else {
      corpus.records.push_back(random_codes(
          rng, static_cast<std::size_t>(rng.between(40, 160))));
    }
  }
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  const std::size_t k = 5;
  FilterConfig filter;
  filter.mode = FilterMode::kHeuristic;
  filter.band = 12;
  filter.keep_factor = 2.0;

  const SearchProfiles profiles(corpus.query, scheme, KernelKind::kInterSeq);
  const std::vector<std::span<const std::uint8_t>> queries{
      {corpus.query.data(), corpus.query.size()}};
  for (const std::size_t threads : {1u, 3u}) {
    const std::string label = "threads=" + std::to_string(threads);
    ShardedSearchOptions options;
    options.num_shards = 3;
    options.threads_per_shard = threads;
    options.max_shard_retries = 1;
    options.before_shard = [](std::size_t shard, std::size_t) {
      if (shard == 1) throw std::runtime_error("shard 1 is down");
    };
    const ShardedSearchEngine engine(db, options);
    const auto many = engine.search_many_filtered(
        queries, scheme, KernelKind::kInterSeq, k, filter);
    ASSERT_EQ(many.size(), 1u) << label;
    const ShardedSearchResult& result = many[0];
    EXPECT_FALSE(result.complete) << label;
    ASSERT_EQ(result.failures.size(), 1u) << label;
    EXPECT_EQ(result.failures[0].shard, 1u) << label;

    std::vector<bool> failed(db.size(), false);
    for (const std::uint32_t id : engine.plan().shards[1].records) {
      failed[id] = true;
    }
    for (const SearchHit& hit : result.ranked.hits) {
      EXPECT_FALSE(failed[hit.db_index])
          << label << " failed-shard record " << hit.db_index
          << " in partial hits";
    }

    // The filtered stages with the failed shard's records screened as
    // lost, serially: the partial answer must count exactly the healthy
    // candidates and rank the healthy records' exact top-k.
    const FilterReference want =
        filter_reference(profiles.query(), db, scheme, filter, k, failed);
    EXPECT_EQ(result.filter.candidates, want.stats.candidates) << label;
    EXPECT_EQ(result.filter.rescans, want.stats.rescans) << label;

    DbView healthy;
    std::vector<std::size_t> healthy_index;
    for (std::size_t i = 0; i < db.size(); ++i) {
      if (failed[i]) continue;
      healthy.push_back(db[i]);
      healthy_index.push_back(i);
    }

    const SearchResult exact = search_database(profiles, healthy);
    std::vector<SearchHit> expected = exact.top(k);
    for (SearchHit& hit : expected) hit.db_index = healthy_index[hit.db_index];
    expect_hits_equal(result.ranked.hits, expected, "healthy top-k " + label);
  }
}

TEST(ShardedSearch, MappedSwdbShardsAreBitIdenticalToRecordViews) {
  Rng rng(17);
  std::vector<seq::Sequence> records;
  for (std::size_t i = 0; i < 40; ++i) {
    seq::Sequence s;
    s.id = "r" + std::to_string(i);
    s.residues = random_codes(rng, 1 + rng.below(90));
    records.push_back(std::move(s));
  }
  records[20].residues = random_codes(rng, 5000);  // ragged outlier
  const std::string path =
      testing::TempDir() + "/sharded_search_db.swdb";
  seq::write_swdb(path, records, seq::AlphabetKind::kProtein);
  auto mapped = std::make_shared<const seq::MappedSwdb>(path);

  const std::vector<std::uint8_t> query = random_codes(rng, 70);
  const ScoringScheme scheme;
  const DbView direct_view = make_db_view(records);
  const SearchResult expected =
      search_database(query, direct_view, scheme, KernelKind::kInterSeq);

  ShardedSearchOptions options;
  options.num_shards = 3;
  options.threads_per_shard = 2;
  const ShardedSearchEngine engine(mapped, options);
  const ShardedSearchResult result =
      search_one(engine, query, scheme, KernelKind::kInterSeq, 10);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.ranked.result.scores, expected.scores);
  expect_hits_equal(result.ranked.hits, expected.top(10), "mmap");

  // The lane-batch index cuts into the same plan as the record views.
  const ShardedSearchEngine from_views(direct_view, options);
  const ShardPlan expected_plan = plan_shards(direct_view, 3);
  ASSERT_EQ(engine.plan().shards.size(), expected_plan.shards.size());
  for (std::size_t s = 0; s < expected_plan.shards.size(); ++s) {
    EXPECT_EQ(engine.plan().shards[s].records,
              expected_plan.shards[s].records)
        << "shard " << s;
    EXPECT_EQ(from_views.plan().shards[s].records,
              expected_plan.shards[s].records)
        << "shard " << s;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace swdual::align
