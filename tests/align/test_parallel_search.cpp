// Parallel-vs-serial equivalence for the chunked search engine: identical
// scores, cells, and overflow accounting for every kernel across thread
// counts and chunk geometries, plus byte-level determinism across runs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "align/parallel_search.h"
#include "align/search.h"
#include "obs/trace.h"
#include "seq/dbgen.h"
#include "seq/swdb.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<seq::Sequence> random_database(std::size_t count,
                                           std::uint64_t seed,
                                           std::size_t min_len = 10,
                                           std::size_t max_len = 300) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(
            rng.between(static_cast<std::int64_t>(min_len),
                        static_cast<std::int64_t>(max_len)))));
  }
  return db;
}

/// Byte-level equality of the deterministic parts of a SearchResult
/// (seconds is wall-clock and excluded by design).
void expect_identical(const SearchResult& a, const SearchResult& b) {
  ASSERT_EQ(a.scores.size(), b.scores.size());
  if (!a.scores.empty()) {
    EXPECT_EQ(std::memcmp(a.scores.data(), b.scores.data(),
                          a.scores.size() * sizeof(int)),
              0);
  }
  EXPECT_EQ(a.cells, b.cells);
  EXPECT_EQ(a.overflow_rescans, b.overflow_rescans);
}

/// One query through the engine's exact scan, profiles built per call.
SearchResult engine_search(const ParallelSearchEngine& engine,
                           std::span<const std::uint8_t> query,
                           const ScoringScheme& scheme, KernelKind kernel) {
  const SearchProfiles profiles(query, scheme, kernel);
  return engine.search(profiles);
}

class ParallelSearchKernels : public ::testing::TestWithParam<KernelKind> {};

TEST_P(ParallelSearchKernels, MatchesSerialAcrossThreadCounts) {
  const auto db = random_database(60, 11);
  const DbView views = make_db_view(db);
  Rng rng(12);
  const seq::Sequence query = seq::random_protein(rng, "q", 120);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  const SearchResult serial =
      search_database(query_view, views, scheme, GetParam());
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(views, options);
    expect_identical(engine_search(engine, query_view, scheme, GetParam()),
                     serial);
  }
}

TEST_P(ParallelSearchKernels, MatchesSerialAcrossChunkGeometries) {
  const auto db = random_database(25, 13);
  const DbView views = make_db_view(db);
  Rng rng(14);
  const seq::Sequence query = seq::random_protein(rng, "q", 80);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  const SearchResult serial =
      search_database(query_view, views, scheme, GetParam());
  // 4 chunks per thread: a few records per chunk at 1 and 2 threads, and
  // single-record chunks at 7 (28 parts over 25 records).
  for (const std::size_t threads : {1u, 2u, 7u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(views, options);
    expect_identical(engine_search(engine, query_view, scheme, GetParam()),
                     serial);
  }
}

TEST_P(ParallelSearchKernels, DeterministicAcrossRepeatedRuns) {
  const auto db = random_database(40, 15);
  const DbView views = make_db_view(db);
  Rng rng(16);
  const seq::Sequence query = seq::random_protein(rng, "q", 150);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  ParallelSearchOptions options;
  options.threads = 4;
  const ParallelSearchEngine engine(views, options);
  const SearchResult first =
      engine_search(engine, query_view, scheme, GetParam());
  for (int run = 0; run < 3; ++run) {
    expect_identical(engine_search(engine, query_view, scheme, GetParam()),
                     first);
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ParallelSearchKernels,
                         ::testing::Values(KernelKind::kScalar,
                                           KernelKind::kStriped8),
                         [](const auto& param_info) {
                           return kernel_name(param_info.param);
                         });

TEST(ParallelSearch, OverflowEscalationMatchesSerial) {
  // A planted self-similar giant saturates the 8-bit tier, exercising the
  // 16-bit tier inside the chunks.
  Rng rng(17);
  std::vector<seq::Sequence> db = random_database(12, 18, 20, 120);
  seq::Sequence big;
  big.id = "big";
  big.alphabet = seq::AlphabetKind::kProtein;
  big.residues.assign(3000, 17);  // poly-W
  db.push_back(big);
  const DbView views = make_db_view(db);
  const std::span<const std::uint8_t> query_view(big.residues.data(),
                                                 big.residues.size());
  ScoringScheme scheme;
  const SearchResult serial =
      search_database(query_view, views, scheme, KernelKind::kStriped8);
  EXPECT_GE(serial.overflow_rescans, 1u);
  ParallelSearchOptions options;
  options.threads = 4;
  const ParallelSearchEngine engine(views, options);
  expect_identical(
      engine_search(engine, query_view, scheme, KernelKind::kStriped8),
      serial);
}

TEST(ParallelSearch, RankedSearchEqualsTopOfFullResult) {
  const auto db = random_database(50, 19);
  const DbView views = make_db_view(db);
  Rng rng(20);
  const seq::Sequence query = seq::random_protein(rng, "q", 100);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  ParallelSearchOptions options;
  options.threads = 4;
  const ParallelSearchEngine engine(views, options);
  const SearchProfiles profiles(query_view, scheme, KernelKind::kStriped8);
  const SearchProfiles* group[] = {&profiles};
  for (const std::size_t k : {1u, 5u, 200u}) {
    const RankedSearchResult ranked =
        engine.search_ranked_many(group, k).front();
    const auto expected = ranked.result.top(k);
    ASSERT_EQ(ranked.hits.size(), expected.size()) << "k=" << k;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(ranked.hits[i].db_index, expected[i].db_index) << "k=" << k;
      EXPECT_EQ(ranked.hits[i].score, expected[i].score) << "k=" << k;
    }
  }
}

TEST(ParallelSearch, EmptyDatabaseAndEmptyQuery) {
  const DbView empty_db;
  ParallelSearchOptions options;
  options.threads = 2;
  const ParallelSearchEngine engine(empty_db, options);
  ScoringScheme scheme;
  Rng rng(21);
  const seq::Sequence query = seq::random_protein(rng, "q", 30);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
    const SearchResult r = engine_search(engine, query_view, scheme, kernel);
    EXPECT_TRUE(r.scores.empty());
    EXPECT_EQ(r.cells, 0u);
  }

  const auto db = random_database(10, 22);
  const DbView views = make_db_view(db);
  const ParallelSearchEngine full(views, options);
  for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
    const SearchResult serial = search_database({}, views, scheme, kernel);
    expect_identical(engine_search(full, {}, scheme, kernel), serial);
  }
}

TEST(ParallelSearch, MappedDatabaseMatchesRecordViews) {
  // The zero-copy path: an engine built over a MappedSwdb must score
  // bit-identically to one built over in-memory record views — for every
  // kernel (both lay the records out longest first from their lengths).
  const std::string path =
      ::testing::TempDir() + "/swdual_parallel_mapped.swdb";
  const auto db = random_database(48, 31);
  const DbView views = make_db_view(db);
  Rng rng(32);
  const seq::Sequence query = seq::random_protein(rng, "q", 110);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  seq::write_swdb(path, db, seq::AlphabetKind::kProtein);
  {
    const seq::MappedSwdb mapped(path);
    ParallelSearchOptions options;
    options.threads = 3;
    const ParallelSearchEngine from_views(views, options);
    const ParallelSearchEngine from_mapped(mapped, options);
    for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
      expect_identical(engine_search(from_mapped, query_view, scheme, kernel),
                       engine_search(from_views, query_view, scheme, kernel));
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelSearch, MappedEngineReadsResiduesInPlace) {
  // The engine scans its records longest first, yet record(i) is still
  // database record i, and its span points into the mapping, not at a
  // copy.
  const std::string path =
      ::testing::TempDir() + "/swdual_parallel_in_place.swdb";
  seq::write_swdb(path, random_database(40, 41, 10, 80),
                  seq::AlphabetKind::kProtein);
  {
    const seq::MappedSwdb mapped(path);
    ParallelSearchOptions options;
    options.threads = 2;
    const ParallelSearchEngine engine(mapped, options);
    EXPECT_EQ(engine.db_residues(), mapped.total_residues());
    for (std::size_t i = 0; i < mapped.size(); ++i) {
      EXPECT_EQ(engine.record(i).data(), mapped.residues(i).data())
          << "record " << i;
      EXPECT_EQ(engine.record(i).size(), mapped.length(i)) << "record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(ParallelSearch, ResidueBalancedPartitionCoversAndBalances) {
  // Heavily skewed lengths: auto partitioning must still cover every record
  // exactly once and produce the requested chunk structure.
  Rng rng(23);
  std::vector<seq::Sequence> db;
  for (int i = 0; i < 64; ++i) {
    db.push_back(seq::random_protein(rng, "d", i % 8 == 0 ? 2000 : 20));
  }
  const DbView views = make_db_view(db);
  ParallelSearchOptions options;
  options.threads = 2;
  const ParallelSearchEngine engine(views, options);
  EXPECT_EQ(engine.num_chunks(), 8u);
  EXPECT_EQ(engine.db_records(), db.size());
  const seq::Sequence query = seq::random_protein(rng, "q", 64);
  const std::span<const std::uint8_t> query_view(query.residues.data(),
                                                 query.residues.size());
  ScoringScheme scheme;
  const SearchResult serial =
      search_database(query_view, views, scheme, KernelKind::kStriped8);
  expect_identical(
      engine_search(engine, query_view, scheme, KernelKind::kStriped8),
      serial);
}

TEST(ParallelSearch, ScreenChunksBalanceRecordsExactChunksBalanceResidues) {
  // A longest-first view: 64 records of 300 residues, then 1000 of 24. The
  // banded screen costs one band window per record, so its cut balances
  // record counts; the exact scans' cut balances residues.
  Rng rng(29);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < 1064; ++i) {
    db.push_back(seq::random_protein(rng, "d", i < 64 ? 300 : 24));
  }
  const DbView view = make_db_view(db);
  constexpr std::size_t kParts = 8;
  constexpr std::size_t kBatch = 16;
  const auto covers = [&](const std::vector<RecordRange>& ranges) {
    ASSERT_FALSE(ranges.empty());
    EXPECT_EQ(ranges.front().begin, 0u);
    EXPECT_EQ(ranges.back().end, view.size());
    for (std::size_t r = 0; r < ranges.size(); ++r) {
      EXPECT_LT(ranges[r].begin, ranges[r].end) << r;
      if (r > 0) {
        EXPECT_EQ(ranges[r].begin, ranges[r - 1].end) << r;
      }
      if (r + 1 < ranges.size()) {
        EXPECT_EQ(ranges[r].end % kBatch, 0u) << r;
      }
    }
  };

  const std::vector<RecordRange> screen =
      balanced_ranges(view, kParts, kBatch, RecordCost::kRecord);
  covers(screen);
  EXPECT_EQ(screen.size(), kParts);
  for (const RecordRange& range : screen) {
    const std::size_t records = range.end - range.begin;
    EXPECT_LE(records, view.size() / kParts + kBatch) << range.begin;
    EXPECT_GE(records + kBatch, view.size() / kParts) << range.begin;
  }

  const std::vector<RecordRange> exact =
      balanced_ranges(view, kParts, kBatch, RecordCost::kResidues);
  covers(exact);
  const std::uint64_t total = 64 * 300 + 1000 * 24;
  for (const RecordRange& range : exact) {
    std::uint64_t residues = 0;
    for (std::size_t i = range.begin; i < range.end; ++i) {
      residues += view[i].size();
    }
    // Snapping a cut to a lane batch moves it by at most one batch of the
    // longest records.
    EXPECT_LE(residues, total / kParts + kBatch * 300) << range.begin;
    EXPECT_GE(residues + kBatch * 300, total / kParts) << range.begin;
  }
  // The long records fill the first exact chunks: far fewer records each
  // than the screen's even split.
  EXPECT_LT(exact.front().end, screen.front().end);
}

TEST(ParallelSearch, ScreenChunksCutAtTheScreenBackendLanes) {
  // The screen's chunks keep the screen backend's byte-lane batches whole,
  // not the exact kernel's: auto striped8 profiles scan on AVX2 on an
  // AVX-512 host but screen 64 lanes at a time. 800 records over 8 chunks
  // put the even cuts at multiples of 100, which snap to 96 for 32 lanes
  // and to 128 for 64. Only the chunk that ends the database may hold a
  // partial batch (the pass runs its chunks in cost order, so that chunk
  // need not come last).
  const auto db = random_database(800, 31, 40, 120);
  const DbView views = make_db_view(db);
  Rng rng(32);
  const seq::Sequence query = seq::random_protein(rng, "q", 90);
  const SearchProfiles profiles(
      {query.residues.data(), query.residues.size()}, ScoringScheme{},
      KernelKind::kStriped8);
  const std::size_t lanes = backend_lanes8(profiles.screen_backend());
  obs::Tracer tracer;
  ParallelSearchOptions options;
  options.threads = 2;
  options.tracer = &tracer;
  const ParallelSearchEngine engine(views, options);
  const SearchProfiles* group[] = {&profiles};
  std::vector<ShardFailure> failures;
  const ScreenResult screened = engine.screen(group, 16, failures).front();
  EXPECT_EQ(screened.scores,
            screen_range(profiles, views, 0, views.size(), 16).scores);

  std::size_t chunks = 0;
  std::size_t partial = 0;
  std::size_t total = 0;
  for (const obs::TraceEvent& event : tracer.flush()) {
    if (event.name != "filter_screen") continue;
    const auto records = static_cast<std::size_t>(event.arg("records", 0.0));
    ++chunks;
    total += records;
    if (records % lanes != 0) ++partial;
  }
  EXPECT_GT(chunks, 1u);
  EXPECT_LE(partial, 1u);
  EXPECT_EQ(total, views.size());
}

}  // namespace
}  // namespace swdual::align
