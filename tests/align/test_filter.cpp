// Two-stage filtered-search battery (ctest label: filter).
//
// Layer 1 — the vectorized banded screen kernel must be bit-identical to
// the scalar banded_gotoh_score on every backend, including the 8→16-bit
// escalation and overflow decisions and the banded cell count, on mixed
// lengths and on lane groups of one length. Layer 2 — the filter pipeline: mode
// `off` is bit-identical to the unfiltered search across kernels, backends
// and shard counts; heuristic mode reaches perfect recall on a
// homolog-planted corpus and near-perfect recall on random ones, measured
// against the exact top-k oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/banded.h"
#include "align/kernel_banded.h"
#include "align/parallel_search.h"
#include "align/pipeline.h"
#include "align/scalar.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "seq/alphabet.h"
#include "util/error.h"
#include "util/rng.h"

#include "screen_reference.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(20));
  return out;
}

struct Corpus {
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> records;

  DbView view() const {
    DbView v;
    for (const auto& r : records) v.emplace_back(r.data(), r.size());
    return v;
  }
  SequenceViews seq_views() const {
    SequenceViews v;
    for (const auto& r : records) v.emplace_back(r.data(), r.size());
    return v;
  }
};

/// Random corpus with batching edge cases: an empty record, a 1-residue
/// record, a lane-multiple record, and one long outlier.
Corpus make_corpus(std::uint64_t seed, std::size_t n, std::size_t query_len,
                   std::size_t max_len) {
  Rng rng(seed);
  Corpus c;
  c.query = random_codes(rng, query_len);
  for (std::size_t i = 0; i < n; ++i) {
    c.records.push_back(random_codes(
        rng,
        static_cast<std::size_t>(rng.between(1, static_cast<int>(max_len)))));
  }
  if (n >= 4) {
    c.records[0] = {};
    c.records[1] = random_codes(rng, 1);
    c.records[2] = random_codes(rng, 64);
    c.records[3] = random_codes(rng, max_len + 700);
  }
  return c;
}

/// Homolog-planted corpus: mostly random records plus `planted` mutated
/// copies of the query — the top-k mass the filter must not lose.
Corpus make_planted(std::uint64_t seed, std::size_t n, std::size_t planted,
                    std::size_t query_len) {
  Rng rng(seed);
  Corpus c;
  c.query = random_codes(rng, query_len);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < planted) {
      auto h = c.query;
      for (std::size_t p = 0; p < h.size(); p += 17 + i % 5) {
        h[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      c.records.push_back(std::move(h));
    } else {
      c.records.push_back(random_codes(
          rng, static_cast<std::size_t>(rng.between(40, 200))));
    }
  }
  return c;
}

class FilterBackends : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (const char* old = std::getenv("SWDUAL_FORCE_BACKEND")) saved_ = old;
    if (!backend_available(GetParam())) {
      GTEST_SKIP() << backend_name(GetParam())
                   << " backend not available on this host";
    }
  }
  void TearDown() override {
    if (saved_.empty()) {
      ::unsetenv("SWDUAL_FORCE_BACKEND");
    } else {
      ::setenv("SWDUAL_FORCE_BACKEND", saved_.c_str(), 1);
    }
  }
  static void force(Backend backend) {
    ::setenv("SWDUAL_FORCE_BACKEND", backend_name(backend), 1);
  }
  /// Screens `views` on the tested backend and expects the screen's
  /// contract against the scalar reference (screen_reference.h); returns
  /// the reference.
  ScreenReference expect_screen_like_scalar(std::span<const std::uint8_t> query,
                                            const SequenceViews& views,
                                            const ScoringScheme& scheme,
                                            std::size_t band,
                                            const std::string& where) {
    const ScreenReference want = screen_reference(query, views, scheme, band);
    force(GetParam());
    EXPECT_EQ(screen_mismatch(banded_screen(query, views, scheme, band), want),
              "")
        << where;
    return want;
  }

 private:
  std::string saved_;
};

TEST_P(FilterBackends, ScreenKernelMatchesScalarBanded) {
  const ScoringScheme scheme;
  for (std::uint64_t seed : {0xabcdULL, 0x1234ULL}) {
    const Corpus corpus = make_corpus(seed, 53, 150, 300);
    const SequenceViews views = corpus.seq_views();
    for (std::size_t band : {1u, 8u, 32u, 512u}) {
      expect_screen_like_scalar(corpus.query, views, scheme, band,
                                "band " + std::to_string(band));
    }
  }
}

TEST_P(FilterBackends, ScreenMatchesScalarBackendBitwise) {
  const ScoringScheme scheme;
  const Corpus corpus = make_corpus(0xbeefULL, 70, 180, 400);
  const SequenceViews views = corpus.seq_views();
  for (std::size_t band : {4u, 24u}) {
    force(Backend::kScalar);
    const BandedBatchResult ref =
        banded_screen(corpus.query, views, scheme, band);
    force(GetParam());
    const BandedBatchResult got =
        banded_screen(corpus.query, views, scheme, band);
    ASSERT_EQ(got.scores, ref.scores) << "band " << band;
    ASSERT_EQ(got.overflow, ref.overflow) << "band " << band;
    ASSERT_EQ(got.edge_hit, ref.edge_hit) << "band " << band;
    ASSERT_EQ(got.cells, ref.cells) << "band " << band;
  }
}

TEST_P(FilterBackends, ScreenEscalatesAndFlagsOverflowLikeScalar) {
  // Poly-tryptophan homologs saturate the byte tier (11/residue); the
  // longest one saturates even 16 bits and must come back overflow-flagged.
  const ScoringScheme scheme;
  Rng rng(0xf10a);
  std::vector<std::uint8_t> query(3200, 17);
  std::vector<std::vector<std::uint8_t>> records;
  records.push_back(std::vector<std::uint8_t>(3100, 17));  // 16-bit overflow
  records.push_back(std::vector<std::uint8_t>(40, 17));    // u8-escalated
  records.push_back(std::vector<std::uint8_t>(400, 17));   // u8-escalated
  for (int i = 0; i < 13; ++i) records.push_back(random_codes(rng, 120));
  SequenceViews views;
  for (const auto& r : records) views.emplace_back(r.data(), r.size());
  for (std::size_t band : {6u, 64u}) {
    // Each banded cell counts once, however many tiers screened it.
    const ScreenReference want = expect_screen_like_scalar(
        query, views, scheme, band, "band " + std::to_string(band));
    EXPECT_GE(want.records[0].score, std::numeric_limits<std::int16_t>::max())
        << "band " << band;
  }
}

TEST_P(FilterBackends, UniformLaneGroupsMatchScalarBanded) {
  // Records of one length fill whole lane groups, which the screen walks
  // with one band geometry per group; a partial group and the 16-bit
  // regroup take the paced path. Record counts put full, partial and
  // single-record groups at both of the backend's lane widths; shapes
  // cover n = m, n ≪ m and n ≫ m (columns whose window is empty). One
  // record is a copy of the query's prefix: under BLOSUM62 it saturates
  // the byte tier, and under a match-100 matrix it also overflows 16 bits
  // wherever its whole diagonal lies in the band.
  const Backend backend = GetParam();
  std::vector<std::size_t> counts;
  for (const std::size_t lanes :
       {backend_lanes8(backend), backend_lanes16(backend)}) {
    for (const std::size_t count : {lanes - 1, lanes, lanes + 1,
                                    2 * lanes + 3}) {
      counts.push_back(count);
    }
  }
  const std::size_t max_count = *std::max_element(counts.begin(), counts.end());
  static const ScoreMatrix high_match =
      ScoreMatrix::uniform(seq::AlphabetKind::kProtein, 100, -20);
  const ScoringScheme schemes[] = {ScoringScheme{},
                                   ScoringScheme{&high_match, GapPenalty{}}};
  struct Shape {
    std::size_t m, n;
  };
  Rng rng(0x0f1f);
  bool escalated = false;
  bool overflowed = false;
  for (const ScoringScheme& scheme : schemes) {
    for (const Shape shape : {Shape{400, 400}, Shape{400, 40},
                              Shape{30, 500}}) {
      const std::vector<std::uint8_t> query = random_codes(rng, shape.m);
      std::vector<std::vector<std::uint8_t>> records;
      for (std::size_t i = 0; i < max_count; ++i) {
        records.push_back(random_codes(rng, shape.n));
      }
      for (std::size_t band : {1u, 16u, 128u}) {
        for (const std::size_t count : counts) {
          std::vector<std::vector<std::uint8_t>> group(
              records.begin(),
              records.begin() + static_cast<std::ptrdiff_t>(count));
          std::vector<std::uint8_t>& homolog = group[count / 2];
          std::copy_n(query.begin(), std::min(shape.m, shape.n),
                      homolog.begin());
          SequenceViews views;
          for (const auto& r : group) views.emplace_back(r.data(), r.size());
          const ScreenReference want = expect_screen_like_scalar(
              query, views, scheme, band,
              "m " + std::to_string(shape.m) + " n " +
                  std::to_string(shape.n) + " band " + std::to_string(band) +
                  " records " + std::to_string(count));
          for (const BandedResult& record : want.records) {
            escalated = escalated || record.score > 255;
            overflowed =
                overflowed ||
                record.score >= std::numeric_limits<std::int16_t>::max();
          }
        }
      }
    }
  }
  EXPECT_TRUE(escalated) << "no homolog saturated the byte tier";
  EXPECT_TRUE(overflowed) << "no homolog overflowed 16 bits";
}

// --- Layer 2: the filter pipeline ----------------------------------------

void expect_same_hits(const std::vector<SearchHit>& got,
                      const std::vector<SearchHit>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].db_index, want[i].db_index) << what << " hit " << i;
    EXPECT_EQ(got[i].score, want[i].score) << what << " hit " << i;
  }
}

/// Recall of `got` against the exact top-k `want`: a hit counts as recalled
/// when its record is present, or when a same-scored record is (tied ranks
/// are interchangeable under the ranking's db-order tiebreak).
double recall_against(const std::vector<SearchHit>& got,
                      const std::vector<SearchHit>& want) {
  if (want.empty()) return 1.0;
  std::size_t found = 0;
  for (const SearchHit& w : want) {
    for (const SearchHit& g : got) {
      if (g.db_index == w.db_index || g.score == w.score) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(found) / static_cast<double>(want.size());
}

/// One query through the search pipeline on `engine`.
SearchOutcome pipeline_search(const SearchEngine& engine,
                              std::span<const std::uint8_t> query,
                              const ScoringScheme& scheme, KernelKind kernel,
                              std::size_t k, const FilterConfig& filter,
                              Backend backend = Backend::kAuto) {
  const SearchProfiles profiles(query, scheme, kernel, backend);
  const SearchProfiles* group[] = {&profiles};
  SearchRequest request;
  request.k = k;
  request.filter = filter;
  return std::move(search(engine, group, request).front());
}

TEST(FilterConfigTest, ValidateRejectsBadParameters) {
  FilterConfig config;
  config.mode = FilterMode::kHeuristic;
  EXPECT_NO_THROW(config.validate());
  config.band = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.band = 16;
  config.keep_factor = 0.5;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.keep_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.keep_factor = std::numeric_limits<double>::infinity();
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.keep_factor = 4.0;
  EXPECT_NO_THROW(config.validate());
}

TEST(FilterConfigTest, ModeNamesRoundTrip) {
  FilterMode mode = FilterMode::kHeuristic;
  EXPECT_TRUE(parse_filter_mode("off", mode));
  EXPECT_EQ(mode, FilterMode::kOff);
  EXPECT_TRUE(parse_filter_mode("heuristic", mode));
  EXPECT_EQ(mode, FilterMode::kHeuristic);
  EXPECT_FALSE(parse_filter_mode("exact-ish", mode));
  EXPECT_STREQ(filter_mode_name(FilterMode::kOff), "off");
  EXPECT_STREQ(filter_mode_name(FilterMode::kHeuristic), "heuristic");
}

TEST_P(FilterBackends, OffModeBitIdenticalAcrossEngines) {
  const ScoringScheme scheme;
  const Corpus corpus = make_corpus(0x0ffULL, 90, 120, 260);
  const DbView db = corpus.view();
  const std::size_t k = 8;
  FilterConfig off;
  off.mode = FilterMode::kOff;
  force(GetParam());

  const SearchResult exact = search_database(
      corpus.query, db, scheme, KernelKind::kInterSeq, GetParam());
  const std::vector<SearchHit> exact_top = exact.top(k);

  const SearchOutcome serial =
      pipeline_search(SerialSearchEngine(db), corpus.query, scheme,
                      KernelKind::kInterSeq, k, off, GetParam());
  EXPECT_EQ(serial.ranked.result.scores, exact.scores);
  expect_same_hits(serial.ranked.hits, exact_top, "serial off");

  for (std::size_t threads : {1u, 3u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(db, options);
    const SearchOutcome par = pipeline_search(
        engine, corpus.query, scheme, KernelKind::kInterSeq, k, off,
        GetParam());
    EXPECT_EQ(par.ranked.result.scores, exact.scores) << threads << " threads";
    expect_same_hits(par.ranked.hits, exact_top,
                     "parallel off x" + std::to_string(threads));
  }

  for (std::size_t shards : {1u, 3u}) {
    ShardedSearchOptions options;
    options.num_shards = shards;
    const ShardedSearchEngine engine(db, options);
    const std::span<const std::uint8_t> q(corpus.query.data(),
                                          corpus.query.size());
    const std::vector<std::span<const std::uint8_t>> queries{q};
    const auto many = engine.search_many_filtered(
        queries, scheme, KernelKind::kInterSeq, k, off, GetParam());
    ASSERT_EQ(many.size(), 1u);
    ASSERT_TRUE(many[0].complete);
    EXPECT_FALSE(many[0].filtered);
    EXPECT_EQ(many[0].ranked.result.scores, exact.scores)
        << shards << " shards";
    expect_same_hits(many[0].ranked.hits, exact_top,
                     "sharded off x" + std::to_string(shards));
  }
}

TEST_P(FilterBackends, HeuristicIdenticalAcrossEnginesAndShards) {
  // Heuristic selection is global and deterministic, so serial, parallel
  // and sharded engines must agree hit-for-hit at any topology.
  const ScoringScheme scheme;
  const Corpus corpus = make_planted(0x5e1ecULL, 160, 6, 110);
  const DbView db = corpus.view();
  const std::size_t k = 6;
  FilterConfig config;
  config.mode = FilterMode::kHeuristic;
  config.band = 12;
  config.keep_factor = 3.0;
  force(GetParam());

  const SearchOutcome serial =
      pipeline_search(SerialSearchEngine(db), corpus.query, scheme,
                      KernelKind::kInterSeq, k, config, GetParam());
  ASSERT_EQ(serial.ranked.hits.size(), k);
  EXPECT_GE(serial.filter.candidates, k);
  EXPECT_EQ(serial.filter.rescans, serial.filter.candidates);

  for (std::size_t threads : {1u, 3u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(db, options);
    const SearchOutcome par = pipeline_search(
        engine, corpus.query, scheme, KernelKind::kInterSeq, k, config,
        GetParam());
    EXPECT_EQ(par.ranked.result.scores, serial.ranked.result.scores)
        << threads;
    expect_same_hits(par.ranked.hits, serial.ranked.hits,
                     "parallel heuristic x" + std::to_string(threads));
    EXPECT_EQ(par.filter.candidates, serial.filter.candidates) << threads;
  }

  for (std::size_t shards : {1u, 2u, 5u}) {
    ShardedSearchOptions options;
    options.num_shards = shards;
    options.threads_per_shard = 2;
    const ShardedSearchEngine engine(db, options);
    const std::span<const std::uint8_t> q(corpus.query.data(),
                                          corpus.query.size());
    const std::vector<std::span<const std::uint8_t>> queries{q};
    const auto many = engine.search_many_filtered(
        queries, scheme, KernelKind::kInterSeq, k, config, GetParam());
    ASSERT_EQ(many.size(), 1u);
    ASSERT_TRUE(many[0].complete);
    EXPECT_TRUE(many[0].filtered);
    expect_same_hits(many[0].ranked.hits, serial.ranked.hits,
                     "sharded heuristic x" + std::to_string(shards));
    EXPECT_EQ(many[0].filter.candidates, serial.filter.candidates) << shards;
  }
}

TEST_P(FilterBackends, RescanCutMatchesSerialSearchRange) {
  // The threaded engines cut a longest-first candidate view into
  // residue-balanced, lane-batch-aligned ranges on their pools. Every cut
  // must reproduce one serial search_range bit for bit: at the lane-batch
  // edges, and with one long record ahead of short ones.
  const ScoringScheme scheme;
  Rng rng(0x5ca7);
  const std::vector<std::uint8_t> query = random_codes(rng, 300);
  const std::size_t lanes = backend_lanes16(GetParam());
  // The long record holds the query, so its score saturates the striped8
  // byte tier and escalates (overflow_rescans > 0).
  std::vector<std::uint8_t> long_record = random_codes(rng, 750);
  long_record.insert(long_record.end(), query.begin(), query.end());
  const std::vector<std::uint8_t> tail = random_codes(rng, 750);
  long_record.insert(long_record.end(), tail.begin(), tail.end());
  std::vector<std::vector<std::uint8_t>> short_records;
  for (std::size_t i = 0; i < 3 * lanes; ++i) {
    short_records.push_back(random_codes(rng, 300));
  }
  DbView shorts;
  for (const auto& r : short_records) shorts.emplace_back(r.data(), r.size());

  std::vector<DbView> views;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, lanes - 1,
                              lanes, lanes + 1}) {
    views.emplace_back(shorts.begin(),
                       shorts.begin() + static_cast<std::ptrdiff_t>(n));
  }
  DbView skewed{{long_record.data(), long_record.size()}};
  skewed.insert(skewed.end(), shorts.begin(), shorts.end());
  views.push_back(skewed);

  ParallelSearchOptions parallel_options;
  parallel_options.threads = 4;
  const ParallelSearchEngine parallel(shorts, parallel_options);
  ShardedSearchOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.threads_per_shard = 2;
  const ShardedSearchEngine sharded(shorts, sharded_options);
  const std::pair<const char*, const SearchEngine*> engines[] = {
      {"parallel x4", &parallel}, {"sharded 2x2", &sharded}};

  for (KernelKind kernel : {KernelKind::kInterSeq, KernelKind::kStriped8}) {
    const SearchProfiles profiles({query.data(), query.size()}, scheme,
                                  kernel, GetParam());
    for (const DbView& view : views) {
      const SearchResult serial = search_range(profiles, view, 0, view.size());
      if (kernel == KernelKind::kStriped8 && view.size() == skewed.size()) {
        EXPECT_GT(serial.overflow_rescans, 0u);
      }
      for (const auto& [name, engine] : engines) {
        const SearchResult cut = engine->rescan(profiles, view);
        const std::string what = std::string(name) + " " +
                                 kernel_name(kernel) + ", " +
                                 std::to_string(view.size()) + " candidates";
        EXPECT_EQ(cut.scores, serial.scores) << what;
        EXPECT_EQ(cut.cells, serial.cells) << what;
        EXPECT_EQ(cut.overflow_rescans, serial.overflow_rescans) << what;
      }
    }
  }
}

TEST_P(FilterBackends, RescreenCutMatchesSerialScreenRange) {
  // The cascade's re-screen on the threaded engines cuts each query's view
  // into ranges aligned to the screen backend's byte lanes and runs every
  // query's ranges in one fan-out. Each query's answer must reproduce one
  // serial screen_range bit for bit (scores, both flags, cells): at the
  // lane-batch edges, with one long record ahead of short ones, and with
  // the queries' views of different sizes.
  const ScoringScheme scheme;
  Rng rng(0x5c2e);
  const std::vector<std::uint8_t> query = random_codes(rng, 120);
  const std::vector<std::uint8_t> other = random_codes(rng, 95);
  const std::size_t lanes = backend_lanes8(GetParam());
  std::vector<std::vector<std::uint8_t>> records;
  for (std::size_t i = 0; i < 3 * lanes; ++i) {
    if (i % 2 != 0) {
      records.push_back(random_codes(rng, 120));
      continue;
    }
    // Half the records are homologs of the query, whose byte tier
    // saturates and regroups at 16 bits.
    records.push_back(query);
    for (std::size_t p = i % 5; p < query.size(); p += 9) {
      records.back()[p] = static_cast<std::uint8_t>(rng.below(20));
    }
  }
  const std::vector<std::uint8_t> long_record = random_codes(rng, 900);
  DbView all;
  for (const auto& r : records) all.emplace_back(r.data(), r.size());

  std::vector<DbView> views;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, lanes - 1,
                              lanes, lanes + 1, 3 * lanes}) {
    views.emplace_back(all.begin(),
                       all.begin() + static_cast<std::ptrdiff_t>(n));
  }
  DbView skewed{{long_record.data(), long_record.size()}};
  skewed.insert(skewed.end(), all.begin(), all.end());
  views.push_back(skewed);

  ParallelSearchOptions parallel_options;
  parallel_options.threads = 4;
  const ParallelSearchEngine parallel(all, parallel_options);
  ShardedSearchOptions sharded_options;
  sharded_options.num_shards = 2;
  sharded_options.threads_per_shard = 2;
  const ShardedSearchEngine sharded(all, sharded_options);
  const std::pair<const char*, const SearchEngine*> engines[] = {
      {"parallel x4", &parallel}, {"sharded 2x2", &sharded}};

  const SearchProfiles first({query.data(), query.size()}, scheme,
                             KernelKind::kInterSeq, GetParam());
  const SearchProfiles second({other.data(), other.size()}, scheme,
                              KernelKind::kInterSeq, GetParam());
  const SearchProfiles* group[] = {&first, &second};
  for (const std::size_t band : {std::size_t{3}, std::size_t{24}}) {
    for (std::size_t v = 0; v < views.size(); ++v) {
      // The second query screens the next view, so the two differ in size.
      const DbView pair[] = {views[v], views[(v + 1) % views.size()]};
      for (const auto& [name, engine] : engines) {
        const std::vector<ScreenResult> cut =
            engine->rescreen(group, pair, band);
        ASSERT_EQ(cut.size(), 2u);
        for (std::size_t q = 0; q < 2; ++q) {
          const ScreenResult serial =
              screen_range(*group[q], pair[q], 0, pair[q].size(), band);
          const std::string what = std::string(name) + " band " +
                                   std::to_string(band) + ", query " +
                                   std::to_string(q) + ", " +
                                   std::to_string(pair[q].size()) + " records";
          EXPECT_EQ(cut[q].scores, serial.scores) << what;
          EXPECT_EQ(cut[q].exact, serial.exact) << what;
          EXPECT_EQ(cut[q].edge_hit, serial.edge_hit) << what;
          EXPECT_EQ(cut[q].cells, serial.cells) << what;
        }
      }
    }
  }
}

TEST(FilterPipeline, HeuristicPerfectRecallOnPlantedCorpus) {
  // Every top-k slot is held by a planted homolog (plant > k), so the
  // screen's banded lower bound ranks them far above the noise — recall
  // must be exactly 1.0, as servebench's `recall_at_k` reads on
  // miss-filtered-annotated.
  const ScoringScheme scheme;
  FilterConfig config;
  config.mode = FilterMode::kHeuristic;
  config.band = 16;
  config.keep_factor = 4.0;
  const std::size_t k = 10;
  for (std::uint64_t seed : {0x9a0ULL, 0x9a1ULL, 0x9a2ULL}) {
    const Corpus corpus = make_planted(seed, 320, 12, 150);
    const DbView db = corpus.view();
    const SearchResult exact =
        search_database(corpus.query, db, scheme, KernelKind::kInterSeq);
    const SearchOutcome got =
        pipeline_search(SerialSearchEngine(db), corpus.query, scheme,
                        KernelKind::kInterSeq, k, config);
    EXPECT_EQ(recall_against(got.ranked.hits, exact.top(k)), 1.0)
        << "seed " << seed;
    EXPECT_LT(got.filter.rescans, db.size())
        << "filter rescanned everything; screen did no work";
  }
}

TEST(FilterPipeline, HeuristicHighRecallOnRandomCorpus) {
  // Random corpora are the filter's worst case: with no homolog mass the
  // top-k is weak off-diagonal noise, invisible to a narrow diagonal band
  // (the documented miss class, DESIGN.md). Heuristic mode must still
  // clear 0.99 aggregate recall — it takes a wide band (most records are
  // then fully covered and carry the exactness certificate) and a generous
  // keep factor, the configuration recommended for non-homolog workloads.
  const ScoringScheme scheme;
  FilterConfig config;
  config.mode = FilterMode::kHeuristic;
  config.band = 128;
  config.keep_factor = 12.0;
  const std::size_t k = 10;
  double recalled = 0.0;
  int trials = 0;
  for (std::uint64_t seed : {0x7a0ULL, 0x7a1ULL, 0x7a2ULL, 0x7a3ULL}) {
    const Corpus corpus = make_corpus(seed, 400, 130, 250);
    const DbView db = corpus.view();
    const SearchResult exact =
        search_database(corpus.query, db, scheme, KernelKind::kInterSeq);
    const SearchOutcome got =
        pipeline_search(SerialSearchEngine(db), corpus.query, scheme,
                        KernelKind::kInterSeq, k, config);
    recalled += recall_against(got.ranked.hits, exact.top(k));
    ++trials;
  }
  EXPECT_GE(recalled / trials, 0.99);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, FilterBackends,
                         ::testing::Values(Backend::kScalar, Backend::kSSE2,
                                           Backend::kAVX2, Backend::kAVX512),
                         [](const ::testing::TestParamInfo<Backend>& pi) {
                           return std::string(backend_name(pi.param));
                         });

}  // namespace
}  // namespace swdual::align
