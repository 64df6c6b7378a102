// Annotated-results battery (ctest label: annotate).
//
// Three layers. (1) The CIGAR machinery: Alignment::cigar() emission and
// validation, and cigar_score() as an independent score oracle — every
// CIGAR an annotated search reports must re-derive the hit's exact Gotoh
// score from the raw residues. (2) annotate_hits(): stats/cigar decoration,
// the post-ranking e-value cutoff, a 30k-residue record, bit-identity of
// annotated vs. unannotated hit lists across kernels, backends, thread
// counts, and shard topologies {1, 2, 5}, and filtered annotated answers
// identical field by field across engines whose pools run the rescan and
// the tracebacks. (3) StatsCache: deterministic calibration, LRU
// accounting, and first-writer-wins under concurrent acquire.
#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "align/alignment.h"
#include "align/annotate.h"
#include "align/backend.h"
#include "align/parallel_search.h"
#include "align/pipeline.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "align/statistics.h"
#include "align/traceback.h"
#include "seq/alphabet.h"
#include "util/error.h"
#include "util/rng.h"

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
};

/// Random corpus with edge cases (empty record, 1-residue record, long
/// outlier) plus a few planted homologs so the top-k has real alignments
/// with gaps, not just noise-level diagonals.
Corpus make_corpus(std::uint64_t seed, std::size_t n, std::size_t query_len) {
  Rng rng(seed);
  Corpus c;
  c.query = random_codes(rng, query_len);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < 4) {
      auto h = c.query;
      for (std::size_t p = 0; p < h.size(); p += 13 + i * 3) {
        h[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      if (i % 2 == 1 && h.size() > 20) {
        h.erase(h.begin() + 10, h.begin() + 10 + 2 + i);  // force gaps
      }
      c.records.push_back(std::move(h));
    } else {
      c.records.push_back(random_codes(
          rng, static_cast<std::size_t>(rng.between(1, 240))));
    }
  }
  if (n >= 8) {
    c.records[n - 3] = {};
    c.records[n - 2] = random_codes(rng, 1);
    c.records[n - 1] = random_codes(rng, 700);
  }
  return c;
}

KarlinAltschulParams test_params() {
  // Small calibration — the tests only need valid positive (λ, K).
  return calibrate_gapped_params(ScoringScheme{},
                                 std::vector<double>(20, 0.05), 60, 60, 40, 3);
}

/// One query through the search pipeline on `engine`, annotated.
SearchOutcome annotated_search(const SearchEngine& engine,
                               const SearchProfiles& profiles, std::size_t k,
                               const FilterConfig& filter,
                               const AnnotateConfig& annotate,
                               const KarlinAltschulParams& params) {
  const SearchProfiles* group[] = {&profiles};
  SearchRequest request;
  request.k = k;
  request.filter = filter;
  request.annotate = annotate;
  request.stats = &params;
  return std::move(search(engine, group, request).front());
}

// --- Layer 1: CIGAR emission + score oracle ------------------------------

TEST(Cigar, EmitsSamOpsAndRoundTripsScore) {
  // ACGT-style hand alignment over the protein alphabet codes: 2 matched
  // columns, a query insertion, 2 more columns, a db deletion run of 2.
  Alignment a;
  a.aligned_query = "AC" "W" "DE" "--";
  a.aligned_db = "AC" "-" "DE" "KL";
  a.score = 37;  // not validated by cigar(); only geometry is
  a.query_begin = 3;
  a.query_end = 7;
  a.db_begin = 11;
  a.db_end = 16;
  EXPECT_EQ(a.cigar(), "2M1I2M2D");
}

TEST(Cigar, EmptyAlignmentYieldsEmptyCigar) {
  Alignment a;
  EXPECT_EQ(a.cigar(), "");
  const std::vector<std::uint8_t> empty;
  EXPECT_EQ(cigar_score("", {empty.data(), 0}, {empty.data(), 0}, 0, 0,
                        ScoringScheme{}),
            0);
}

TEST(Cigar, EmissionValidatesCoordinateConsumption) {
  Alignment a;
  a.aligned_query = "AC";
  a.aligned_db = "AC";
  a.query_begin = 1;
  a.query_end = 3;  // claims 3 query residues, columns consume 2
  a.db_begin = 1;
  a.db_end = 2;
  EXPECT_THROW(a.cigar(), Error);
  a.query_end = 2;
  EXPECT_EQ(a.cigar(), "2M");
}

TEST(Cigar, ScoreOracleRejectsMalformedStrings) {
  Rng rng(42);
  const auto q = random_codes(rng, 30);
  const auto d = random_codes(rng, 30);
  const std::span<const std::uint8_t> qs{q.data(), q.size()};
  const std::span<const std::uint8_t> ds{d.data(), d.size()};
  const ScoringScheme scheme;
  EXPECT_THROW(cigar_score("M", qs, ds, 1, 1, scheme), InvalidArgument);
  EXPECT_THROW(cigar_score("0M", qs, ds, 1, 1, scheme), InvalidArgument);
  EXPECT_THROW(cigar_score("3", qs, ds, 1, 1, scheme), InvalidArgument);
  EXPECT_THROW(cigar_score("3X", qs, ds, 1, 1, scheme), InvalidArgument);
  EXPECT_THROW(cigar_score("99M", qs, ds, 1, 1, scheme), InvalidArgument);
  EXPECT_THROW(cigar_score("2M", qs, ds, 0, 1, scheme), InvalidArgument);
}

TEST(Cigar, TracebackCigarRederivesGotohScore) {
  // Property: for random pairs, sw_align_affine's CIGAR re-derives the
  // alignment's own score through the independent cigar_score() walk.
  Rng rng(0xc16a);
  const ScoringScheme scheme;
  for (int trial = 0; trial < 24; ++trial) {
    const auto q = random_codes(rng, 20 + trial * 7);
    auto d = q;
    for (std::size_t p = 0; p < d.size(); p += 11) {
      d[p] = static_cast<std::uint8_t>(rng.below(20));
    }
    if (trial % 3 == 0 && d.size() > 12) d.erase(d.begin() + 5, d.begin() + 9);
    const Alignment a =
        sw_align_affine({q.data(), q.size()}, {d.data(), d.size()}, scheme);
    EXPECT_EQ(cigar_score(a.cigar(), {q.data(), q.size()},
                          {d.data(), d.size()}, a.query_begin, a.db_begin,
                          scheme),
              a.score)
        << "trial " << trial;
  }
}

// --- Layer 2: annotate_hits + engine plumbing ----------------------------

TEST(AnnotateConfigTest, ValidateRejectsBadCutoffs) {
  AnnotateConfig config;
  config.mode = AnnotateMode::kStats;
  EXPECT_NO_THROW(config.validate());  // default +inf is valid
  config.evalue_cutoff = 10.0;
  EXPECT_NO_THROW(config.validate());
  config.evalue_cutoff = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.evalue_cutoff = -1.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
  config.evalue_cutoff = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(AnnotateConfigTest, ModeNamesRoundTrip) {
  AnnotateMode mode = AnnotateMode::kStats;
  EXPECT_TRUE(parse_annotate_mode("off", mode));
  EXPECT_EQ(mode, AnnotateMode::kOff);
  EXPECT_TRUE(parse_annotate_mode("stats", mode));
  EXPECT_EQ(mode, AnnotateMode::kStats);
  EXPECT_TRUE(parse_annotate_mode("stats+cigar", mode));
  EXPECT_EQ(mode, AnnotateMode::kStatsCigar);
  EXPECT_FALSE(parse_annotate_mode("cigar", mode));
  EXPECT_STREQ(annotate_mode_name(AnnotateMode::kOff), "off");
  EXPECT_STREQ(annotate_mode_name(AnnotateMode::kStats), "stats");
  EXPECT_STREQ(annotate_mode_name(AnnotateMode::kStatsCigar), "stats+cigar");
}

TEST(AnnotateHits, OffModeLeavesHitsUntouched) {
  const Corpus corpus = make_corpus(0xa0, 30, 100);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  std::vector<SearchHit> hits = search_database(corpus.query, db,
                                                ScoringScheme{},
                                                KernelKind::kInterSeq)
                                    .top(5);
  const std::vector<SearchHit> before = hits;
  annotate_hits(hits, corpus.query, db, ScoringScheme{}, AnnotateConfig{},
                params, db_residue_count(db));
  ASSERT_EQ(hits.size(), before.size());
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].db_index, before[i].db_index);
    EXPECT_EQ(hits[i].score, before[i].score);
    EXPECT_EQ(hits[i].annotation, nullptr);
  }
}

TEST(AnnotateHits, StatsModeAttachesEvalueAndBitsOnly) {
  const Corpus corpus = make_corpus(0xa1, 40, 120);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  const ScoringScheme scheme;
  std::vector<SearchHit> hits =
      search_database(corpus.query, db, scheme, KernelKind::kInterSeq).top(6);
  AnnotateConfig config;
  config.mode = AnnotateMode::kStats;
  annotate_hits(hits, corpus.query, db, scheme, config, params,
                db_residue_count(db));
  ASSERT_FALSE(hits.empty());
  for (const SearchHit& hit : hits) {
    ASSERT_NE(hit.annotation, nullptr);
    EXPECT_GT(hit.annotation->evalue, 0.0);
    EXPECT_DOUBLE_EQ(hit.annotation->evalue,
                     evalue(params, hit.score, corpus.query.size(),
                            db_residue_count(db)));
    EXPECT_DOUBLE_EQ(hit.annotation->bits, bit_score(params, hit.score));
    EXPECT_TRUE(hit.annotation->cigar.empty());
    EXPECT_EQ(hit.annotation->query_begin, 0u);
  }
  // Ranking is by descending score, so e-values are ascending-monotone.
  for (std::size_t i = 1; i < hits.size(); ++i) {
    EXPECT_LE(hits[i - 1].annotation->evalue, hits[i].annotation->evalue);
  }
}

TEST(AnnotateHits, EvalueGrowsWithSearchSpace) {
  const Corpus corpus = make_corpus(0xa2, 30, 100);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  const ScoringScheme scheme;
  AnnotateConfig config;
  config.mode = AnnotateMode::kStats;
  std::vector<SearchHit> small =
      search_database(corpus.query, db, scheme, KernelKind::kInterSeq).top(3);
  std::vector<SearchHit> large = small;
  const std::uint64_t n = db_residue_count(db);
  annotate_hits(small, corpus.query, db, scheme, config, params, n);
  annotate_hits(large, corpus.query, db, scheme, config, params, 10 * n);
  ASSERT_EQ(small.size(), large.size());
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_NEAR(large[i].annotation->evalue / small[i].annotation->evalue,
                10.0, 1e-9);
  }
}

TEST(AnnotateHits, CutoffDropsExactlyTheInsignificantSuffix) {
  const Corpus corpus = make_corpus(0xa3, 60, 130);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  const ScoringScheme scheme;
  std::vector<SearchHit> all =
      search_database(corpus.query, db, scheme, KernelKind::kInterSeq).top(10);
  AnnotateConfig config;
  config.mode = AnnotateMode::kStats;
  std::vector<SearchHit> reference = all;
  annotate_hits(reference, corpus.query, db, scheme, config, params,
                db_residue_count(db));
  ASSERT_GE(reference.size(), 3u);
  // Cut between two distinct e-values so the expectation is unambiguous.
  const double cutoff = reference[1].annotation->evalue;
  std::size_t expected_kept = 0;
  while (expected_kept < reference.size() &&
         reference[expected_kept].annotation->evalue <= cutoff) {
    ++expected_kept;
  }
  ASSERT_LT(expected_kept, reference.size()) << "cutoff dropped nothing";
  config.evalue_cutoff = cutoff;
  std::vector<SearchHit> cut = all;
  annotate_hits(cut, corpus.query, db, scheme, config, params,
                db_residue_count(db));
  ASSERT_EQ(cut.size(), expected_kept);
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(cut[i].db_index, reference[i].db_index) << "not a prefix";
    EXPECT_EQ(cut[i].score, reference[i].score);
  }
}

TEST(AnnotateHits, LongRecordCigarPassesScoreOracle) {
  // A 30k-residue record holding a gapped 1.5k-residue homolog of the
  // query, annotated through a threaded engine. The traceback's memory is
  // linear in the sequences (the region's full matrices would be ~27 MB),
  // and its CIGAR must re-derive the search score.
  const ScoringScheme scheme;
  Rng rng(0x30c0);
  const std::vector<std::uint8_t> query = random_codes(rng, 1500);
  std::vector<std::uint8_t> homolog = query;
  for (std::size_t p = 0; p < homolog.size(); p += 9) {
    homolog[p] = static_cast<std::uint8_t>(rng.below(20));
  }
  homolog.erase(homolog.begin() + 600, homolog.begin() + 606);
  const std::vector<std::uint8_t> insert = random_codes(rng, 4);
  homolog.insert(homolog.begin() + 1100, insert.begin(), insert.end());
  std::vector<std::uint8_t> record = random_codes(rng, 14000);
  record.insert(record.end(), homolog.begin(), homolog.end());
  const std::vector<std::uint8_t> tail =
      random_codes(rng, 30000 - record.size());
  record.insert(record.end(), tail.begin(), tail.end());
  ASSERT_EQ(record.size(), 30000u);
  const std::vector<std::uint8_t> before = random_codes(rng, 200);
  const std::vector<std::uint8_t> after = random_codes(rng, 300);
  const DbView db{{before.data(), before.size()},
                  {record.data(), record.size()},
                  {after.data(), after.size()}};

  const KarlinAltschulParams params = test_params();
  ParallelSearchOptions options;
  options.threads = 2;
  const ParallelSearchEngine engine(db, options);
  const SearchProfiles profiles({query.data(), query.size()}, scheme,
                                KernelKind::kInterSeq);
  AnnotateConfig config;
  config.mode = AnnotateMode::kStatsCigar;
  const SearchOutcome out =
      annotated_search(engine, profiles, 3, FilterConfig{}, config, params);
  ASSERT_EQ(out.ranked.hits.size(), 3u);
  const SearchHit& best = out.ranked.hits.front();
  EXPECT_EQ(best.db_index, 1u);
  for (const SearchHit& hit : out.ranked.hits) {
    ASSERT_NE(hit.annotation, nullptr);
    const HitAnnotation& note = *hit.annotation;
    EXPECT_EQ(cigar_score(note.cigar, {query.data(), query.size()},
                          db[hit.db_index], note.query_begin, note.db_begin,
                          scheme),
              hit.score)
        << "hit " << hit.db_index << " cigar " << note.cigar;
  }
  const HitAnnotation& note = *best.annotation;
  EXPECT_GT(note.db_begin, 14000u);
  EXPECT_LE(note.db_end, 14000u + homolog.size());
  EXPECT_NE(note.cigar.find('D'), std::string::npos);
  EXPECT_NE(note.cigar.find('I'), std::string::npos);
}

class AnnotateBackends : public ::testing::TestWithParam<Backend> {
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

 private:
  std::string saved_;
};

/// Every hit of an annotated result must (a) carry a CIGAR that re-derives
/// its exact search score from the raw residues, and (b) match the
/// unannotated ranking hit-for-hit (cutoff = +inf).
void check_annotated(const std::vector<SearchHit>& annotated,
                     const std::vector<SearchHit>& plain, const Corpus& corpus,
                     const DbView& db, const ScoringScheme& scheme,
                     const KarlinAltschulParams& params, std::uint64_t n,
                     const std::string& what) {
  ASSERT_EQ(annotated.size(), plain.size()) << what;
  for (std::size_t i = 0; i < annotated.size(); ++i) {
    EXPECT_EQ(annotated[i].db_index, plain[i].db_index) << what << " #" << i;
    EXPECT_EQ(annotated[i].score, plain[i].score) << what << " #" << i;
    ASSERT_NE(annotated[i].annotation, nullptr) << what << " #" << i;
    const HitAnnotation& note = *annotated[i].annotation;
    EXPECT_DOUBLE_EQ(
        note.evalue,
        evalue(params, annotated[i].score, corpus.query.size(), n))
        << what << " #" << i;
    const std::span<const std::uint8_t> record = db[annotated[i].db_index];
    EXPECT_EQ(cigar_score(note.cigar, {corpus.query.data(),
                                       corpus.query.size()},
                          record, note.query_begin, note.db_begin, scheme),
              annotated[i].score)
        << what << " hit " << i << " cigar " << note.cigar;
    if (annotated[i].score > 0) {
      EXPECT_FALSE(note.cigar.empty()) << what << " #" << i;
    }
  }
}

TEST_P(AnnotateBackends, CigarOracleAcrossKernelsEnginesAndShards) {
  const ScoringScheme scheme;
  const Corpus corpus = make_corpus(0x51ca, 80, 140);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  const std::uint64_t n = db_residue_count(db);
  const std::size_t k = 8;
  AnnotateConfig config;
  config.mode = AnnotateMode::kStatsCigar;

  for (KernelKind kernel : {KernelKind::kInterSeq, KernelKind::kStriped}) {
    const std::vector<SearchHit> plain =
        search_database(corpus.query, db, scheme, kernel, GetParam()).top(k);

    const SearchProfiles profiles(
        {corpus.query.data(), corpus.query.size()}, scheme, kernel,
        GetParam());
    const SearchOutcome serial = annotated_search(
        SerialSearchEngine(db), profiles, k, FilterConfig{}, config, params);
    check_annotated(serial.ranked.hits, plain, corpus, db, scheme, params, n,
                    std::string("serial ") + kernel_name(kernel));

    for (std::size_t threads : {1u, 3u}) {
      ParallelSearchOptions options;
      options.threads = threads;
      const ParallelSearchEngine engine(db, options);
      const SearchOutcome par = annotated_search(
          engine, profiles, k, FilterConfig{}, config, params);
      check_annotated(par.ranked.hits, plain, corpus, db, scheme, params, n,
                      std::string("parallel x") + std::to_string(threads) +
                          " " + kernel_name(kernel));
    }

    for (std::size_t shard_count : {1u, 2u, 5u}) {
      ShardedSearchOptions options;
      options.num_shards = shard_count;
      const ShardedSearchEngine engine(db, options);
      const SearchOutcome sharded = annotated_search(
          engine, profiles, k, FilterConfig{}, config, params);
      ASSERT_TRUE(sharded.complete);
      check_annotated(sharded.ranked.hits, plain, corpus, db, scheme, params,
                      n,
                      std::string("sharded x") + std::to_string(shard_count) +
                          " " + kernel_name(kernel));
    }
  }
}

TEST_P(AnnotateBackends, FilteredAnnotatedMatchesFilteredPlain) {
  const ScoringScheme scheme;
  const Corpus corpus = make_corpus(0xf11e, 90, 120);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  const std::uint64_t n = db_residue_count(db);
  const std::size_t k = 6;
  FilterConfig filter;
  filter.mode = FilterMode::kHeuristic;
  filter.band = 16;
  filter.keep_factor = 4.0;
  AnnotateConfig config;
  config.mode = AnnotateMode::kStatsCigar;

  const SearchProfiles profiles({corpus.query.data(), corpus.query.size()},
                                scheme, KernelKind::kInterSeq, GetParam());
  const SerialSearchEngine engine(db);
  const SearchOutcome plain = annotated_search(engine, profiles, k, filter,
                                               AnnotateConfig{}, params);
  const SearchOutcome annotated =
      annotated_search(engine, profiles, k, filter, config, params);
  check_annotated(annotated.ranked.hits, plain.ranked.hits, corpus, db,
                  scheme, params, n, "filtered serial");
  EXPECT_EQ(annotated.filter.candidates, plain.filter.candidates);
}

TEST_P(AnnotateBackends, FilteredAnnotatedIdenticalAcrossEnginesAndShards) {
  // The threaded engines rescan candidates and trace back hits on their
  // pools; a filtered stats+cigar answer must still equal the serial
  // engine's field by field, for every query of a group.
  const ScoringScheme scheme;
  const Corpus corpus = make_corpus(0x7a9e, 120, 130);
  const DbView db = corpus.view();
  const KarlinAltschulParams params = test_params();
  SearchRequest request;
  request.k = 8;
  request.filter.mode = FilterMode::kHeuristic;
  request.filter.band = 12;
  request.filter.keep_factor = 3.0;
  request.annotate.mode = AnnotateMode::kStatsCigar;
  request.stats = &params;

  // Two queries: the corpus query and a slice of one of its homologs.
  const std::vector<std::uint8_t> second(corpus.records[1].begin() + 5,
                                         corpus.records[1].end() - 5);
  const SearchProfiles first_profiles(
      {corpus.query.data(), corpus.query.size()}, scheme,
      KernelKind::kInterSeq, GetParam());
  const SearchProfiles second_profiles({second.data(), second.size()}, scheme,
                                       KernelKind::kInterSeq, GetParam());
  const SearchProfiles* group[] = {&first_profiles, &second_profiles};
  const std::vector<SearchOutcome> serial =
      search(SerialSearchEngine(db), group, request);
  ASSERT_EQ(serial.size(), 2u);

  const auto expect_same = [&](const std::vector<SearchOutcome>& got,
                               const std::string& what) {
    ASSERT_EQ(got.size(), serial.size()) << what;
    for (std::size_t q = 0; q < got.size(); ++q) {
      const SearchOutcome& a = got[q];
      const SearchOutcome& b = serial[q];
      EXPECT_TRUE(a.complete) << what;
      EXPECT_EQ(a.ranked.result.scores, b.ranked.result.scores) << what;
      EXPECT_EQ(a.filter.candidates, b.filter.candidates) << what;
      EXPECT_EQ(a.filter.rescans, b.filter.rescans) << what;
      EXPECT_EQ(a.filter.band_uncertain, b.filter.band_uncertain) << what;
      ASSERT_EQ(a.ranked.hits.size(), b.ranked.hits.size()) << what;
      for (std::size_t i = 0; i < a.ranked.hits.size(); ++i) {
        const SearchHit& x = a.ranked.hits[i];
        const SearchHit& y = b.ranked.hits[i];
        const std::string at =
            what + " query " + std::to_string(q) + " #" + std::to_string(i);
        EXPECT_EQ(x.db_index, y.db_index) << at;
        EXPECT_EQ(x.score, y.score) << at;
        ASSERT_NE(x.annotation, nullptr) << at;
        ASSERT_NE(y.annotation, nullptr) << at;
        EXPECT_EQ(x.annotation->evalue, y.annotation->evalue) << at;
        EXPECT_EQ(x.annotation->bits, y.annotation->bits) << at;
        EXPECT_EQ(x.annotation->cigar, y.annotation->cigar) << at;
        EXPECT_EQ(x.annotation->query_begin, y.annotation->query_begin) << at;
        EXPECT_EQ(x.annotation->query_end, y.annotation->query_end) << at;
        EXPECT_EQ(x.annotation->db_begin, y.annotation->db_begin) << at;
        EXPECT_EQ(x.annotation->db_end, y.annotation->db_end) << at;
      }
    }
  };

  for (std::size_t threads : {1u, 4u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    expect_same(search(ParallelSearchEngine(db, options), group, request),
                "parallel x" + std::to_string(threads));
  }
  for (std::size_t shard_count : {1u, 2u, 5u}) {
    for (std::size_t threads : {1u, 3u}) {
      ShardedSearchOptions options;
      options.num_shards = shard_count;
      options.threads_per_shard = threads;
      expect_same(search(ShardedSearchEngine(db, options), group, request),
                  "sharded " + std::to_string(shard_count) + "x" +
                      std::to_string(threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, AnnotateBackends,
                         ::testing::Values(Backend::kScalar, Backend::kSSE2,
                                           Backend::kAVX2, Backend::kAVX512),
                         [](const ::testing::TestParamInfo<Backend>& pi) {
                           return std::string(backend_name(pi.param));
                         });

// --- Layer 3: StatsCache --------------------------------------------------

TEST(StatsCacheTest, MissCalibratesThenHitsShareTheObject) {
  StatsCache cache(4);
  const auto a = cache.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                               "db1");
  ASSERT_NE(a, nullptr);
  EXPECT_GT(a->lambda, 0.0);
  EXPECT_GT(a->k, 0.0);
  const auto b = cache.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                               "db1");
  EXPECT_EQ(a.get(), b.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
}

TEST(StatsCacheTest, KeySeparatesSchemeAlphabetAndDb) {
  StatsCache cache(8);
  const auto base = cache.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                                  "db1");
  ScoringScheme pricier;
  pricier.gap.open += 2;
  EXPECT_NE(base.get(),
            cache.acquire(pricier, seq::Alphabet::protein(), "db1").get());
  EXPECT_NE(base.get(),
            cache.acquire(ScoringScheme{}, seq::Alphabet::protein(), "db2")
                .get());
  // Same inputs calibrate to identical values even via separate caches —
  // the fixed seed and alphabet-derived background make it deterministic.
  StatsCache other(8);
  const auto twin = other.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                                  "db1");
  EXPECT_DOUBLE_EQ(base->lambda, twin->lambda);
  EXPECT_DOUBLE_EQ(base->k, twin->k);
}

TEST(StatsCacheTest, EvictsLeastRecentlyUsed) {
  StatsCache cache(2);
  const auto a = cache.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                               "a");
  cache.acquire(ScoringScheme{}, seq::Alphabet::protein(), "b");
  cache.acquire(ScoringScheme{}, seq::Alphabet::protein(), "a");  // refresh
  cache.acquire(ScoringScheme{}, seq::Alphabet::protein(), "c");  // evict b
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().size, 2u);
  // "a" survived the eviction; re-acquiring is a hit on the same object.
  EXPECT_EQ(cache.acquire(ScoringScheme{}, seq::Alphabet::protein(), "a")
                .get(),
            a.get());
}

TEST(StatsCacheTest, ConcurrentAcquireConvergesToOneObject) {
  StatsCache cache(4);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const KarlinAltschulParams>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      seen[t] = cache.acquire(ScoringScheme{}, seq::Alphabet::protein(),
                              "race");
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].get(), seen[0].get()) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().size, 1u);
}

}  // namespace
}  // namespace swdual::align
