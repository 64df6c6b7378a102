// Cross-backend equivalence: every compiled-and-runnable SIMD backend must
// produce bit-identical scores AND identical overflow (8→16-bit escalation)
// decisions to the scalar reference backend, on every kernel, through every
// driver layer (raw kernels, search_database, the chunked parallel engine).
// Backends the host cannot execute are skipped, not failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/kernel_interseq.h"
#include "align/kernel_striped8.h"
#include "align/parallel_search.h"
#include "align/scalar.h"
#include "align/search.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len,
                                       std::size_t alphabet = 20) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(alphabet));
  return out;
}

/// A small random protein corpus plus one query, with a few length-extreme
/// records (empty-ish, lane-multiple, long) to exercise batching edges.
struct Corpus {
  std::vector<std::uint8_t> query;
  std::vector<std::vector<std::uint8_t>> records;

  DbView view() const {
    DbView v;
    for (const auto& r : records) v.emplace_back(r.data(), r.size());
    return v;
  }
};

Corpus make_corpus(std::uint64_t seed, std::size_t n, std::size_t query_len,
                   std::size_t max_len) {
  Rng rng(seed);
  Corpus c;
  c.query = random_codes(rng, query_len);
  c.records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    c.records.push_back(random_codes(
        rng, static_cast<std::size_t>(rng.between(1, static_cast<int>(max_len)))));
  }
  if (n >= 3) {
    c.records[0] = random_codes(rng, 1);
    c.records[1] = random_codes(rng, 64);    // lane-count multiple
    c.records[2] = random_codes(rng, max_len);
  }
  return c;
}

class BackendEquivalence : public ::testing::TestWithParam<Backend> {
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
  /// Route all kAuto dispatch in the code under test to `backend`.
  static void force(Backend backend) {
    ::setenv("SWDUAL_FORCE_BACKEND", backend_name(backend), 1);
  }

 private:
  std::string saved_;
};

TEST_P(BackendEquivalence, Striped8MatchesScalarPairwise) {
  const Corpus corpus = make_corpus(0x5eed, 40, 180, 300);
  const ScoringScheme scheme;
  for (const auto& record : corpus.records) {
    force(Backend::kScalar);
    const StripedResult ref8 = striped8_score(corpus.query, record, scheme);
    force(GetParam());
    const StripedResult got8 = striped8_score(corpus.query, record, scheme);
    ASSERT_EQ(got8.score, ref8.score);
    ASSERT_EQ(got8.overflow, ref8.overflow)
        << "8-bit escalation decision diverged on "
        << backend_name(GetParam());
  }
}

TEST_P(BackendEquivalence, InterSeqMatchesScalarBatch) {
  const Corpus corpus = make_corpus(0xba7c, 37, 120, 400);
  const ScoringScheme scheme;
  SequenceViews views;
  for (const auto& r : corpus.records) views.emplace_back(r.data(), r.size());
  const InterSeqResult ref =
      kernel_table(Backend::kScalar).interseq(corpus.query, views, scheme);
  const InterSeqResult got =
      kernel_table(GetParam()).interseq(corpus.query, views, scheme);
  ASSERT_EQ(got.scores, ref.scores);
  ASSERT_EQ(got.overflow, ref.overflow);
  ASSERT_EQ(got.cells, ref.cells) << "padding must not be billed as cells";
}

TEST_P(BackendEquivalence, SearchDatabaseMatchesScalarOnEveryKernel) {
  const Corpus corpus = make_corpus(0xdb, 60, 200, 350);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  force(Backend::kScalar);
  const SearchResult ref =
      search_database(corpus.query, db, scheme, KernelKind::kStriped8);
  force(GetParam());
  const SearchResult got =
      search_database(corpus.query, db, scheme, KernelKind::kStriped8);
  ASSERT_EQ(got.scores, ref.scores);
  ASSERT_EQ(got.cells, ref.cells);
  ASSERT_EQ(got.overflow_rescans, ref.overflow_rescans)
      << "escalation decisions diverged";
}

TEST_P(BackendEquivalence, EscalationDecisionsMatchUnderForcedOverflow) {
  // Half the records are near-copies of a poly-tryptophan query, so the
  // byte tier saturates on them (score 11/residue ≫ the u8 ceiling) and the
  // search must escalate those — and only those — pairs identically.
  Rng rng(0xf00d);
  std::vector<std::uint8_t> query(600, 17);  // 'W' scores 11 vs itself
  std::vector<std::vector<std::uint8_t>> records;
  for (std::size_t i = 0; i < 24; ++i) {
    if (i % 2 == 0) {
      std::vector<std::uint8_t> hot = query;
      hot.resize(300 + 20 * i, 17);
      records.push_back(std::move(hot));
    } else {
      records.push_back(random_codes(rng, 200));
    }
  }
  DbView db;
  for (const auto& r : records) db.emplace_back(r.data(), r.size());
  const ScoringScheme scheme;
  force(Backend::kScalar);
  const SearchResult ref =
      search_database(query, db, scheme, KernelKind::kStriped8);
  EXPECT_GT(ref.overflow_rescans, 0u) << "corpus failed to saturate";
  force(GetParam());
  const SearchResult got =
      search_database(query, db, scheme, KernelKind::kStriped8);
  EXPECT_EQ(got.scores, ref.scores);
  EXPECT_EQ(got.overflow_rescans, ref.overflow_rescans);
}

TEST_P(BackendEquivalence, ExplicitBackendParamMatchesForcedEnv) {
  // The Backend parameter threaded through the drivers must agree with the
  // env override route (both end in the same kernel table).
  const Corpus corpus = make_corpus(0xca11, 30, 150, 250);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  force(GetParam());
  const SearchResult via_env =
      search_database(corpus.query, db, scheme, KernelKind::kStriped8);
  ::unsetenv("SWDUAL_FORCE_BACKEND");
  const SearchResult via_param = search_database(
      corpus.query, db, scheme, KernelKind::kStriped8, GetParam());
  EXPECT_EQ(via_param.scores, via_env.scores);
  EXPECT_EQ(via_param.cells, via_env.cells);
}

TEST_P(BackendEquivalence, ParallelEngineMatchesSerialScalarAcrossThreads) {
  const Corpus corpus = make_corpus(0x9a7, 90, 160, 300);
  const DbView db = corpus.view();
  const ScoringScheme scheme;
  force(Backend::kScalar);
  const SearchResult ref =
      search_database(corpus.query, db, scheme, KernelKind::kStriped8);
  force(GetParam());
  for (std::size_t threads : {1u, 4u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(db, options);
    const SearchProfiles profiles(corpus.query, scheme, KernelKind::kStriped8);
    const SearchResult got = engine.search(profiles);
    ASSERT_EQ(got.scores, ref.scores) << "threads=" << threads;
    ASSERT_EQ(got.cells, ref.cells) << "threads=" << threads;
  }
}

TEST_P(BackendEquivalence, InterSeqRaggedLengthsMatchScalarAcrossThreads) {
  // Worst case for the 16-bit tier's lane batching: striped8 saturates on
  // one 5000-residue outlier and on about half of 50 short records of
  // ragged lengths, all of which carry a poly-tryptophan run that the
  // query shares (11 per residue, far past the byte tier). The tier's
  // longest-first order puts the giant in its first batch beside short
  // records; every backend and thread count must still score each record
  // as gotoh_score does.
  Rng rng(0xaaa9);
  // `len` random residues with a run of `run` <= len tryptophans centred.
  const auto with_run = [&rng](std::size_t len, std::size_t run) {
    std::vector<std::uint8_t> codes = random_codes(rng, len);
    std::fill_n(codes.begin() + static_cast<std::ptrdiff_t>((len - run) / 2),
                run, std::uint8_t{17});  // 'W'
    return codes;
  };
  std::vector<std::vector<std::uint8_t>> records;
  for (std::size_t i = 0; i < 50; ++i) {
    const std::size_t len = 30 + rng.below(61);
    records.push_back(i % 2 == 0 ? with_run(len, 25)
                                 : random_codes(rng, len));
  }
  records.push_back(with_run(5000, 40));
  DbView db;
  for (const auto& r : records) db.emplace_back(r.data(), r.size());
  const std::vector<std::uint8_t> query = with_run(200, 40);
  const ScoringScheme scheme;
  std::vector<int> want;
  std::uint64_t want_cells = 0;
  for (const auto& record : db) {
    const ScoreResult r = gotoh_score(query, record, scheme);
    want.push_back(r.score);
    want_cells += r.cells;
  }
  const SearchResult serial =
      search_database(query, db, scheme, KernelKind::kStriped8, GetParam());
  EXPECT_GE(serial.overflow_rescans, 2u) << "corpus failed to saturate";
  ASSERT_EQ(serial.scores, want);
  ASSERT_EQ(serial.cells, want_cells);
  const SearchProfiles profiles(query, scheme, KernelKind::kStriped8,
                                GetParam());
  for (std::size_t threads : {1u, 4u}) {
    ParallelSearchOptions options;
    options.threads = threads;
    const ParallelSearchEngine engine(db, options);
    const SearchResult got = engine.search(profiles);
    ASSERT_EQ(got.scores, want) << "threads=" << threads;
    ASSERT_EQ(got.cells, want_cells) << "threads=" << threads;
    EXPECT_EQ(got.overflow_rescans, serial.overflow_rescans)
        << "threads=" << threads;
  }
}

TEST_P(BackendEquivalence, ScoresAgreeWithGotohOracle) {
  // Anchor the whole equivalence class to ground truth, not just to the
  // scalar backend: a handful of random pairs against the 32-bit oracle.
  const Corpus corpus = make_corpus(0x02ac1e, 12, 140, 220);
  const ScoringScheme scheme;
  force(GetParam());
  const SearchResult got = search_database(corpus.query, corpus.view(),
                                           scheme, KernelKind::kStriped8);
  for (std::size_t i = 0; i < corpus.records.size(); ++i) {
    EXPECT_EQ(got.scores[i],
              gotoh_score(corpus.query, corpus.records[i], scheme).score);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalence,
                         ::testing::Values(Backend::kScalar, Backend::kSSE2,
                                           Backend::kAVX2, Backend::kAVX512),
                         [](const ::testing::TestParamInfo<Backend>& pi) {
                           return std::string(backend_name(pi.param));
                         });

}  // namespace
}  // namespace swdual::align
