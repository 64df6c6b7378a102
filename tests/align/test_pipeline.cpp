// The search pipeline's own contract (align/pipeline.h), independent of any
// production engine: request validation, group handling, the stage order
// screen → cascade → select → rescan → rank → annotate (the filtered stages
// against the scalar reference in filter_reference.h), partition failures,
// and the spans/metrics the pipeline emits. Engine-equivalence and recall
// batteries live in test_filter / test_annotate / test_sharded_search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "align/annotate.h"
#include "align/parallel_search.h"
#include "align/pipeline.h"
#include "align/search.h"
#include "align/statistics.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/rng.h"

#include "filter_reference.h"

namespace swdual::align {
namespace {

std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) c = static_cast<std::uint8_t>(rng.below(20));
  return out;
}

/// Queries plus a database holding mutated copies of every query (so the
/// top-k has real alignments), random records of mixed length, and tiny
/// records the banded screen certifies as exact.
struct Corpus {
  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<std::vector<std::uint8_t>> records;

  DbView view() const {
    DbView v;
    for (const auto& r : records) v.emplace_back(r.data(), r.size());
    return v;
  }
};

Corpus make_corpus(std::uint64_t seed, std::size_t queries, std::size_t n) {
  Rng rng(seed);
  Corpus c;
  for (std::size_t q = 0; q < queries; ++q) {
    c.queries.push_back(random_codes(rng, 90 + 15 * q));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 9 == 0) {
      auto h = c.queries[(i / 9) % queries];
      for (std::size_t p = 0; p < h.size(); p += 11 + i % 4) {
        h[p] = static_cast<std::uint8_t>(rng.below(20));
      }
      c.records.push_back(std::move(h));
    } else if (i % 7 == 0) {
      c.records.push_back(random_codes(rng, 1 + i % 3));
    } else {
      c.records.push_back(random_codes(
          rng, static_cast<std::size_t>(rng.between(20, 260))));
    }
  }
  return c;
}

struct Group {
  std::vector<std::unique_ptr<SearchProfiles>> owned;
  std::vector<const SearchProfiles*> ptrs;

  Group(const Corpus& corpus, const ScoringScheme& scheme, KernelKind kernel) {
    for (const auto& q : corpus.queries) {
      owned.push_back(std::make_unique<SearchProfiles>(
          std::span<const std::uint8_t>(q.data(), q.size()), scheme, kernel));
      ptrs.push_back(owned.back().get());
    }
  }
  std::span<const SearchProfiles* const> span() const { return ptrs; }
};

SearchRequest heuristic_request(std::size_t k, std::size_t band) {
  SearchRequest request;
  request.k = k;
  request.filter.mode = FilterMode::kHeuristic;
  request.filter.band = band;
  request.filter.keep_factor = 2.0;
  return request;
}

KarlinAltschulParams test_params() {
  return calibrate_gapped_params(ScoringScheme{},
                                 std::vector<double>(20, 0.05), 60, 60, 40, 3);
}

/// Serial engine that counts its calls and remembers every rescan view.
class RecordingEngine : public SerialSearchEngine {
 public:
  using SerialSearchEngine::SerialSearchEngine;

  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const override {
    ++scans;
    return SerialSearchEngine::scan(group, k, failures);
  }
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const override {
    ++screens;
    return SerialSearchEngine::screen(group, band, failures);
  }
  SearchResult rescan(const SearchProfiles& profiles,
                      const DbView& candidates) const override {
    rescans.push_back(candidates);
    return SerialSearchEngine::rescan(profiles, candidates);
  }

  mutable std::size_t scans = 0;
  mutable std::size_t screens = 0;
  mutable std::vector<DbView> rescans;
};

/// Serial engine whose partition of records [0, failed_end) fails past its
/// retries: those records score 0, carry the exactness certificate when
/// screened, and never rank — as the sharded engine reports a lost shard.
class FailingEngine : public SerialSearchEngine {
 public:
  FailingEngine(const DbView& db, std::size_t failed_end)
      : SerialSearchEngine(db) {
    for (std::uint32_t i = 0; i < failed_end; ++i) failed_.push_back(i);
  }

  std::vector<RankedSearchResult> scan(
      std::span<const SearchProfiles* const> group, std::size_t k,
      std::vector<ShardFailure>& failures) const override {
    std::vector<RankedSearchResult> out =
        SerialSearchEngine::scan(group, k, failures);
    for (RankedSearchResult& r : out) {
      for (const std::uint32_t id : failed_) r.result.scores[id] = 0;
      r.hits.clear();
      for (std::size_t i = failed_.size(); i < r.result.scores.size(); ++i) {
        push_top_hit(r.hits, {i, r.result.scores[i]}, k);
      }
      finish_top_hits(r.hits);
    }
    failures.push_back(failure());
    return out;
  }
  std::vector<ScreenResult> screen(
      std::span<const SearchProfiles* const> group, std::size_t band,
      std::vector<ShardFailure>& failures) const override {
    std::vector<ScreenResult> out =
        SerialSearchEngine::screen(group, band, failures);
    for (ScreenResult& s : out) {
      for (const std::uint32_t id : failed_) {
        s.scores[id] = 0;
        s.exact[id] = 1;
        s.edge_hit[id] = 0;
      }
    }
    failures.push_back(failure());
    return out;
  }

  ShardFailure failure() const {
    ShardFailure f;
    f.shard = 0;
    f.attempts = 3;
    f.reason = "injected";
    f.records = failed_;
    return f;
  }

 private:
  std::vector<std::uint32_t> failed_;
};

/// Serial engine with the threaded engines' contract and a scrambled
/// schedule: parallel_for starts one thread per item, last item first, and
/// rescreen and rescan cut their views through it (screen_ranges,
/// search_ranges).
class ReversedThreadsEngine : public SerialSearchEngine {
 public:
  using SerialSearchEngine::SerialSearchEngine;

  std::vector<ScreenResult> rescreen(
      std::span<const SearchProfiles* const> group,
      std::span<const DbView> records, std::size_t band) const override {
    return screen_ranges(*this, group, records, band, 5);
  }
  SearchResult rescan(const SearchProfiles& profiles,
                      const DbView& candidates) const override {
    return search_ranges(*this, profiles, candidates, 5);
  }
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn) const override {
    ++fan_outs;
    last_count = count;
    std::vector<std::exception_ptr> errors(count);
    std::vector<std::thread> threads;
    for (std::size_t i = count; i-- > 0;) {
      threads.emplace_back([&fn, &errors, i] {
        try {
          fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  mutable std::size_t fan_outs = 0;
  mutable std::size_t last_count = 0;
};

void expect_same_hits(const std::vector<SearchHit>& got,
                      const std::vector<SearchHit>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].db_index, want[i].db_index) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

// --- Request validation ----------------------------------------------------

TEST(Pipeline, DefaultRequestIsValid) {
  const SearchRequest request;
  EXPECT_NO_THROW(request.validate());
  EXPECT_FALSE(request.filter.enabled());
  EXPECT_FALSE(request.annotate.enabled());
}

TEST(Pipeline, RequestRejectsBadFilterParameters) {
  SearchRequest request = heuristic_request(5, 0);
  EXPECT_THROW(request.validate(), InvalidArgument);
  request = heuristic_request(5, 16);
  request.filter.keep_factor = 0.5;
  EXPECT_THROW(request.validate(), InvalidArgument);
  request.filter.keep_factor = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(request.validate(), InvalidArgument);
}

TEST(Pipeline, RequestRejectsAnnotationWithoutStats) {
  SearchRequest request;
  request.annotate.mode = AnnotateMode::kStats;
  EXPECT_THROW(request.validate(), InvalidArgument);
  const KarlinAltschulParams params = test_params();
  request.stats = &params;
  EXPECT_NO_THROW(request.validate());
}

TEST(Pipeline, RequestRejectsBadEvalueCutoff) {
  const KarlinAltschulParams params = test_params();
  SearchRequest request;
  request.annotate.mode = AnnotateMode::kStats;
  request.stats = &params;
  request.annotate.evalue_cutoff = 0.0;
  EXPECT_THROW(request.validate(), InvalidArgument);
  request.annotate.evalue_cutoff = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(request.validate(), InvalidArgument);
  // A cutoff is ignored while annotation is off.
  request.annotate.mode = AnnotateMode::kOff;
  EXPECT_NO_THROW(request.validate());
}

// --- Group handling ---------------------------------------------------------

TEST(Pipeline, EmptyGroupNeverTouchesTheEngine) {
  const Corpus corpus = make_corpus(1, 1, 20);
  const RecordingEngine engine(corpus.view());
  const std::vector<const SearchProfiles*> none;
  EXPECT_TRUE(search(engine, none, SearchRequest{}).empty());
  EXPECT_TRUE(search(engine, none, heuristic_request(3, 8)).empty());
  EXPECT_EQ(engine.scans, 0u);
  EXPECT_EQ(engine.screens, 0u);
}

TEST(Pipeline, NullProfileInGroupRejected) {
  const Corpus corpus = make_corpus(2, 1, 20);
  const SerialSearchEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const std::vector<const SearchProfiles*> with_null = {group.ptrs[0],
                                                        nullptr};
  EXPECT_THROW(search(engine, with_null, SearchRequest{}), InvalidArgument);
}

TEST(Pipeline, MixedKernelGroupRejected) {
  const Corpus corpus = make_corpus(3, 1, 20);
  const SerialSearchEngine engine(corpus.view());
  const Group striped(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const Group scalar(corpus, ScoringScheme{}, KernelKind::kScalar);
  const std::vector<const SearchProfiles*> mixed = {striped.ptrs[0],
                                                    scalar.ptrs[0]};
  EXPECT_THROW(search(engine, mixed, SearchRequest{}), InvalidArgument);
}

TEST(Pipeline, InvalidRequestRejectedBeforeAnyScan) {
  const Corpus corpus = make_corpus(4, 1, 20);
  const RecordingEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  EXPECT_THROW(search(engine, group.span(), heuristic_request(3, 0)),
               InvalidArgument);
  EXPECT_EQ(engine.scans + engine.screens, 0u);
}

// --- Exact (filter off) path ----------------------------------------------

TEST(Pipeline, ExactGroupMatchesSearchDatabase) {
  const Corpus corpus = make_corpus(5, 3, 120);
  const DbView db = corpus.view();
  const RecordingEngine engine(db);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  SearchRequest request;
  request.k = 7;
  const std::vector<SearchOutcome> out = search(engine, group.span(), request);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(engine.scans, 1u) << "one group pass for the whole group";
  EXPECT_EQ(engine.screens, 0u);
  for (std::size_t q = 0; q < out.size(); ++q) {
    const SearchResult want = search_database(*group.ptrs[q], db);
    EXPECT_EQ(out[q].ranked.result.scores, want.scores) << "query " << q;
    EXPECT_EQ(out[q].ranked.result.cells, want.cells);
    expect_same_hits(out[q].ranked.hits, want.top(7));
    EXPECT_FALSE(out[q].filtered);
    EXPECT_EQ(out[q].filter.candidates, 0u);
    EXPECT_EQ(out[q].filter.rescans, 0u);
    EXPECT_TRUE(out[q].complete);
    EXPECT_TRUE(out[q].failures.empty());
  }
}

TEST(Pipeline, OutcomesFollowGroupOrder) {
  const Corpus corpus = make_corpus(6, 3, 90);
  const SerialSearchEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  std::vector<const SearchProfiles*> reversed(group.ptrs.rbegin(),
                                              group.ptrs.rend());
  for (const SearchRequest& request :
       {SearchRequest{}, heuristic_request(5, 8)}) {
    const auto forward = search(engine, group.span(), request);
    const auto backward = search(engine, reversed, request);
    ASSERT_EQ(forward.size(), backward.size());
    for (std::size_t q = 0; q < forward.size(); ++q) {
      const SearchOutcome& b = backward[forward.size() - 1 - q];
      EXPECT_EQ(forward[q].ranked.result.scores, b.ranked.result.scores);
      expect_same_hits(forward[q].ranked.hits, b.ranked.hits);
      EXPECT_EQ(forward[q].filter.candidates, b.filter.candidates);
    }
  }
}

TEST(Pipeline, ElapsedTimeStampedOnEveryOutcome) {
  const Corpus corpus = make_corpus(7, 3, 60);
  const SerialSearchEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const auto out = search(engine, group.span(), SearchRequest{});
  ASSERT_EQ(out.size(), 3u);
  EXPECT_GT(out[0].ranked.result.seconds, 0.0);
  for (const SearchOutcome& o : out) {
    EXPECT_EQ(o.ranked.result.seconds, out[0].ranked.result.seconds);
  }
}

TEST(Pipeline, SerialEngineReportsRecordsAndResidues) {
  const Corpus corpus = make_corpus(8, 1, 40);
  const DbView db = corpus.view();
  const SerialSearchEngine engine(db);
  std::uint64_t residues = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    residues += db[i].size();
    EXPECT_EQ(engine.record(i).data(), db[i].data());
    EXPECT_EQ(engine.record(i).size(), db[i].size());
  }
  EXPECT_EQ(engine.db_residues(), residues);
  EXPECT_EQ(engine.db_residues(), db_residue_count(db));
}

// --- Filtered path ----------------------------------------------------------

TEST(Pipeline, FilteredRescansOnlyUncertifiedCandidatesLongestFirst) {
  const Corpus corpus = make_corpus(9, 2, 150);
  const DbView db = corpus.view();
  const RecordingEngine engine(db);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const SearchRequest request = heuristic_request(6, 8);
  const auto out = search(engine, group.span(), request);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(engine.screens, 1u) << "one group screen for the whole group";
  EXPECT_EQ(engine.scans, 0u);
  ASSERT_EQ(engine.rescans.size(), 2u) << "one candidate rescan per query";
  for (std::size_t q = 0; q < out.size(); ++q) {
    EXPECT_TRUE(out[q].filtered);
    const FilterReference ref =
        filter_reference(group.ptrs[q]->query(), db, ScoringScheme{},
                         request.filter, request.k);
    EXPECT_EQ(out[q].filter.candidates, ref.stats.candidates);
    EXPECT_EQ(out[q].filter.band_uncertain, ref.stats.band_uncertain);

    std::multiset<const std::uint8_t*> want;
    for (const std::uint32_t c : ref.rescans) want.insert(db[c].data());
    const DbView& rescanned = engine.rescans[q];
    EXPECT_EQ(out[q].filter.rescans, rescanned.size());
    std::multiset<const std::uint8_t*> got;
    for (std::size_t i = 0; i < rescanned.size(); ++i) {
      got.insert(rescanned[i].data());
      if (i > 0) {
        EXPECT_GE(rescanned[i - 1].size(), rescanned[i].size());
      }
    }
    EXPECT_EQ(got, want);
  }

  // A band wider than every record certifies every screened score: the
  // pipeline rescans nothing and the screen alone is the exact answer.
  engine.rescans.clear();
  const auto covered = search(engine, group.span(), heuristic_request(6, 1024));
  ASSERT_EQ(engine.rescans.size(), 2u);
  for (std::size_t q = 0; q < covered.size(); ++q) {
    EXPECT_TRUE(engine.rescans[q].empty());
    EXPECT_EQ(covered[q].filter.rescans, 0u);
    EXPECT_GT(covered[q].filter.candidates, 0u);
    expect_same_hits(covered[q].ranked.hits,
                     search_database(*group.ptrs[q], db).top(6));
  }
}

TEST(Pipeline, FilteredScoresOverlayExactOnScreen) {
  const Corpus corpus = make_corpus(10, 1, 150);
  const DbView db = corpus.view();
  const SerialSearchEngine engine(db);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const SearchRequest request = heuristic_request(6, 8);
  const SearchOutcome out = search(engine, group.span(), request).front();
  const FilterReference ref = filter_reference(
      group.ptrs[0]->query(), db, ScoringScheme{}, request.filter, request.k);
  // The corpus must exercise both cascade steps, or the overlay of their
  // scores goes unchecked.
  ASSERT_GT(ref.cascaded[0], 0u);
  ASSERT_GT(ref.cascaded[1], 0u);
  const SearchResult exact = search_database(*group.ptrs[0], db);
  const std::set<std::uint32_t> kept(ref.candidates.begin(),
                                     ref.candidates.end());
  ASSERT_EQ(out.ranked.result.scores.size(), db.size());
  for (std::uint32_t i = 0; i < db.size(); ++i) {
    if (kept.count(i) != 0) {
      EXPECT_EQ(out.ranked.result.scores[i], exact.scores[i]) << "record " << i;
    } else {
      EXPECT_EQ(out.ranked.result.scores[i], ref.scores[i]) << "record " << i;
    }
  }
  DbView rescanned;
  for (const std::uint32_t c : ref.rescans) rescanned.push_back(db[c]);
  const std::uint64_t rescan_cells =
      search_range(*group.ptrs[0], rescanned, 0, rescanned.size()).cells;
  EXPECT_EQ(out.ranked.result.cells, ref.cells() + rescan_cells);
}

TEST(Pipeline, CascadeSkipsRecordsUnderHalfTheQuery) {
  // A cascade step re-screens an edge hit only while the wider band is
  // narrow against it both ways. Exact copies of query segments run off the
  // band's diagonal, so they end on the band's edge: the 300-residue copies
  // are at least half the 400-residue query and must be re-screened, the
  // 150-residue ones are long enough for both wider bands but under half
  // the query and must stay on the edge unscreened.
  class CascadeEngine : public SerialSearchEngine {
   public:
    using SerialSearchEngine::SerialSearchEngine;
    std::vector<ScreenResult> rescreen(
        std::span<const SearchProfiles* const> group,
        std::span<const DbView> records, std::size_t band) const override {
      step_records.push_back(records[0].size());
      return SerialSearchEngine::rescreen(group, records, band);
    }
    mutable std::vector<std::size_t> step_records;
  };

  Rng rng(0xca5c);
  const std::vector<std::uint8_t> query = random_codes(rng, 400);
  std::vector<std::vector<std::uint8_t>> records;
  for (std::ptrdiff_t a = 0; a < 100; a += 20) {
    records.emplace_back(query.begin() + a, query.begin() + a + 300);
    records.emplace_back(query.begin() + a + 50, query.begin() + a + 200);
  }
  for (std::size_t i = 0; i < 20; ++i) {
    records.push_back(random_codes(rng, 60 + 17 * i));
  }
  DbView db;
  for (const auto& r : records) db.emplace_back(r.data(), r.size());

  const SearchRequest request = heuristic_request(4, 4);
  const FilterReference ref = filter_reference(query, db, ScoringScheme{},
                                               request.filter, request.k);
  std::size_t short_edge_hits = 0;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const std::size_t n = db[i].size();
    if (ref.edge_hit[i] && !ref.exact[i] && 2 * n < query.size() &&
        n > 2 * (2 * 4 * request.filter.band + 1)) {
      ++short_edge_hits;
    }
  }
  ASSERT_GT(short_edge_hits, 0u) << "the corpus must hold a record the "
                                    "query-length half of the rule skips";
  ASSERT_GT(ref.cascaded[0], 0u);

  const CascadeEngine engine(db);
  const SearchProfiles profiles({query.data(), query.size()}, ScoringScheme{},
                                KernelKind::kStriped8);
  const SearchProfiles* group[] = {&profiles};
  const SearchOutcome out = search(engine, group, request).front();
  ASSERT_EQ(engine.step_records.size(), ref.cascaded[1] > 0 ? 2u : 1u);
  for (std::size_t step = 0; step < engine.step_records.size(); ++step) {
    EXPECT_EQ(engine.step_records[step], ref.cascaded[step]) << "step " << step;
  }
  EXPECT_EQ(out.filter.band_uncertain, ref.stats.band_uncertain);
  EXPECT_EQ(out.filter.candidates, ref.stats.candidates);
  EXPECT_EQ(out.filter.rescans, ref.stats.rescans);
  DbView rescanned;
  for (const std::uint32_t c : ref.rescans) rescanned.push_back(db[c]);
  EXPECT_EQ(out.ranked.result.cells,
            ref.cells() +
                search_range(profiles, rescanned, 0, rescanned.size()).cells);
}

TEST(Pipeline, FilteredHitsRankOnlyCandidatesWithExactScores) {
  const Corpus corpus = make_corpus(11, 2, 150);
  const DbView db = corpus.view();
  const SerialSearchEngine engine(db);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const SearchRequest request = heuristic_request(5, 16);
  const auto out = search(engine, group.span(), request);
  for (std::size_t q = 0; q < out.size(); ++q) {
    const FilterReference ref =
        filter_reference(group.ptrs[q]->query(), db, ScoringScheme{},
                         request.filter, request.k);
    const SearchResult exact = search_database(*group.ptrs[q], db);
    // The ranking is the top-k of the candidates under their exact scores.
    std::vector<SearchHit> want;
    for (const std::uint32_t c : ref.candidates) {
      push_top_hit(want, {c, exact.scores[c]}, request.k);
    }
    finish_top_hits(want);
    expect_same_hits(out[q].ranked.hits, want);
    // The planted homologs of every query survive the screen.
    expect_same_hits(out[q].ranked.hits, exact.top(request.k));
  }
}

// --- Partition failures and recovery ---------------------------------------

TEST(Pipeline, FailedPartitionMakesExactAnswerIncomplete) {
  const Corpus corpus = make_corpus(12, 2, 90);
  const FailingEngine engine(corpus.view(), 30);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const auto out = search(engine, group.span(), SearchRequest{});
  for (const SearchOutcome& o : out) {
    EXPECT_FALSE(o.complete);
    ASSERT_EQ(o.failures.size(), 1u);
    EXPECT_EQ(o.failures[0].attempts, 3u);
    EXPECT_EQ(o.failures[0].reason, "injected");
    EXPECT_EQ(o.failures[0].records.size(), 30u);
    for (const SearchHit& hit : o.ranked.hits) EXPECT_GE(hit.db_index, 30u);
  }
}

TEST(Pipeline, FailedPartitionRecordsNeverBecomeCandidates) {
  const Corpus corpus = make_corpus(13, 2, 150);
  const DbView db = corpus.view();
  constexpr std::size_t kFailed = 40;
  const FailingEngine engine(db, kFailed);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const SearchRequest request = heuristic_request(5, 8);
  const auto out = search(engine, group.span(), request);
  for (std::size_t q = 0; q < out.size(); ++q) {
    EXPECT_FALSE(out[q].complete);
    ASSERT_EQ(out[q].failures.size(), 1u);
    for (const SearchHit& hit : out[q].ranked.hits) {
      EXPECT_GE(hit.db_index, kFailed);
    }
    // The failed records read 0 with a certificate: they still rank in
    // the keep-best selection, which drops them afterwards (without the
    // drop they would be candidates once the keep has room), and the
    // cascade never re-screens them.
    std::vector<bool> failed(db.size(), false);
    std::fill_n(failed.begin(), kFailed, true);
    const FilterReference ref =
        filter_reference(group.ptrs[q]->query(), db, ScoringScheme{},
                         request.filter, request.k, failed);
    EXPECT_EQ(out[q].filter.candidates, ref.stats.candidates);
    EXPECT_EQ(out[q].filter.band_uncertain, ref.stats.band_uncertain);
    // Failed records carry the certificate, so none of them is rescanned.
    EXPECT_EQ(out[q].filter.rescans, ref.stats.rescans);
    EXPECT_TRUE(std::all_of(ref.rescans.begin(), ref.rescans.end(),
                            [](std::uint32_t c) { return c >= kFailed; }));
  }
}

// --- Annotation -------------------------------------------------------------

TEST(Pipeline, AnnotationOffLeavesHitsBare) {
  const Corpus corpus = make_corpus(15, 1, 60);
  const SerialSearchEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  for (const SearchRequest& request :
       {SearchRequest{}, heuristic_request(5, 8)}) {
    const SearchOutcome out = search(engine, group.span(), request).front();
    ASSERT_FALSE(out.ranked.hits.empty());
    for (const SearchHit& hit : out.ranked.hits) {
      EXPECT_EQ(hit.annotation, nullptr);
    }
  }
}

TEST(Pipeline, AnnotationUsesWholeDatabaseAndKeepsRanking) {
  const Corpus corpus = make_corpus(16, 1, 90);
  const DbView db = corpus.view();
  const SerialSearchEngine engine(db);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const KarlinAltschulParams params = test_params();
  SearchRequest request = heuristic_request(6, 16);
  const SearchOutcome plain = search(engine, group.span(), request).front();
  request.annotate.mode = AnnotateMode::kStatsCigar;
  request.stats = &params;
  const SearchOutcome annotated = search(engine, group.span(), request).front();
  expect_same_hits(annotated.ranked.hits, plain.ranked.hits);
  const std::uint64_t m = corpus.queries[0].size();
  const std::uint64_t n = db_residue_count(db);
  for (const SearchHit& hit : annotated.ranked.hits) {
    ASSERT_NE(hit.annotation, nullptr);
    EXPECT_DOUBLE_EQ(hit.annotation->evalue, evalue(params, hit.score, m, n));
    EXPECT_DOUBLE_EQ(hit.annotation->bits, bit_score(params, hit.score));
    if (hit.score > 0) {
      EXPECT_FALSE(hit.annotation->cigar.empty());
    }
  }
}

TEST(Pipeline, EvalueCutoffKeepsRankedPrefix) {
  const Corpus corpus = make_corpus(17, 1, 90);
  const SerialSearchEngine engine(corpus.view());
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const KarlinAltschulParams params = test_params();
  SearchRequest request;
  request.k = 8;
  request.annotate.mode = AnnotateMode::kStats;
  request.stats = &params;
  const SearchOutcome all = search(engine, group.span(), request).front();
  ASSERT_EQ(all.ranked.hits.size(), 8u);
  request.annotate.evalue_cutoff = all.ranked.hits[2].annotation->evalue;
  const SearchOutcome cut = search(engine, group.span(), request).front();
  std::vector<SearchHit> want;
  for (const SearchHit& hit : all.ranked.hits) {
    if (hit.annotation->evalue <= request.annotate.evalue_cutoff) {
      want.push_back(hit);
    }
  }
  ASSERT_GE(want.size(), 3u);
  ASSERT_LT(want.size(), all.ranked.hits.size());
  expect_same_hits(cut.ranked.hits, want);
  // The scores behind the ranking are untouched by the cutoff.
  EXPECT_EQ(cut.ranked.result.scores, all.ranked.result.scores);
}

TEST(Pipeline, ThreadedFanOutMatchesInlineEngine) {
  // Rescan ranges and tracebacks run in reverse order on their own
  // threads; the outcomes must equal the inline engine's, annotations
  // included, and every surviving hit is traced back in one fan-out.
  const Corpus corpus = make_corpus(20, 3, 150);
  const DbView db = corpus.view();
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const KarlinAltschulParams params = test_params();
  SearchRequest request = heuristic_request(6, 8);
  request.annotate.mode = AnnotateMode::kStatsCigar;
  request.stats = &params;

  const ReversedThreadsEngine threaded(db);
  const std::vector<SearchOutcome> want =
      search(SerialSearchEngine(db), group.span(), request);
  const std::vector<SearchOutcome> got =
      search(threaded, group.span(), request);
  ASSERT_EQ(got.size(), want.size());
  std::size_t hits = 0;
  for (std::size_t q = 0; q < got.size(); ++q) {
    EXPECT_EQ(got[q].ranked.result.scores, want[q].ranked.result.scores);
    EXPECT_EQ(got[q].ranked.result.cells, want[q].ranked.result.cells);
    EXPECT_EQ(got[q].ranked.result.overflow_rescans,
              want[q].ranked.result.overflow_rescans);
    EXPECT_EQ(got[q].filter.candidates, want[q].filter.candidates);
    EXPECT_EQ(got[q].filter.rescans, want[q].filter.rescans);
    EXPECT_EQ(got[q].filter.band_uncertain, want[q].filter.band_uncertain);
    expect_same_hits(got[q].ranked.hits, want[q].ranked.hits);
    for (std::size_t i = 0; i < got[q].ranked.hits.size(); ++i) {
      const HitAnnotation& a = *got[q].ranked.hits[i].annotation;
      const HitAnnotation& b = *want[q].ranked.hits[i].annotation;
      EXPECT_EQ(a.evalue, b.evalue);
      EXPECT_EQ(a.bits, b.bits);
      EXPECT_EQ(a.cigar, b.cigar);
      EXPECT_EQ(a.query_begin, b.query_begin);
      EXPECT_EQ(a.query_end, b.query_end);
      EXPECT_EQ(a.db_begin, b.db_begin);
      EXPECT_EQ(a.db_end, b.db_end);
    }
    hits += got[q].ranked.hits.size();
  }
  // One fan-out per cascade step that has records to re-screen (for the
  // whole group), one rescan fan-out per query, then one for every
  // traceback.
  std::size_t steps[2] = {0, 0};
  for (std::size_t q = 0; q < got.size(); ++q) {
    const FilterReference ref =
        filter_reference(group.ptrs[q]->query(), db, ScoringScheme{},
                         request.filter, request.k);
    for (std::size_t step = 0; step < 2; ++step) {
      if (ref.cascaded[step] > 0) steps[step] = 1;
    }
  }
  ASSERT_EQ(steps[0], 1u) << "the corpus must exercise the cascade";
  EXPECT_EQ(threaded.fan_outs, steps[0] + steps[1] + got.size() + 1);
  EXPECT_EQ(threaded.last_count, hits);
}

// --- Sinks ------------------------------------------------------------------

TEST(Pipeline, FilterMetricsSumOverTheGroup) {
  const Corpus corpus = make_corpus(18, 3, 120);
  obs::MetricsRegistry metrics;
  SearchSinks sinks;
  sinks.metrics = &metrics;
  const SerialSearchEngine engine(corpus.view(), sinks);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);

  search(engine, group.span(), SearchRequest{});
  EXPECT_EQ(metrics.counter("filter_candidates"), 0.0);
  EXPECT_EQ(metrics.counter("filter_rescans"), 0.0);

  const auto out = search(engine, group.span(), heuristic_request(5, 8));
  FilterStats total;
  for (const SearchOutcome& o : out) total.merge(o.filter);
  EXPECT_GT(total.candidates, 0u);
  EXPECT_EQ(metrics.counter("filter_candidates"),
            static_cast<double>(total.candidates));
  EXPECT_EQ(metrics.counter("filter_rescans"),
            static_cast<double>(total.rescans));
  EXPECT_EQ(metrics.counter("filter_band_uncertain"),
            static_cast<double>(total.band_uncertain));
}

TEST(Pipeline, FilterRescoreSpanPerQuery) {
  const Corpus corpus = make_corpus(19, 2, 120);
  obs::Tracer tracer;
  SearchSinks sinks;
  sinks.tracer = &tracer;
  sinks.trace_track = 4;
  const SerialSearchEngine engine(corpus.view(), sinks);
  const Group group(corpus, ScoringScheme{}, KernelKind::kStriped8);
  const auto out = search(engine, group.span(), heuristic_request(5, 8));
  std::vector<obs::TraceEvent> spans;
  for (obs::TraceEvent& e : tracer.flush()) {
    if (e.name == "filter_rescore") spans.push_back(std::move(e));
  }
  ASSERT_EQ(spans.size(), out.size());
  for (std::size_t q = 0; q < out.size(); ++q) {
    EXPECT_EQ(spans[q].track, 4u);
    EXPECT_EQ(spans[q].arg("candidates", -1.0),
              static_cast<double>(out[q].filter.candidates));
    EXPECT_EQ(spans[q].arg("rescans", -1.0),
              static_cast<double>(out[q].filter.rescans));
  }
}

}  // namespace
}  // namespace swdual::align
