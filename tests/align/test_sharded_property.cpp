// Differential property test of the exact kernels and the sharded engine.
// Inputs: random record-length profiles — uniform, Zipf at s 0.5 and 1.1,
// one giant above a shard's fair share, empty and length-1 records, and
// equal-length runs longer than any lane group (one at a query's length,
// so that query's planted homolog escalates inside a group the banded
// screen walks as one) — with wildcard residues and planted self-homologs
// of the queries that overflow the byte tier, plus a high-match matrix
// whose planted pair overflows 16 bits and so reaches the 32-bit oracle.
// Besides BLOSUM62 at gaps 10/2, three more scoring schemes run on the
// Zipf-1.1, empty-and-1 and equal-run shapes: BLOSUM62 at gaps 5/1 and
// 14/4, and a match 5 / mismatch −4 matrix.
// For every exact kernel × filter mode, the serial engine's group search
// through align::search must equal the scalar kernel's in hits, scores,
// cells and filter counters (so an answer and its cost do not depend on
// the kernel), and the sharded engine's on every shard count × threads per
// shard must equal the serial engine's in all of that plus overflow
// rescans. On the BLOSUM62 record sets a striped8 search with stats+cigar
// annotation, filter off and heuristic, must rank like the unannotated
// search, equal the serial engine's annotations field by field on every
// topology, and carry CIGARs that re-derive each hit's score through
// cigar_score. Backends are an axis too: striped8 profiles forced onto
// each available backend (which the screen then runs on as well) must give
// the serial engine the scalar kernel's answer and cells, and the annotated
// striped8 search's annotations, on every shape. The shard × thread sweep
// runs on the auto profiles only.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "align/annotate.h"
#include "align/backend.h"
#include "align/pipeline.h"
#include "align/search.h"
#include "align/sharded_search.h"
#include "align/statistics.h"
#include "seq/alphabet.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

constexpr KernelKind kExactKernels[] = {KernelKind::kScalar,
                                        KernelKind::kStriped8};

/// Random protein codes with about one wildcard (X) in sixteen.
std::vector<std::uint8_t> random_codes(Rng& rng, std::size_t len) {
  const std::uint8_t wildcard = seq::Alphabet::protein().wildcard_code();
  std::vector<std::uint8_t> out(len);
  for (auto& c : out) {
    c = rng.below(16) == 0 ? wildcard
                           : static_cast<std::uint8_t>(rng.below(20));
  }
  return out;
}

/// `query` with about one residue in ten replaced at random.
std::vector<std::uint8_t> homolog_of(Rng& rng,
                                     const std::vector<std::uint8_t>& query) {
  std::vector<std::uint8_t> out = query;
  for (auto& c : out) {
    if (rng.below(10) == 0) c = static_cast<std::uint8_t>(rng.below(20));
  }
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

std::vector<LengthProfile> length_profiles(Rng& rng, std::size_t run_length) {
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
  // 127 records at `run_length`, the longest, so with its planted homolog
  // the run fills the first 128 lanes of the longest-first order: whole
  // lane groups at every width. Then a second run and a few shorter mixed
  // lengths for the paced path's partial and ragged groups.
  LengthProfile runs{"equal-runs",
                     std::vector<std::size_t>(127, run_length)};
  runs.lengths.insert(runs.lengths.end(), 150, run_length / 2);
  for (int i = 0; i < 7; ++i) {
    runs.lengths.push_back(1 + rng.below(run_length / 2));
  }
  out.push_back(std::move(runs));
  return out;
}

/// Hits, scores and filter counters: what every exact kernel must agree on.
void expect_same_answer(const SearchOutcome& actual,
                        const SearchOutcome& expected,
                        const std::string& label) {
  EXPECT_TRUE(actual.complete) << label;
  EXPECT_EQ(actual.filtered, expected.filtered) << label;
  EXPECT_EQ(actual.ranked.result.scores, expected.ranked.result.scores)
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

/// The same answer, computed by the same kernel.
void expect_same_outcome(const SearchOutcome& actual,
                         const SearchOutcome& expected,
                         const std::string& label) {
  expect_same_answer(actual, expected, label);
  EXPECT_EQ(actual.ranked.result.cells, expected.ranked.result.cells)
      << label;
  EXPECT_EQ(actual.ranked.result.overflow_rescans,
            expected.ranked.result.overflow_rescans)
      << label;
}

/// The same annotation in every field, hit by hit (expect_same_answer
/// compares the hits themselves).
void expect_same_annotation(const SearchOutcome& actual,
                            const SearchOutcome& expected,
                            const std::string& label) {
  ASSERT_EQ(actual.ranked.hits.size(), expected.ranked.hits.size()) << label;
  for (std::size_t h = 0; h < expected.ranked.hits.size(); ++h) {
    const SearchHit& x = actual.ranked.hits[h];
    const SearchHit& y = expected.ranked.hits[h];
    const std::string at = label + " hit " + std::to_string(h);
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

/// One scoring scheme, its queries, and the record sets to search. Every
/// case's planted homologs saturate striped8's byte tier, so its filter-off
/// searches must rescan some pair at a wider precision: proof that the
/// inputs reach the tier they are there for.
struct Case {
  std::string name;
  ScoringScheme scheme;
  std::vector<std::vector<std::uint8_t>> queries;
  std::vector<LengthProfile> profiles;
  /// Also run the annotated striped8 search (stats+cigar).
  bool annotate = false;
};

std::vector<Case> cases(Rng& rng) {
  std::vector<Case> out;
  // BLOSUM62: the planted self-homologs score past the byte tier, so
  // striped8 escalates them to 16 bits.
  Case blosum{"blosum62", ScoringScheme{},
              {random_codes(rng, 48), random_codes(rng, 70)},
              length_profiles(rng, 70),
              /*annotate=*/true};
  out.push_back(std::move(blosum));
  // Match 100: the planted homolog of a 600-residue query scores ≈50,000,
  // past striped8's 16-bit tier, so it falls back to the 32-bit oracle.
  static const ScoreMatrix high_match =
      ScoreMatrix::uniform(seq::AlphabetKind::kProtein, 100, -20);
  Case uniform{"match100", ScoringScheme{&high_match, GapPenalty{}},
               {random_codes(rng, 600)},
               {{"planted-pair", {30, 200, 1, 0, 90, 60}}}};
  out.push_back(std::move(uniform));

  // Further scoring schemes, on a subset of the length profiles: cheap and
  // dear gaps, and a non-BLOSUM matrix in the ordinary score range. Their
  // inputs come from their own generator, so the cases above keep theirs.
  // The longer query's planted homolog scores past the byte tier (match 5
  // needs 100 residues for that), and one equal-length run is that long.
  Rng more(0x5c4e);
  static const ScoreMatrix match5 =
      ScoreMatrix::uniform(seq::AlphabetKind::kProtein, 5, -4);
  struct Scheme {
    std::string name;
    ScoringScheme scheme;
    std::size_t long_query;
  };
  const Scheme schemes[] = {
      {"blosum62-5/1", {&ScoreMatrix::blosum62(), GapPenalty{5, 1}}, 70},
      {"blosum62-14/4", {&ScoreMatrix::blosum62(), GapPenalty{14, 4}}, 70},
      {"match5-mismatch4", {&match5, GapPenalty{}}, 100},
  };
  for (const Scheme& s : schemes) {
    std::vector<LengthProfile> profiles;
    for (LengthProfile& profile : length_profiles(more, s.long_query)) {
      if (profile.name == "zipf-1.1" || profile.name == "empty-and-1" ||
          profile.name == "equal-runs") {
        profiles.push_back(std::move(profile));
      }
    }
    out.push_back({s.name,
                   s.scheme,
                   {random_codes(more, 48), random_codes(more, s.long_query)},
                   std::move(profiles)});
  }
  return out;
}

TEST(ShardedProperty, MatchesSerialEngineOnRandomLengthProfiles) {
  Rng rng(0x5a4d);

  FilterConfig heuristic;
  heuristic.mode = FilterMode::kHeuristic;
  heuristic.band = 8;
  heuristic.keep_factor = 2.0;

  // A small calibration: the annotation only needs valid (lambda, K).
  const KarlinAltschulParams params = calibrate_gapped_params(
      ScoringScheme{}, std::vector<double>(20, 0.05), 60, 60, 40, 3);

  for (const Case& c : cases(rng)) {
    std::vector<std::vector<std::unique_ptr<SearchProfiles>>> by_kernel;
    for (const KernelKind kernel : kExactKernels) {
      by_kernel.emplace_back();
      for (const auto& query : c.queries) {
        by_kernel.back().push_back(
            std::make_unique<SearchProfiles>(query, c.scheme, kernel));
      }
    }
    struct Forced {
      Backend backend;
      std::vector<std::unique_ptr<SearchProfiles>> profiles;
    };
    std::vector<Forced> forced;
    for (const Backend backend : available_backends()) {
      Forced& f = forced.emplace_back(Forced{backend, {}});
      for (const auto& query : c.queries) {
        f.profiles.push_back(std::make_unique<SearchProfiles>(
            query, c.scheme, KernelKind::kStriped8, backend));
      }
    }

    for (const LengthProfile& profile : c.profiles) {
      std::vector<std::vector<std::uint8_t>> records;
      for (const std::size_t length : profile.lengths) {
        records.push_back(random_codes(rng, length));
      }
      // Insert one homolog of every query at a random position.
      for (const auto& query : c.queries) {
        const auto at = static_cast<std::ptrdiff_t>(
            rng.below(records.size() + 1));
        records.insert(records.begin() + at, homolog_of(rng, query));
      }
      DbView db;
      for (const auto& record : records) db.emplace_back(record);
      const SerialSearchEngine serial(db);
      std::vector<std::pair<std::string, std::unique_ptr<ShardedSearchEngine>>>
          engines;
      for (const std::size_t shards : {1u, 2u, 3u, 7u}) {
        for (const std::size_t threads : {1u, 3u}) {
          ShardedSearchOptions options;
          options.num_shards = shards;
          options.threads_per_shard = threads;
          engines.emplace_back(
              "/shards=" + std::to_string(shards) +
                  "/threads=" + std::to_string(threads),
              std::make_unique<ShardedSearchEngine>(db, options));
        }
      }

      for (const FilterConfig& filter : {FilterConfig{}, heuristic}) {
        SearchRequest request;
        request.k = 5;
        request.filter = filter;
        const std::string where = c.name + "/" + profile.name +
                                  (filter.enabled() ? "/heuristic" : "/off");
        std::vector<SearchOutcome> oracle;  // the scalar kernel's
        std::vector<SearchOutcome> annotated_oracle;  // auto striped8's
        for (std::size_t k = 0; k < std::size(kExactKernels); ++k) {
          const KernelKind kernel = kExactKernels[k];
          std::vector<const SearchProfiles*> group;
          for (const auto& profiles : by_kernel[k]) {
            group.push_back(profiles.get());
          }
          const std::vector<SearchOutcome> expected =
              search(serial, group, request);
          if (oracle.empty()) oracle = expected;
          const std::string label = where + "/" + kernel_name(kernel);
          std::size_t rescans = 0;
          ASSERT_EQ(expected.size(), oracle.size());
          for (std::size_t q = 0; q < expected.size(); ++q) {
            const std::string serial_label =
                label + "/serial/query " + std::to_string(q);
            expect_same_answer(expected[q], oracle[q], serial_label);
            EXPECT_EQ(expected[q].ranked.result.cells,
                      oracle[q].ranked.result.cells)
                << serial_label;
            rescans += expected[q].ranked.result.overflow_rescans;
          }
          if (!filter.enabled() && kernel == KernelKind::kStriped8) {
            EXPECT_GT(rescans, 0u) << label << ": inputs must overflow";
          }

          for (const auto& [topology, engine] : engines) {
            const std::vector<SearchOutcome> actual =
                search(*engine, group, request);
            ASSERT_EQ(actual.size(), expected.size());
            for (std::size_t q = 0; q < expected.size(); ++q) {
              expect_same_outcome(
                  actual[q], expected[q],
                  label + topology + "/query " + std::to_string(q));
            }
          }

          if (!c.annotate || kernel != KernelKind::kStriped8) continue;
          SearchRequest annotated = request;
          annotated.annotate.mode = AnnotateMode::kStatsCigar;
          annotated.stats = &params;
          const std::string annotated_label = label + "/stats+cigar";
          const std::vector<SearchOutcome> serial_annotated =
              search(serial, group, annotated);
          annotated_oracle = serial_annotated;
          ASSERT_EQ(serial_annotated.size(), expected.size());
          for (std::size_t q = 0; q < expected.size(); ++q) {
            const std::string at =
                annotated_label + "/serial/query " + std::to_string(q);
            // No e-value cutoff: annotation leaves the ranking alone.
            expect_same_answer(serial_annotated[q], expected[q], at);
            for (const SearchHit& hit : serial_annotated[q].ranked.hits) {
              ASSERT_NE(hit.annotation, nullptr) << at;
              const HitAnnotation& a = *hit.annotation;
              const std::vector<std::uint8_t>& query = c.queries[q];
              EXPECT_EQ(cigar_score(a.cigar, {query.data(), query.size()},
                                    db[hit.db_index], a.query_begin,
                                    a.db_begin, c.scheme),
                        hit.score)
                  << at << " record " << hit.db_index << " " << a.cigar;
            }
          }
          for (const auto& [topology, engine] : engines) {
            const std::vector<SearchOutcome> actual =
                search(*engine, group, annotated);
            ASSERT_EQ(actual.size(), serial_annotated.size());
            for (std::size_t q = 0; q < actual.size(); ++q) {
              const std::string at =
                  annotated_label + topology + "/query " + std::to_string(q);
              expect_same_outcome(actual[q], serial_annotated[q], at);
              expect_same_annotation(actual[q], serial_annotated[q], at);
            }
          }
        }

        for (const Forced& f : forced) {
          std::vector<const SearchProfiles*> group;
          for (const auto& profiles : f.profiles) {
            group.push_back(profiles.get());
          }
          const std::string label =
              where + "/striped8/" + backend_name(f.backend);
          const std::vector<SearchOutcome> actual =
              search(serial, group, request);
          ASSERT_EQ(actual.size(), oracle.size());
          std::size_t rescans = 0;
          for (std::size_t q = 0; q < actual.size(); ++q) {
            const std::string at = label + "/query " + std::to_string(q);
            expect_same_answer(actual[q], oracle[q], at);
            EXPECT_EQ(actual[q].ranked.result.cells,
                      oracle[q].ranked.result.cells)
                << at;
            rescans += actual[q].ranked.result.overflow_rescans;
          }
          if (!filter.enabled()) {
            EXPECT_GT(rescans, 0u) << label << ": inputs must overflow";
          }

          if (!c.annotate) continue;
          SearchRequest annotated = request;
          annotated.annotate.mode = AnnotateMode::kStatsCigar;
          annotated.stats = &params;
          const std::vector<SearchOutcome> actual_annotated =
              search(serial, group, annotated);
          ASSERT_EQ(actual_annotated.size(), annotated_oracle.size());
          for (std::size_t q = 0; q < actual_annotated.size(); ++q) {
            const std::string at =
                label + "/stats+cigar/query " + std::to_string(q);
            expect_same_answer(actual_annotated[q], annotated_oracle[q], at);
            EXPECT_EQ(actual_annotated[q].ranked.result.cells,
                      annotated_oracle[q].ranked.result.cells)
                << at;
            expect_same_annotation(actual_annotated[q], annotated_oracle[q],
                                   at);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace swdual::align
