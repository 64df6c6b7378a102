// Unit tests for the serve-layer LRU result cache.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "align/backend.h"
#include "align/profile_cache.h"
#include "align/scoring.h"
#include "serve/cache.h"

namespace swdual::serve {
namespace {

std::shared_ptr<const std::vector<align::SearchHit>> hits_of(int score) {
  return std::make_shared<const std::vector<align::SearchHit>>(
      std::vector<align::SearchHit>{{0, score}});
}

TEST(ResultCache, MissThenHit) {
  ResultCache cache(4);
  EXPECT_EQ(cache.lookup("a"), nullptr);
  cache.insert("a", hits_of(7));
  const auto found = cache.lookup("a");
  ASSERT_NE(found, nullptr);
  ASSERT_EQ(found->size(), 1u);
  EXPECT_EQ((*found)[0].score, 7);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(ResultCache, InsertRaceKeepsFirstValue) {
  ResultCache cache(4);
  const auto first = cache.insert("k", hits_of(1));
  const auto second = cache.insert("k", hits_of(2));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ((*cache.lookup("k"))[0].score, 1);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  cache.insert("a", hits_of(1));
  cache.insert("b", hits_of(2));
  ASSERT_NE(cache.lookup("a"), nullptr);  // refresh "a": "b" becomes LRU
  cache.insert("c", hits_of(3));
  EXPECT_EQ(cache.lookup("b"), nullptr);
  EXPECT_NE(cache.lookup("a"), nullptr);
  EXPECT_NE(cache.lookup("c"), nullptr);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ResultCache, EvictedValueSurvivesThroughSharedPtr) {
  ResultCache cache(1);
  const auto held = cache.insert("a", hits_of(5));
  cache.insert("b", hits_of(6));
  EXPECT_EQ(cache.lookup("a"), nullptr);
  ASSERT_EQ(held->size(), 1u);
  EXPECT_EQ((*held)[0].score, 5);
}

TEST(ResultCache, KeySeparatesEveryDimension) {
  const std::vector<std::uint8_t> query{1, 2, 3};
  const std::vector<std::uint8_t> other{1, 2, 4};
  align::ScoringScheme scheme;
  align::ScoringScheme different_gaps = scheme;
  different_gaps.gap.open += 1;
  const std::span<const std::uint8_t> q{query.data(), query.size()};
  const std::string base = result_key(q, "db1", scheme);
  EXPECT_NE(base, result_key({other.data(), other.size()}, "db1", scheme));
  EXPECT_NE(base, result_key(q, "db2", scheme));
  EXPECT_NE(base, result_key(q, "db1", different_gaps));
  EXPECT_EQ(base, result_key(q, "db1", scheme));

  // The two-stage filter splits the cache only when enabled, and every
  // parameter of an enabled filter is part of the identity.
  align::FilterConfig heuristic;
  heuristic.mode = align::FilterMode::kHeuristic;
  const std::string filtered = result_key(q, "db1", scheme, heuristic);
  EXPECT_NE(base, filtered);
  align::FilterConfig wider = heuristic;
  wider.band += 1;
  EXPECT_NE(filtered, result_key(q, "db1", scheme, wider));
  align::FilterConfig keepier = heuristic;
  keepier.keep_factor += 1.0;
  EXPECT_NE(filtered, result_key(q, "db1", scheme, keepier));
  // kOff ≡ exact search, so it shares the unfiltered key (and cache entry).
  align::FilterConfig off;
  EXPECT_EQ(base, result_key(q, "db1", scheme, off));

  // Annotation splits the cache only when enabled; mode and cutoff are both
  // part of an enabled config's identity (the mode decides the payload, the
  // cutoff decides which hits survive).
  align::AnnotateConfig stats;
  stats.mode = align::AnnotateMode::kStats;
  const std::string annotated = result_key(q, "db1", scheme, off, stats);
  EXPECT_NE(base, annotated);
  align::AnnotateConfig cigar = stats;
  cigar.mode = align::AnnotateMode::kStatsCigar;
  EXPECT_NE(annotated, result_key(q, "db1", scheme, off, cigar));
  align::AnnotateConfig strict = stats;
  strict.evalue_cutoff = 0.001;
  EXPECT_NE(annotated, result_key(q, "db1", scheme, off, strict));
  // Annotate kOff adds nothing: plain and off-annotated answers alias.
  EXPECT_EQ(base, result_key(q, "db1", scheme, off, align::AnnotateConfig{}));
}

TEST(ResultCache, KeyLayoutIsPinned) {
  // Pins the exact key layout so a field cannot sneak in (or out)
  // unreviewed. The key is db id, scoring parameters, and the raw query
  // residues — nothing else. In particular the exact kernel, the SIMD
  // backend and the shard topology (shard count, threads per shard,
  // scatter order) are excluded on purpose: all produce bit-identical
  // answers (tests/align/test_backend_equivalence.cpp,
  // tests/align/test_sharded_property.cpp,
  // tests/align/test_sharded_search.cpp), so one cached result serves every
  // kernel, backend and shard count. Extending the key with any of them
  // would silently split the cache per deployment.
  const std::vector<std::uint8_t> query{3, 1, 4, 1, 5};
  const align::ScoringScheme scheme;
  std::string expected = "dbX";
  expected += '/';
  expected += align::scoring_key(scheme);
  expected += '/';
  expected.append(reinterpret_cast<const char*>(query.data()), query.size());
  EXPECT_EQ(result_key({query.data(), query.size()}, "dbX", scheme),
            expected);

  // An enabled two-stage filter adds exactly one segment before the query
  // bytes: "filter:<mode>:b<band>:k<keep_factor>". A disabled filter adds
  // nothing — the off answer is the exact answer, so the keys must collide.
  align::FilterConfig filter;
  filter.mode = align::FilterMode::kHeuristic;
  filter.band = 48;
  filter.keep_factor = 2.5;
  std::string filtered = "dbX";
  filtered += '/';
  filtered += align::scoring_key(scheme);
  filtered += '/';
  filtered += "filter:";
  filtered += align::filter_mode_name(filter.mode);
  filtered += ":b48:k";
  filtered += std::to_string(2.5);
  filtered += '/';
  filtered.append(reinterpret_cast<const char*>(query.data()), query.size());
  EXPECT_EQ(result_key({query.data(), query.size()}, "dbX", scheme, filter),
            filtered);

  // An enabled annotation likewise adds exactly one segment (after the
  // filter's, before the query bytes): "annotate:<mode>:e<cutoff>".
  align::AnnotateConfig annotate;
  annotate.mode = align::AnnotateMode::kStatsCigar;
  annotate.evalue_cutoff = 10.0;
  std::string annotated = "dbX";
  annotated += '/';
  annotated += align::scoring_key(scheme);
  annotated += '/';
  annotated += "annotate:";
  annotated += align::annotate_mode_name(align::AnnotateMode::kStatsCigar);
  annotated += ":e";
  annotated += std::to_string(10.0);
  annotated += '/';
  annotated.append(reinterpret_cast<const char*>(query.data()),
                   query.size());
  EXPECT_EQ(result_key({query.data(), query.size()}, "dbX", scheme,
                       align::FilterConfig{}, annotate),
            annotated);
}

}  // namespace
}  // namespace swdual::serve
