// Unit tests for striped query profile construction.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "align/profile.h"
#include "align/search.h"
#include "util/aligned.h"
#include "util/error.h"
#include "util/lru_cache.h"
#include "util/rng.h"

// The heap probe reads glibc's own arena counters; sanitizers replace the
// allocator, so it skips there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SWDUAL_GLIBC_HEAP_PROBE 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SWDUAL_GLIBC_HEAP_PROBE 0
#endif
#endif
#if !defined(SWDUAL_GLIBC_HEAP_PROBE) && defined(__GLIBC__)
#if __GLIBC_PREREQ(2, 33)
#define SWDUAL_GLIBC_HEAP_PROBE 1
#include <malloc.h>
#endif
#endif
#ifndef SWDUAL_GLIBC_HEAP_PROBE
#define SWDUAL_GLIBC_HEAP_PROBE 0
#endif

namespace swdual::align {
namespace {

TEST(StripedProfileU8, LayoutMapsPositionsToLanes) {
  Rng rng(11);
  for (std::size_t qlen : {1u, 15u, 16u, 17u, 40u, 64u, 129u}) {
    std::vector<std::uint8_t> q(qlen);
    for (auto& c : q) c = static_cast<std::uint8_t>(rng.below(20));
    const ScoreMatrix& m = ScoreMatrix::blosum62();
    const StripedProfileU8 profile(q, m);
    const std::size_t seg = profile.segment_length();
    ASSERT_GE(seg * kLanes8, qlen);
    ASSERT_LT((seg - 1) * kLanes8, qlen + kLanes8);
    for (std::uint8_t code = 0; code < 4; ++code) {
      const std::uint8_t* row = profile.row(code);
      for (std::size_t s = 0; s < seg; ++s) {
        for (std::size_t lane = 0; lane < kLanes8; ++lane) {
          const std::size_t position = lane * seg + s;
          const int expected =
              (position < qlen ? m.score(q[position], code) : 0) +
              profile.bias();
          ASSERT_EQ(row[s * kLanes8 + lane], expected)
              << "qlen=" << qlen << " s=" << s << " lane=" << lane;
        }
      }
    }
  }
}

TEST(StripedProfileU8, RejectsEmptyQuery) {
  EXPECT_THROW(StripedProfileU8({}, ScoreMatrix::blosum62()),
               InvalidArgument);
}

TEST(StripedProfileU8, SegmentLengthCeiling) {
  std::vector<std::uint8_t> q(33, 0);
  const StripedProfileU8 profile(q, ScoreMatrix::blosum62());
  EXPECT_EQ(profile.segment_length(), 3u);  // ceil(33/16)
}

// A service builds a striped8 profile per distinct query, may keep a few
// dozen (an align::ProfileCache), and frees the rest between allocations of
// its own: result-cache entries whose keys carry the whole query. If a freed profile
// block cannot serve the next identical request, every query leaves a hole
// that the cache's small allocations split, and the heap grows with
// traffic: ≈47 MB here with allocator-aligned profiles, ≈3 MB with
// hand-aligned ones (glibc 2.36, AVX2 profiles).
TEST(SearchProfiles, DistinctQueriesReuseFreedProfileBlocks) {
#if SWDUAL_GLIBC_HEAP_PROBE
  constexpr std::size_t kQueries = 2000;
  constexpr std::size_t kQueryLength = 1000;
  constexpr std::size_t kCachedProfiles = 64;
  constexpr std::size_t kRetainedKeys = 1024;
  const ScoringScheme scheme;
  Rng rng(18);
  std::vector<std::uint8_t> query(kQueryLength);
  std::deque<std::unique_ptr<SearchProfiles>> profiles;
  util::LruCache<std::vector<SearchHit>> answers(kRetainedKeys);
  const std::size_t arena_before = mallinfo2().arena;
  std::size_t arena_peak = arena_before;
  for (std::size_t i = 0; i < kQueries; ++i) {
    for (auto& code : query) code = static_cast<std::uint8_t>(rng.below(20));
    profiles.push_back(std::make_unique<SearchProfiles>(
        query, scheme, KernelKind::kStriped8));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(
                  profiles.back()->striped8().row(0)) %
                  kCacheLineBytes,
              0u);
    if (profiles.size() > kCachedProfiles) profiles.pop_front();
    std::string key = "db/blosum62:10:2/";
    key.append(query.begin(), query.end());
    answers.insert(key, std::make_shared<const std::vector<SearchHit>>(10));
    arena_peak = std::max<std::size_t>(arena_peak, mallinfo2().arena);
  }
  const double growth_mb =
      static_cast<double>(arena_peak - arena_before) / (1024.0 * 1024.0);
  RecordProperty("arena_growth_mb", std::to_string(growth_mb));
  EXPECT_LT(growth_mb, 8.0) << "peak main-arena growth over " << kQueries
                            << " distinct profiles";
#else
  GTEST_SKIP() << "needs glibc's allocator (mallinfo2), not a sanitizer's";
#endif
}

}  // namespace
}  // namespace swdual::align
