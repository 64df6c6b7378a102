// Tests for the shared LRU query-profile cache.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "align/profile_cache.h"
#include "align/search.h"
#include "seq/dbgen.h"
#include "util/rng.h"

namespace swdual::align {
namespace {

std::vector<seq::Sequence> tiny_database(std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 150))));
  }
  return db;
}

seq::Sequence make_query(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  return seq::random_protein(rng, "q", length);
}

std::span<const std::uint8_t> view(const seq::Sequence& s) {
  return {s.residues.data(), s.residues.size()};
}

TEST(ProfileCache, SecondAcquireIsAHitAndSharesTheEntry) {
  ProfileCache cache(4);
  const seq::Sequence query = make_query(3, 80);
  ScoringScheme scheme;
  const auto first = cache.acquire(view(query), scheme, KernelKind::kStriped8);
  const auto second = cache.acquire(view(query), scheme, KernelKind::kStriped8);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(ProfileCache, EntryOwnsItsResidues) {
  ProfileCache cache(2);
  ScoringScheme scheme;
  std::shared_ptr<const SearchProfiles> cached;
  {
    const seq::Sequence query = make_query(5, 60);
    cached = cache.acquire(view(query), scheme, KernelKind::kScalar);
  }  // submitting buffer destroyed; the cached copy must stay valid
  EXPECT_EQ(cached->query().size(), 60u);
  EXPECT_EQ(cached->kernel(), KernelKind::kScalar);
}

TEST(ProfileCache, DistinctKernelsAndGapsGetDistinctEntries) {
  ProfileCache cache(8);
  const seq::Sequence query = make_query(7, 70);
  ScoringScheme scheme;
  const auto striped = cache.acquire(view(query), scheme, KernelKind::kStriped8);
  const auto scalar = cache.acquire(view(query), scheme, KernelKind::kScalar);
  EXPECT_NE(striped.get(), scalar.get());

  ScoringScheme other = scheme;
  other.gap.open += 1;
  const auto other_gaps =
      cache.acquire(view(query), other, KernelKind::kStriped8);
  EXPECT_NE(striped.get(), other_gaps.get());
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(ProfileCache, ScoringKeySeparatesGapPenalties) {
  ScoringScheme a;
  ScoringScheme b = a;
  b.gap.extend += 1;
  EXPECT_NE(scoring_key(a), scoring_key(b));
  EXPECT_EQ(scoring_key(a), scoring_key(a));
}

TEST(ProfileCache, EvictsLeastRecentlyUsedButAcquiredEntriesSurvive) {
  ProfileCache cache(2);
  ScoringScheme scheme;
  const seq::Sequence q0 = make_query(11, 40);
  const seq::Sequence q1 = make_query(12, 40);
  const seq::Sequence q2 = make_query(13, 40);

  const auto held = cache.acquire(view(q0), scheme, KernelKind::kStriped8);
  (void)cache.acquire(view(q1), scheme, KernelKind::kStriped8);
  // Touch q0 so q1 becomes the LRU victim, then overflow.
  (void)cache.acquire(view(q0), scheme, KernelKind::kStriped8);
  (void)cache.acquire(view(q2), scheme, KernelKind::kStriped8);

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);

  // q1 was evicted: re-acquiring it is a miss. q0 is still resident.
  (void)cache.acquire(view(q1), scheme, KernelKind::kStriped8);
  EXPECT_EQ(cache.stats().misses, 4u);
  (void)cache.acquire(view(q0), scheme, KernelKind::kStriped8);

  // The shared_ptr held across the evictions stays fully usable.
  EXPECT_EQ(held->query().size(), 40u);
}

// kAuto resolves per kernel (best_backend(KernelKind)): a cached entry must
// run on the backend a directly built SearchProfiles picks, e.g. AVX2 for
// striped8 on an AVX-512BW host. Under SWDUAL_FORCE_BACKEND both sides read
// the forced backend.
TEST(ProfileCache, AutoBackendFollowsTheKernelAwareRule) {
  ProfileCache cache(8);
  const seq::Sequence query = make_query(19, 64);
  ScoringScheme scheme;
  for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
    const SearchProfiles direct(view(query), scheme, kernel, Backend::kAuto);
    const auto cached = cache.acquire(view(query), scheme, kernel);
    EXPECT_EQ(cached->backend(), direct.backend())
        << kernel_name(kernel) << ": cache=" << backend_name(cached->backend())
        << " direct=" << backend_name(direct.backend());
  }
}

// A kAuto entry is what a direct kAuto build gives, screen backend
// included: on an AVX-512BW host striped8 scans on AVX2 (the kernel gate)
// and screens on AVX-512. So it is not the explicit kAVX2 entry, which
// screens on AVX2. Where the gate changes nothing both entries would run
// alike, so the case skips.
TEST(ProfileCache, AutoEntryScreensLikeADirectAutoBuild) {
  if (best_backend() == best_backend(KernelKind::kStriped8)) {
    GTEST_SKIP() << "the striped8 gate does not narrow "
                 << backend_name(best_backend()) << " on this host";
  }
  ProfileCache cache(8);
  const seq::Sequence query = make_query(23, 64);
  ScoringScheme scheme;
  const SearchProfiles direct(view(query), scheme, KernelKind::kStriped8,
                              Backend::kAuto);
  const auto automatic = cache.acquire(view(query), scheme,
                                       KernelKind::kStriped8, Backend::kAuto);
  EXPECT_EQ(automatic->backend(), direct.backend());
  EXPECT_EQ(automatic->screen_backend(), direct.screen_backend())
      << "cache=" << backend_name(automatic->screen_backend())
      << " direct=" << backend_name(direct.screen_backend());
  const auto narrow = cache.acquire(view(query), scheme, KernelKind::kStriped8,
                                    direct.backend());
  EXPECT_NE(narrow.get(), automatic.get());
  EXPECT_EQ(narrow->screen_backend(), direct.backend());
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ProfileCache, CachedProfilesScoreBitIdenticalToDirectSearch) {
  const auto db = tiny_database(25, 17);
  const DbView db_view = make_db_view(db);
  const seq::Sequence query = make_query(18, 90);
  ScoringScheme scheme;
  ProfileCache cache(4);
  for (KernelKind kernel : {KernelKind::kScalar, KernelKind::kStriped8}) {
    const SearchResult direct = search_database(view(query), db_view, scheme,
                                                kernel, Backend::kAuto);
    const auto cached = cache.acquire(view(query), scheme, kernel);
    // Scan twice through the same cached profiles: reuse must not perturb
    // scores (profiles are read-only once built).
    for (int pass = 0; pass < 2; ++pass) {
      const SearchResult via_cache =
          search_database(*cached, db_view);
      ASSERT_EQ(via_cache.scores.size(), direct.scores.size());
      for (std::size_t i = 0; i < direct.scores.size(); ++i) {
        EXPECT_EQ(via_cache.scores[i], direct.scores[i])
            << kernel_name(kernel) << " record " << i << " pass " << pass;
      }
      EXPECT_EQ(via_cache.cells, direct.cells);
    }
  }
}

}  // namespace
}  // namespace swdual::align
