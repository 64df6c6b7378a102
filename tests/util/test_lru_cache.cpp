// Contract of the shared LRU cache (util/lru_cache.h) under concurrency:
// acquire() builds with the lock released, and racing acquires of one key
// converge on one object with one accounting rule. The typed caches over it
// (ResultCache, ProfileCache, StatsCache) test their keys and eviction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/lru_cache.h"

namespace swdual::util {
namespace {

TEST(LruCache, AcquireBuildsWithTheLockReleased) {
  LruCache<int> cache(4);
  cache.acquire("resident", [] { return std::make_shared<const int>(1); });

  std::future<std::shared_ptr<const int>> other;
  std::future_status lookup_status = std::future_status::timeout;
  const auto value = cache.acquire("built", [&] {
    // A lookup on another thread must not wait for this build to finish.
    // The wait is bounded, so a build under the lock fails here instead of
    // deadlocking: the lookup then completes once acquire() returns.
    other = std::async(std::launch::async,
                       [&] { return cache.lookup("resident"); });
    lookup_status = other.wait_for(std::chrono::seconds(10));
    return std::make_shared<const int>(2);
  });

  EXPECT_EQ(lookup_status, std::future_status::ready);
  EXPECT_EQ(*other.get(), 1);
  EXPECT_EQ(*value, 2);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);    // the other thread's lookup
  EXPECT_EQ(stats.misses, 2u);  // the two builds
  EXPECT_EQ(stats.size, 2u);
}

TEST(LruCache, RacingAcquiresShareOneObjectAndCountEveryBuildAsAMiss) {
  constexpr std::size_t kThreads = 8;
  LruCache<int> cache(4);
  std::atomic<std::size_t> builds{0};
  std::atomic<std::size_t> waiting{0};
  std::vector<std::shared_ptr<const int>> seen(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together, and hold each build open briefly, so several
      // threads miss before the first insert lands.
      ++waiting;
      while (waiting.load() < kThreads) std::this_thread::yield();
      seen[t] = cache.acquire("key", [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return std::make_shared<const int>(static_cast<int>(t));
      });
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].get(), seen[0].get()) << "thread " << t;
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.size, 1u);
  EXPECT_GE(builds.load(), 1u);
  EXPECT_EQ(stats.misses, builds.load());
  EXPECT_EQ(stats.hits + stats.misses, kThreads);
  EXPECT_EQ(stats.evictions, 0u);
}

}  // namespace
}  // namespace swdual::util
