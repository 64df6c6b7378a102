// Unit tests for the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "util/thread_pool.h"

namespace swdual {
namespace {

TEST(ThreadPool, ExecutesSubmittedTask) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ZeroRequestedStillHasOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPool, PropagatesExceptionsThroughFuture) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, SubmitWithArguments) {
  ThreadPool pool(2);
  auto f = pool.submit([](int a, int b) { return a + b; }, 3, 4);
  EXPECT_EQ(f.get(), 7);
}

TEST(ThreadPool, SubmitMoveOnlyCallableAndArgument) {
  ThreadPool pool(2);
  auto value = std::make_unique<int>(41);
  auto f = pool.submit(
      [captured = std::make_unique<int>(1)](std::unique_ptr<int> arg) {
        return *captured + *arg;
      },
      std::move(value));
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { counter.fetch_add(1); });
    }
    // No explicit wait: destructor must run all queued tasks before joining.
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, hits.size(),
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroCountIsNoop) {
  ThreadPool pool(2);
  parallel_for(pool, 0, [](std::size_t) { FAIL(); });
  parallel_for(pool, 0, 16, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, ChunkGrainCoversDisjointRanges) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  std::atomic<int> ranges{0};
  parallel_for(pool, hits.size(), 7,
               [&](std::size_t begin, std::size_t end) {
                 EXPECT_LT(begin, end);
                 EXPECT_LE(end - begin, 7u);
                 ranges.fetch_add(1);
                 for (std::size_t i = begin; i < end; ++i) {
                   hits[i].fetch_add(1);
                 }
               });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(ranges.load(), (100 + 6) / 7);
}

TEST(ParallelFor, ZeroGrainTreatedAsOne) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 5, 0, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(end, begin + 1);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 5);
}

TEST(ParallelFor, ThrowingRangeWaitsForSiblings) {
  // Ranges borrow the caller's fn and its captures; when one throws, the
  // call must not return while a sibling is still running them.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(
      parallel_for(pool, 8, 1,
                   [&finished](std::size_t begin, std::size_t) {
                     if (begin == 0) throw std::runtime_error("range 0");
                     std::this_thread::sleep_for(std::chrono::milliseconds(50));
                     finished.fetch_add(1);
                   }),
      std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

}  // namespace
}  // namespace swdual
