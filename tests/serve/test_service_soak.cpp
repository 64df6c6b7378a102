// Multithreaded soak: several submitter threads hammer one service with a
// small query pool while the batcher coalesces and caches. Run under tsan
// via the preset matrix (labels: serve, threads). Every accepted future must
// be fulfilled, every answer — computed, deduplicated in a batch or served
// from the cache — must equal the direct align::search_database top-k, and
// the bookkeeping must balance.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "align/search.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/rng.h"

namespace swdual::serve {
namespace {

TEST(QueryServiceSoak, ConcurrentSubmittersAllGetConsistentAnswers) {
  Rng rng(99);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < 10; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 80))));
  }
  std::vector<seq::Sequence> pool;
  for (std::size_t q = 0; q < 6; ++q) {
    pool.push_back(seq::random_protein(rng, "q" + std::to_string(q),
                                       30 + 5 * q));
  }

  ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 1;
  config.admission_capacity = 64;
  config.max_batch = 8;
  config.db_id = "soak";
  std::vector<std::vector<align::SearchHit>> expected;
  for (const seq::Sequence& query : pool) {
    expected.push_back(align::search_database(query, db, config.master.scheme,
                                              config.master.cpu_kernel)
                           .top(config.master.top_hits));
  }
  QueryService service(db, std::move(config));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 30;
  std::mutex collected_mutex;
  std::vector<std::pair<std::size_t, std::shared_future<QueryResponse>>>
      collected;  // (pool index, future)
  std::atomic<std::uint64_t> rejected{0};

  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pick = (t * kPerThread + i) % pool.size();
        for (;;) {
          const Submission ticket = service.submit(pool[pick]);
          if (ticket.accepted()) {
            std::lock_guard<std::mutex> lock(collected_mutex);
            collected.emplace_back(pick, ticket.result);
            break;
          }
          // Backpressure: the queue was full; yield and retry.
          ASSERT_EQ(ticket.status, SubmitStatus::kQueueFull);
          rejected.fetch_add(1);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  ASSERT_EQ(collected.size(), kThreads * kPerThread);
  for (auto& [pick, future] : collected) {
    const QueryResponse response = future.get();
    ASSERT_FALSE(response.hits.empty());
    ASSERT_EQ(response.hits.size(), expected[pick].size()) << "query " << pick;
    for (std::size_t h = 0; h < response.hits.size(); ++h) {
      EXPECT_EQ(response.hits[h].db_index, expected[pick][h].db_index)
          << "query " << pick << " hit " << h;
      EXPECT_EQ(response.hits[h].score, expected[pick][h].score)
          << "query " << pick << " hit " << h;
    }
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.accepted, kThreads * kPerThread);
  EXPECT_EQ(stats.rejected_queue_full, rejected.load());
  // 120 requests over 6 distinct queries: at most 6 entries and far fewer
  // searches than requests — the cache and the batcher dedup must both bite.
  EXPECT_LE(stats.results.size, pool.size());
  EXPECT_LT(stats.searches, kThreads * kPerThread);
  EXPECT_GT(stats.results.hits, 0u);
}

TEST(QueryServiceSoak, ShutdownRacingSubmittersLosesNoAcceptedRequest) {
  Rng rng(123);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < 6; ++i) {
    db.push_back(seq::random_protein(rng, "db" + std::to_string(i), 40));
  }
  const seq::Sequence query = seq::random_protein(rng, "q", 35);

  ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 0;
  config.db_id = "race";
  QueryService service(db, std::move(config));

  std::vector<std::thread> submitters;
  std::mutex collected_mutex;
  std::vector<std::shared_future<QueryResponse>> accepted;
  for (std::size_t t = 0; t < 3; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        const Submission ticket = service.submit(query);
        if (!ticket.accepted()) {
          EXPECT_EQ(ticket.status, SubmitStatus::kShutdown);
          return;  // shutdown won the race; later submits also reject
        }
        std::lock_guard<std::mutex> lock(collected_mutex);
        accepted.push_back(ticket.result);
      }
    });
  }
  service.shutdown();
  for (auto& thread : submitters) thread.join();
  // Everything accepted before shutdown is still answered (drain semantics).
  for (auto& future : accepted) {
    EXPECT_FALSE(future.get().hits.empty());
  }
}

}  // namespace
}  // namespace swdual::serve
