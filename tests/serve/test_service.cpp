// Edge-case tests for the concurrent query service: admission control,
// shutdown draining, duplicate collapsing, cache behaviour, bit-identity
// against the direct search path, and latency metrics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "align/search.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/error.h"
#include "util/rng.h"

namespace swdual::serve {
namespace {

std::vector<seq::Sequence> tiny_database(std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(20, 120))));
  }
  return db;
}

seq::Sequence make_query(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  return seq::random_protein(rng, "q" + std::to_string(seed), length);
}

ServiceConfig small_config() {
  ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 1;
  config.db_id = "tiny";
  return config;
}

TEST(QueryService, SubmitAfterShutdownIsRejectedWithReason) {
  QueryService service(tiny_database(5, 1), small_config());
  service.shutdown();
  const Submission ticket = service.submit(make_query(2, 40));
  EXPECT_EQ(ticket.status, SubmitStatus::kShutdown);
  EXPECT_FALSE(ticket.accepted());
  EXPECT_FALSE(ticket.reason.empty());
  EXPECT_EQ(service.stats().rejected_shutdown, 1u);
}

TEST(QueryService, ShutdownDrainsAdmittedRequests) {
  // Requests accepted before shutdown must still be answered.
  ServiceConfig config = small_config();
  config.max_batch = 2;
  auto service =
      std::make_unique<QueryService>(tiny_database(8, 3), std::move(config));
  std::vector<std::shared_future<QueryResponse>> pending;
  for (std::uint64_t s = 0; s < 6; ++s) {
    const Submission ticket = service->submit(make_query(10 + s, 30));
    ASSERT_TRUE(ticket.accepted());
    pending.push_back(ticket.result);
  }
  service->shutdown();
  for (auto& future : pending) {
    EXPECT_FALSE(future.get().hits.empty());
  }
  service.reset();  // destructor joins cleanly after explicit shutdown
}

TEST(QueryService, FullAdmissionQueueRejectsImmediately) {
  ServiceConfig config = small_config();
  config.admission_capacity = 2;
  config.max_batch = 1;
  // Hold the batcher inside its first batch so the admission queue state is
  // deterministic while we probe it.
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> calls{0};
  config.before_batch = [&](std::size_t) {
    if (calls.fetch_add(1) == 0) {
      entered.set_value();
      release_future.wait();
    }
  };
  QueryService service(tiny_database(5, 4), std::move(config));

  const Submission first = service.submit(make_query(20, 30));
  ASSERT_TRUE(first.accepted());
  entered.get_future().wait();  // batcher drained `first`, queue now empty

  const Submission second = service.submit(make_query(21, 30));
  const Submission third = service.submit(make_query(22, 30));
  ASSERT_TRUE(second.accepted());
  ASSERT_TRUE(third.accepted());
  const Submission rejected = service.submit(make_query(23, 30));
  EXPECT_EQ(rejected.status, SubmitStatus::kQueueFull);
  EXPECT_NE(rejected.reason.find("admission queue full"), std::string::npos);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);

  release.set_value();
  EXPECT_FALSE(first.result.get().hits.empty());
  EXPECT_FALSE(second.result.get().hits.empty());
  EXPECT_FALSE(third.result.get().hits.empty());
}

TEST(QueryService, DuplicateConcurrentQueriesCollapseToOneSearch) {
  ServiceConfig config = small_config();
  config.max_batch = 8;
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> calls{0};
  config.before_batch = [&](std::size_t) {
    if (calls.fetch_add(1) == 0) {
      entered.set_value();
      release_future.wait();
    }
  };
  QueryService service(tiny_database(10, 5), std::move(config));

  // First batch: a decoy that blocks the batcher while the duplicates queue.
  const Submission decoy = service.submit(make_query(30, 25));
  ASSERT_TRUE(decoy.accepted());
  entered.get_future().wait();

  const seq::Sequence query = make_query(31, 60);
  const Submission a = service.submit(query);
  const Submission b = service.submit(query);
  ASSERT_TRUE(a.accepted());
  ASSERT_TRUE(b.accepted());
  release.set_value();

  const QueryResponse ra = a.result.get();
  const QueryResponse rb = b.result.get();
  EXPECT_FALSE(ra.cache_hit);
  EXPECT_FALSE(rb.cache_hit);
  ASSERT_EQ(ra.hits.size(), rb.hits.size());
  for (std::size_t i = 0; i < ra.hits.size(); ++i) {
    EXPECT_EQ(ra.hits[i].db_index, rb.hits[i].db_index);
    EXPECT_EQ(ra.hits[i].score, rb.hits[i].score);
  }

  const auto stats = service.stats();
  EXPECT_EQ(stats.searches, 2u);  // decoy + ONE search for the duplicates
  EXPECT_EQ(stats.joined, 1u);    // the second duplicate joined the first
  EXPECT_EQ(stats.results.size, 2u);  // one cache entry per distinct query

  // The duplicates produced one cache entry; a re-submit is a pure hit.
  const Submission again = service.submit(query);
  ASSERT_TRUE(again.accepted());
  EXPECT_TRUE(again.result.get().cache_hit);
  EXPECT_EQ(service.stats().searches, 2u);  // no new search
}

TEST(QueryService, ResponsesAreBitIdenticalToDirectSearch) {
  const auto db = tiny_database(20, 6);
  ServiceConfig config = small_config();
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  QueryService service(db, std::move(config));

  std::vector<seq::Sequence> queries;
  std::vector<std::shared_future<QueryResponse>> pending;
  for (std::uint64_t s = 0; s < 5; ++s) {
    queries.push_back(make_query(40 + s, 35 + 10 * s));
    // Submit each query twice: the second is either batched into the same
    // workload or a cache hit — identical either way.
    for (int copy = 0; copy < 2; ++copy) {
      const Submission ticket = service.submit(queries.back());
      ASSERT_TRUE(ticket.accepted());
      pending.push_back(ticket.result);
    }
  }
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const QueryResponse response = pending[i].get();
    const auto expected =
        align::search_database(queries[i / 2], db, scheme, kernel).top(top);
    ASSERT_EQ(response.hits.size(), expected.size()) << "request " << i;
    for (std::size_t h = 0; h < expected.size(); ++h) {
      EXPECT_EQ(response.hits[h].db_index, expected[h].db_index)
          << "request " << i << " hit " << h;
      EXPECT_EQ(response.hits[h].score, expected[h].score)
          << "request " << i << " hit " << h;
    }
  }
}

TEST(QueryService, LatencyMetricsAndSpansAreRecorded) {
  obs::MetricsRegistry metrics;
  obs::Tracer tracer;
  ServiceConfig config = small_config();
  config.metrics = &metrics;
  config.tracer = &tracer;
  QueryService service(tiny_database(8, 7), std::move(config));

  const seq::Sequence query = make_query(50, 45);
  std::vector<std::shared_future<QueryResponse>> pending;
  for (int i = 0; i < 4; ++i) {
    const Submission ticket = service.submit(query);
    ASSERT_TRUE(ticket.accepted());
    pending.push_back(ticket.result);
  }
  for (auto& future : pending) {
    const QueryResponse response = future.get();
    EXPECT_GE(response.queue_seconds, 0.0);
    EXPECT_GE(response.execute_seconds, 0.0);
    EXPECT_GE(response.total_seconds, response.queue_seconds);
  }
  service.shutdown();

  EXPECT_EQ(metrics.counter("serve_accepted"), 4.0);
  EXPECT_EQ(metrics.histogram("serve_latency_seconds").count, 4u);
  EXPECT_GT(metrics.percentile("serve_latency_seconds", 0.5), 0.0);
  EXPECT_LE(metrics.percentile("serve_latency_seconds", 0.5),
            metrics.percentile("serve_latency_seconds", 0.99));
  EXPECT_GT(metrics.counter("serve_cache_hits") +
                metrics.counter("serve_cache_misses"),
            0.0);

  bool saw_queued = false;
  bool saw_answer = false;
  for (const auto& event : tracer.flush()) {
    if (event.category != "serve") continue;
    if (event.name == "queued") saw_queued = true;
    if (event.name == "execute" || event.name == "cache-hit") {
      saw_answer = true;
    }
  }
  EXPECT_TRUE(saw_queued);
  EXPECT_TRUE(saw_answer);
}

TEST(QueryService, ThrowingTaskFailsOnlyItsBatch) {
  // The first task throws and has no retries left, so its batch fails on
  // the batcher thread; the service keeps serving the next request.
  const auto db = tiny_database(12, 9);
  ServiceConfig config = small_config();
  config.master.max_task_retries = 0;
  auto calls = std::make_shared<std::atomic<int>>(0);
  config.master.fault_injector = [calls](std::size_t, std::size_t) {
    if (calls->fetch_add(1) == 0) throw std::runtime_error("task threw");
    return false;
  };
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  QueryService service(db, std::move(config));

  const Submission first = service.submit(make_query(60, 40));
  ASSERT_TRUE(first.accepted());
  EXPECT_THROW((void)first.result.get(), Error);

  const seq::Sequence query = make_query(61, 44);
  const Submission second = service.submit(query);
  ASSERT_TRUE(second.accepted());
  const QueryResponse response = second.result.get();
  const auto expected =
      align::search_database(query, db, scheme, kernel).top(top);
  ASSERT_EQ(response.hits.size(), expected.size());
  for (std::size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(response.hits[h].db_index, expected[h].db_index) << "hit " << h;
    EXPECT_EQ(response.hits[h].score, expected[h].score) << "hit " << h;
  }
}

TEST(QueryService, EmptyQueryIsRejectedUpFront) {
  QueryService service(tiny_database(3, 8), small_config());
  seq::Sequence empty;
  EXPECT_THROW((void)service.submit(empty), InvalidArgument);
}

}  // namespace
}  // namespace swdual::serve
