// Serve-layer sharded search: bit-identity of sharded responses,
// cache hits independent of shard topology, filtered answers that recall the
// exact top-k on both serve paths, shard failures recovered by the engine's
// retry ladder into canonical, cached answers, partial results with a reason
// once the ladder is exhausted, the shutdown-mid-scatter drain guarantee,
// batches that overlap on the engine's pool, and duplicates that join a
// search in flight (complete, partial, or pending at shutdown). The
// multithreaded soak at the end runs under tsan via the preset matrix
// (labels: serve, shards, threads).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/alignment.h"
#include "align/annotate.h"
#include "align/search.h"
#include "obs/metrics.h"
#include "seq/dbgen.h"
#include "serve/service.h"
#include "util/rng.h"

namespace swdual::serve {
namespace {

std::vector<seq::Sequence> make_database(std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed);
  std::vector<seq::Sequence> db;
  for (std::size_t i = 0; i < count; ++i) {
    db.push_back(seq::random_protein(
        rng, "db" + std::to_string(i),
        static_cast<std::size_t>(rng.between(15, 110))));
  }
  return db;
}

seq::Sequence make_query(std::uint64_t seed, std::size_t length) {
  Rng rng(seed);
  return seq::random_protein(rng, "q" + std::to_string(seed), length);
}

ServiceConfig sharded_config(std::size_t shards) {
  ServiceConfig config;
  config.master.cpu_workers = 1;
  config.master.gpu_workers = 1;
  config.db_id = "sharded";
  config.shards = shards;
  return config;
}

void expect_hits_equal(const std::vector<align::SearchHit>& actual,
                       const std::vector<align::SearchHit>& expected,
                       const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (std::size_t h = 0; h < expected.size(); ++h) {
    EXPECT_EQ(actual[h].db_index, expected[h].db_index)
        << label << " hit " << h;
    EXPECT_EQ(actual[h].score, expected[h].score) << label << " hit " << h;
  }
}

TEST(ShardedQueryService, ResponsesBitIdenticalToDirectSearch) {
  const auto db = make_database(24, 1);
  for (const std::size_t shards : {2u, 5u}) {
    ServiceConfig config = sharded_config(shards);
    config.threads_per_shard = 2;
    const align::ScoringScheme scheme = config.master.scheme;
    const align::KernelKind kernel = config.master.cpu_kernel;
    const std::size_t top = config.master.top_hits;
    QueryService service(db, std::move(config));
    EXPECT_EQ(service.num_shards(), shards);

    for (std::uint64_t s = 0; s < 4; ++s) {
      const seq::Sequence query = make_query(100 + s, 30 + 12 * s);
      const Submission ticket = service.submit(query);
      ASSERT_TRUE(ticket.accepted());
      const QueryResponse response = ticket.result.get();
      EXPECT_FALSE(response.partial);
      const auto expected =
          align::search_database(query, db, scheme, kernel).top(top);
      expect_hits_equal(response.hits, expected,
                        "shards=" + std::to_string(shards) + " query " +
                            std::to_string(s));
    }
    const auto stats = service.stats();
    EXPECT_GT(stats.shards.group_passes, 0u);
    EXPECT_EQ(stats.shards.failures, 0u);
  }
}

TEST(ShardedQueryService, CacheHitsBitIdenticalRegardlessOfShardCount) {
  // Regression for the cache-key topology rule: the result key excludes
  // shard count (like the backend), so a cached answer is the same answer
  // at every shard count — and a hit must be bit-identical to the direct
  // unsharded search no matter which topology computed it.
  const auto db = make_database(20, 2);
  const seq::Sequence query = make_query(7, 55);
  std::vector<align::SearchHit> expected;
  {
    ServiceConfig probe = sharded_config(1);
    expected = align::search_database(query, db, probe.master.scheme,
                                      probe.master.cpu_kernel)
                   .top(probe.master.top_hits);
  }
  for (const std::size_t shards : {1u, 3u, 7u}) {
    QueryService service(db, sharded_config(shards));
    const Submission first = service.submit(query);
    ASSERT_TRUE(first.accepted());
    const QueryResponse warm = first.result.get();
    EXPECT_FALSE(warm.cache_hit);
    expect_hits_equal(warm.hits, expected,
                      "warm shards=" + std::to_string(shards));

    const Submission second = service.submit(query);
    ASSERT_TRUE(second.accepted());
    const QueryResponse hit = second.result.get();
    EXPECT_TRUE(hit.cache_hit);
    expect_hits_equal(hit.hits, expected,
                      "cached shards=" + std::to_string(shards));
    EXPECT_EQ(service.stats().searches, 1u);  // the hit ran no search
  }
}

TEST(ShardedQueryService, ExhaustedShardYieldsPartialResponseNeverCached) {
  const auto db = make_database(18, 4);
  ServiceConfig config = sharded_config(3);
  config.max_shard_retries = 1;
  config.before_shard = [](std::size_t shard, std::size_t) {
    if (shard == 0) throw std::runtime_error("injected: shard 0 down");
  };
  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  QueryService service(db, std::move(config));

  const seq::Sequence query = make_query(13, 52);
  const Submission first = service.submit(query);
  ASSERT_TRUE(first.accepted());
  const QueryResponse partial = first.result.get();
  EXPECT_TRUE(partial.partial);
  EXPECT_NE(partial.partial_reason.find("shard 0"), std::string::npos);
  EXPECT_NE(partial.partial_reason.find("shard 0 down"), std::string::npos);

  // Partial answers must not poison the cache: the retry is a fresh search
  // (still partial here — the shard is still down), never a cache hit.
  const Submission second = service.submit(query);
  ASSERT_TRUE(second.accepted());
  const QueryResponse again = second.result.get();
  EXPECT_FALSE(again.cache_hit);
  EXPECT_TRUE(again.partial);
  const auto stats = service.stats();
  EXPECT_EQ(stats.searches, 2u);
  EXPECT_EQ(stats.partial_responses, 2u);
  EXPECT_EQ(stats.results.size, 0u);  // nothing was inserted
  EXPECT_GE(metrics.counter("serve_shard_failures"), 1.0);
}

/// Random records with a dozen mutated copies of `query` spread across the
/// database, so a heuristic filter finds the exact top hits in every shard.
std::vector<seq::Sequence> planted_database(const seq::Sequence& query,
                                            std::uint64_t seed) {
  std::vector<seq::Sequence> db = make_database(48, seed);
  Rng rng(seed + 1);
  for (std::size_t copy = 0; copy < 12; ++copy) {
    seq::Sequence homolog = query;
    homolog.id = "homolog" + std::to_string(copy);
    for (std::size_t p = copy % 9; p < homolog.residues.size(); p += 9) {
      homolog.residues[p] = static_cast<std::uint8_t>(rng.below(20));
    }
    db[copy * 4 + 1] = std::move(homolog);
  }
  return db;
}

/// Recall@k of `got` against the exact top-k `want`. An expected hit counts
/// as recalled on an index match or a score match: under score ties the
/// exact top-k set is not unique, and a tie-equivalent record is exactly as
/// good an answer.
double recall_at_k(const std::vector<align::SearchHit>& got,
                   const std::vector<align::SearchHit>& want) {
  if (want.empty()) return 1.0;
  std::size_t recalled = 0;
  for (const align::SearchHit& expected : want) {
    for (const align::SearchHit& hit : got) {
      if (hit.db_index == expected.db_index || hit.score == expected.score) {
        ++recalled;
        break;
      }
    }
  }
  return static_cast<double>(recalled) / static_cast<double>(want.size());
}

/// The service's two paths: the master at 0 shards, the sharded engine
/// otherwise.
class FilteredQueryService : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FilteredQueryService, HeuristicAnswersRecallTheExactTopK) {
  // A dozen planted homologs for k = 10: the band-16 screen with keep
  // factor 4 must keep every record of the exact top-k, whichever path
  // serves the query.
  for (std::uint64_t s = 0; s < 3; ++s) {
    const seq::Sequence query = make_query(50 + s, 80);
    const auto db = planted_database(query, 11 + s);
    ServiceConfig config = sharded_config(GetParam());
    config.db_id = "filtered";
    config.master.filter.mode = align::FilterMode::kHeuristic;
    config.master.filter.band = 16;
    config.master.filter.keep_factor = 4.0;
    const std::vector<align::SearchHit> exact =
        align::search_database(query, db, config.master.scheme,
                               config.master.cpu_kernel)
            .top(config.master.top_hits);
    ASSERT_EQ(exact.size(), 10u);
    QueryService service(db, std::move(config));
    const QueryResponse response = service.submit(query).result.get();
    const std::string label = "query " + std::to_string(s);
    EXPECT_TRUE(response.filtered) << label;
    EXPECT_FALSE(response.partial) << label << " " << response.partial_reason;
    EXPECT_EQ(response.hits.size(), exact.size()) << label;
    EXPECT_EQ(recall_at_k(response.hits, exact), 1.0) << label;
    service.shutdown();
  }
}

INSTANTIATE_TEST_SUITE_P(
    ServePaths, FilteredQueryService, ::testing::Values(0u, 2u),
    [](const ::testing::TestParamInfo<std::size_t>& pi) {
      return pi.param == 0 ? std::string("master")
                           : "shards" + std::to_string(pi.param);
    });

ServiceConfig filtered_annotated_config() {
  ServiceConfig config = sharded_config(2);
  config.db_id = "filtered-annotated";
  config.master.filter.mode = align::FilterMode::kHeuristic;
  config.master.filter.band = 16;
  config.master.filter.keep_factor = 4.0;
  config.master.annotate.mode = align::AnnotateMode::kStatsCigar;
  return config;
}

TEST(ShardedQueryService, FilteredAnnotatedShardRetriedIsCanonicalAndCached) {
  const seq::Sequence query = make_query(41, 80);
  const auto db = planted_database(query, 7);
  const align::DbView view = align::make_db_view(db);
  const align::ScoringScheme scheme;

  std::vector<align::SearchHit> healthy;
  {
    QueryService service(db, filtered_annotated_config());
    healthy = service.submit(query).result.get().hits;
    service.shutdown();
  }
  ASSERT_FALSE(healthy.empty());

  ServiceConfig config = filtered_annotated_config();
  config.max_shard_retries = 1;
  // Shard 1's first attempt fails; the ladder's retry re-runs its chunks
  // inline, and selection stays global over the merged screen.
  config.before_shard = [](std::size_t shard, std::size_t attempt) {
    if (shard == 1 && attempt == 0) {
      throw std::runtime_error("injected: shard 1 blip");
    }
  };
  QueryService service(db, std::move(config));
  const QueryResponse response = service.submit(query).result.get();
  EXPECT_FALSE(response.partial) << response.partial_reason;
  EXPECT_TRUE(response.filtered);
  EXPECT_TRUE(response.annotated);
  expect_hits_equal(response.hits, healthy, "retried");
  for (std::size_t i = 0; i < response.hits.size(); ++i) {
    const align::SearchHit& hit = response.hits[i];
    ASSERT_NE(hit.annotation, nullptr) << "hit " << i;
    EXPECT_EQ(align::cigar_score(hit.annotation->cigar,
                                 {query.residues.data(), query.residues.size()},
                                 view[hit.db_index],
                                 hit.annotation->query_begin,
                                 hit.annotation->db_begin, scheme),
              hit.score)
        << "hit " << i << " cigar " << hit.annotation->cigar;
  }

  // A recovered answer is the canonical one, so it was cached.
  const QueryResponse again = service.submit(query).result.get();
  EXPECT_TRUE(again.cache_hit);
  expect_hits_equal(again.hits, healthy, "cached");
  const auto stats = service.stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_GE(stats.shards.retries, 1u);
  service.shutdown();
}

TEST(ShardedQueryService, FilteredAnnotatedWithoutRecoveryIsPartialUncached) {
  const seq::Sequence query = make_query(43, 80);
  const auto db = planted_database(query, 8);
  ServiceConfig config = filtered_annotated_config();
  config.max_shard_retries = 1;
  config.before_shard = [](std::size_t shard, std::size_t) {
    if (shard == 1) throw std::runtime_error("injected: shard 1 down");
  };
  QueryService service(db, std::move(config));

  const QueryResponse first = service.submit(query).result.get();
  EXPECT_TRUE(first.partial);
  EXPECT_NE(first.partial_reason.find("shard 1"), std::string::npos);
  EXPECT_NE(first.partial_reason.find("shard 1 down"), std::string::npos);
  const QueryResponse second = service.submit(query).result.get();
  EXPECT_FALSE(second.cache_hit);
  EXPECT_TRUE(second.partial);
  const auto stats = service.stats();
  EXPECT_EQ(stats.partial_responses, 2u);
  EXPECT_EQ(stats.results.size, 0u);
  service.shutdown();
}

TEST(ShardedQueryService, ShutdownMidScatterDrainsAdmittedRequests) {
  const auto db = make_database(12, 5);
  ServiceConfig config = sharded_config(2);
  config.max_batch = 1;  // queries 2..n wait in admission during the block
  std::promise<void> entered;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  std::atomic<int> calls{0};
  config.before_shard = [&](std::size_t, std::size_t) {
    if (calls.fetch_add(1) == 0) {
      entered.set_value();
      release_future.wait();
    }
  };
  auto service =
      std::make_unique<QueryService>(db, std::move(config));

  std::vector<std::shared_future<QueryResponse>> pending;
  for (std::uint64_t s = 0; s < 4; ++s) {
    const Submission ticket = service->submit(make_query(20 + s, 35));
    ASSERT_TRUE(ticket.accepted());
    pending.push_back(ticket.result);
  }
  entered.get_future().wait();  // the scatter is in flight right now
  service->shutdown();          // stop admissions mid-scatter
  EXPECT_EQ(service->submit(make_query(99, 30)).status,
            SubmitStatus::kShutdown);
  release.set_value();          // let the scatter finish

  for (auto& future : pending) {
    const QueryResponse response = future.get();
    EXPECT_FALSE(response.partial);
    EXPECT_FALSE(response.hits.empty());
  }
  service.reset();  // destructor joins after the drain
}

/// A service whose first shard attempt holds until release(). The
/// destructor releases before the service's batchers are joined, so a
/// failed assertion cannot leave the held pass (and the test) waiting
/// forever. `then` runs on every shard attempt after the hold.
class HeldFirstPass {
 public:
  HeldFirstPass(std::vector<seq::Sequence> db, ServiceConfig config,
                std::function<void(std::size_t, std::size_t)> then = {}) {
    config.before_shard = [this, then = std::move(then)](
                              std::size_t shard, std::size_t attempt) {
      if (calls_.fetch_add(1) == 0) {
        entered_.set_value();
        released_.wait();
      }
      if (then) then(shard, attempt);
    };
    service_ = std::make_unique<QueryService>(std::move(db), std::move(config));
  }
  ~HeldFirstPass() { release(); }
  HeldFirstPass(const HeldFirstPass&) = delete;
  HeldFirstPass& operator=(const HeldFirstPass&) = delete;

  QueryService& service() { return *service_; }
  void wait_until_held() { held_.wait(); }
  void release() {
    std::call_once(release_once_, [this] { release_.set_value(); });
  }

 private:
  std::atomic<int> calls_{0};
  std::promise<void> entered_;
  std::shared_future<void> held_ = entered_.get_future().share();
  std::promise<void> release_;
  std::shared_future<void> released_ = release_.get_future().share();
  std::once_flag release_once_;
  std::unique_ptr<QueryService> service_;  // last: destroyed first
};

/// How long a test waits for an answer or a state that must come while a
/// pass is held.
constexpr auto kPatience = std::chrono::seconds(20);

/// Polls `done` until it holds or kPatience passes; returns its last value.
template <typename Done>
bool eventually(const Done& done) {
  const auto deadline = std::chrono::steady_clock::now() + kPatience;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// 2 shards × 1 thread: a pool of 2 threads, so 2 batchers; max_batch 1
/// makes every request its own batch.
ServiceConfig two_batcher_config() {
  ServiceConfig config = sharded_config(2);
  config.max_batch = 1;
  return config;
}

TEST(ShardedQueryService, SecondBatchRunsWhileFirstIsHeld) {
  const auto db = make_database(16, 9);
  ServiceConfig config = two_batcher_config();
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  HeldFirstPass held(db, std::move(config));

  const seq::Sequence first_query = make_query(60, 40);
  const Submission first = held.service().submit(first_query);
  ASSERT_TRUE(first.accepted());
  held.wait_until_held();

  // The other batcher takes the second request, and its pass's chunks run
  // on the pool thread the held pass leaves free.
  const seq::Sequence second_query = make_query(61, 45);
  const Submission second = held.service().submit(second_query);
  ASSERT_TRUE(second.accepted());
  ASSERT_EQ(second.result.wait_for(kPatience), std::future_status::ready)
      << "the second batch waited for the held one";
  EXPECT_EQ(first.result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  expect_hits_equal(second.result.get().hits,
                    align::search_database(second_query, db, scheme, kernel)
                        .top(top),
                    "second");

  held.release();
  expect_hits_equal(first.result.get().hits,
                    align::search_database(first_query, db, scheme, kernel)
                        .top(top),
                    "first");
  const auto stats = held.service().stats();
  EXPECT_EQ(stats.searches, 2u);
  EXPECT_EQ(stats.batches, 2u);
}

TEST(ShardedQueryService, DuplicateOfHeldQueryJoinsItsSearch) {
  const auto db = make_database(16, 10);
  ServiceConfig config = two_batcher_config();
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  HeldFirstPass held(db, std::move(config));

  const seq::Sequence query = make_query(62, 50);
  const Submission first = held.service().submit(query);
  ASSERT_TRUE(first.accepted());
  held.wait_until_held();
  // The other batcher misses the cache and joins the held search.
  const Submission twin = held.service().submit(query);
  ASSERT_TRUE(twin.accepted());
  ASSERT_TRUE(eventually([&] { return held.service().stats().joined == 1; }));
  EXPECT_EQ(twin.result.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);

  held.release();
  const QueryResponse a = first.result.get();
  const QueryResponse b = twin.result.get();
  EXPECT_FALSE(a.cache_hit);
  EXPECT_FALSE(b.cache_hit);
  const auto expected =
      align::search_database(query, db, scheme, kernel).top(top);
  expect_hits_equal(a.hits, expected, "searcher");
  expect_hits_equal(b.hits, expected, "joiner");

  const auto stats = held.service().stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.joined, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the joiner's batch started no search
  EXPECT_EQ(stats.accepted, stats.results.hits + stats.results.misses);
  EXPECT_EQ(stats.results.misses, stats.searches + stats.joined);

  // The joined search cached its answer: a third copy is a pure hit.
  EXPECT_TRUE(held.service().submit(query).result.get().cache_hit);
  EXPECT_EQ(held.service().stats().searches, 1u);
}

TEST(ShardedQueryService, JoinPendingAtShutdownIsAnswered) {
  const auto db = make_database(16, 11);
  ServiceConfig config = two_batcher_config();
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  HeldFirstPass held(db, std::move(config));

  const seq::Sequence query = make_query(63, 38);
  const Submission first = held.service().submit(query);
  ASSERT_TRUE(first.accepted());
  held.wait_until_held();
  const Submission twin = held.service().submit(query);
  ASSERT_TRUE(twin.accepted());
  ASSERT_TRUE(eventually([&] { return held.service().stats().joined == 1; }));

  held.service().shutdown();
  EXPECT_EQ(held.service().submit(query).status, SubmitStatus::kShutdown);
  held.release();
  const auto expected =
      align::search_database(query, db, scheme, kernel).top(top);
  expect_hits_equal(first.result.get().hits, expected, "searcher");
  expect_hits_equal(twin.result.get().hits, expected, "joiner");
  EXPECT_EQ(held.service().stats().searches, 1u);
}

TEST(ShardedQueryService, JoinerSharesAPartialOutcome) {
  const auto db = make_database(16, 12);
  HeldFirstPass held(db, two_batcher_config(),
                     [](std::size_t shard, std::size_t) {
                       if (shard == 0) {
                         throw std::runtime_error("injected: shard 0 down");
                       }
                     });

  const seq::Sequence query = make_query(64, 42);
  const Submission first = held.service().submit(query);
  ASSERT_TRUE(first.accepted());
  held.wait_until_held();
  const Submission twin = held.service().submit(query);
  ASSERT_TRUE(twin.accepted());
  ASSERT_TRUE(eventually([&] { return held.service().stats().joined == 1; }));

  held.release();
  const QueryResponse a = first.result.get();
  const QueryResponse b = twin.result.get();
  EXPECT_TRUE(a.partial);
  EXPECT_TRUE(b.partial);
  EXPECT_EQ(b.partial_reason, a.partial_reason);
  expect_hits_equal(b.hits, a.hits, "joiner");
  const auto stats = held.service().stats();
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.partial_responses, 2u);
  EXPECT_EQ(stats.results.size, 0u);  // partial answers are never cached
}

TEST(ShardedQueryServiceSoak, ConcurrentSubmittersWithInjectedShardFaults) {
  const auto db = make_database(14, 6);
  std::vector<seq::Sequence> pool;
  for (std::size_t q = 0; q < 5; ++q) {
    pool.push_back(make_query(300 + q, 28 + 9 * q));
  }

  ServiceConfig config = sharded_config(3);
  config.threads_per_shard = 2;
  config.admission_capacity = 64;
  config.max_batch = 6;
  config.max_shard_retries = 2;
  // Every 9th shard attempt fails when it is a shard's first; the engine's
  // retry ladder recovers it, so no request may surface as partial. Retries
  // never fail: the service's 6 batchers overlap their passes, so a retry
  // could land on the next multiple of 9 as well.
  std::atomic<std::uint64_t> attempts{0};
  config.before_shard = [&](std::size_t, std::size_t attempt) {
    if (attempts.fetch_add(1) % 9 == 8 && attempt == 0) {
      throw std::runtime_error("soak fault");
    }
  };
  const align::ScoringScheme scheme = config.master.scheme;
  const align::KernelKind kernel = config.master.cpu_kernel;
  const std::size_t top = config.master.top_hits;
  QueryService service(db, std::move(config));

  std::vector<std::vector<align::SearchHit>> expected;
  for (const seq::Sequence& query : pool) {
    expected.push_back(
        align::search_database(query, db, scheme, kernel).top(top));
  }

  // More submitters than batchers, so batches still coalesce.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 25;
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> partials{0};
  std::vector<std::thread> submitters;
  for (std::size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const std::size_t pick =
            static_cast<std::size_t>(rng.below(pool.size()));
        Submission ticket = service.submit(pool[pick]);
        if (!ticket.accepted()) {
          std::this_thread::yield();
          continue;  // backpressure; soak cares about delivered answers
        }
        const QueryResponse response = ticket.result.get();
        if (response.partial) ++partials;
        if (response.hits.size() != expected[pick].size()) {
          ++mismatches;
          continue;
        }
        for (std::size_t h = 0; h < response.hits.size(); ++h) {
          if (response.hits[h].db_index != expected[pick][h].db_index ||
              response.hits[h].score != expected[pick][h].score) {
            ++mismatches;
            break;
          }
        }
      }
    });
  }
  for (auto& thread : submitters) thread.join();
  service.shutdown();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(partials.load(), 0u);
  const auto stats = service.stats();
  EXPECT_GT(stats.shards.scans, 0u);
  EXPECT_EQ(stats.accepted,
            stats.results.hits + stats.results.misses);
  EXPECT_EQ(stats.results.misses, stats.searches + stats.joined);
}

}  // namespace
}  // namespace swdual::serve
