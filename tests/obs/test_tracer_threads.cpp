// Concurrency hammer for obs::Tracer (satellite: tracer concurrency).
// Runs under the `threads` ctest label so the tsan preset covers it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace swdual::obs {
namespace {

TEST(TracerThreads, HammerFlushYieldsEveryEventExactlyOnce) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kEventsPerThread = 500;

  Tracer tracer;
  std::vector<TraceEvent> collected;
  std::mutex collected_mutex;

  // One flusher races the producers to prove concurrent flush loses nothing.
  std::atomic<bool> done{false};
  std::thread flusher([&] {
    while (!done.load()) {
      auto batch = tracer.flush();
      std::lock_guard<std::mutex> lock(collected_mutex);
      collected.insert(collected.end(),
                       std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
    }
  });

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&tracer, t] {
      for (std::size_t i = 0; i < kEventsPerThread; ++i) {
        if (i % 2 == 0) {
          Span span = tracer.span("work", "hammer", t);
          span.arg("producer", static_cast<double>(t));
          span.arg("i", static_cast<double>(i));
        } else {
          tracer.instant("ping", "hammer", t,
                         {{"producer", static_cast<double>(t)},
                          {"i", static_cast<double>(i)}});
        }
      }
    });
  }
  for (auto& thread : producers) thread.join();
  done.store(true);
  flusher.join();
  {
    auto batch = tracer.flush();  // whatever the flusher didn't catch
    collected.insert(collected.end(),
                     std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
  }

  ASSERT_EQ(collected.size(), kThreads * kEventsPerThread);

  // Exactly once: every (producer, i) pair present, no duplicates; seq is a
  // total order without repeats.
  std::set<std::pair<std::size_t, std::size_t>> seen;
  std::set<std::uint64_t> seqs;
  for (const TraceEvent& event : collected) {
    const auto producer = static_cast<std::size_t>(event.arg("producer", -1));
    const auto i = static_cast<std::size_t>(event.arg("i", -1));
    EXPECT_TRUE(seen.insert({producer, i}).second)
        << "duplicate event " << producer << "/" << i;
    EXPECT_TRUE(seqs.insert(event.seq).second) << "duplicate seq";
  }
  EXPECT_EQ(seen.size(), kThreads * kEventsPerThread);

  // Per-producer wall timestamps are monotone in seq order (steady clock,
  // one recording thread per producer).
  std::sort(collected.begin(), collected.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  std::map<std::size_t, double> last_start;
  for (const TraceEvent& event : collected) {
    const auto producer = static_cast<std::size_t>(event.arg("producer"));
    const auto found = last_start.find(producer);
    if (found != last_start.end()) {
      EXPECT_GE(event.start, found->second)
          << "timestamps went backwards on producer " << producer;
    }
    last_start[producer] = event.start;
  }
}

}  // namespace
}  // namespace swdual::obs
