// Unit tests for the closable MPMC queue (the master–slave transport).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "util/concurrent_queue.h"

namespace swdual {
namespace {

TEST(ConcurrentQueue, FifoOrderSingleThread) {
  ConcurrentQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(ConcurrentQueue, CloseDrainsThenEndsStream) {
  ConcurrentQueue<int> q;
  EXPECT_TRUE(q.push(1));
  q.close();
  EXPECT_EQ(q.pop(), 1);           // items before close still delivered
  EXPECT_FALSE(q.pop().has_value());  // then end-of-stream
}

TEST(ConcurrentQueue, PushAfterCloseRejected) {
  ConcurrentQueue<int> q;
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_TRUE(q.closed());
}

TEST(ConcurrentQueue, CloseUnblocksWaitingConsumers) {
  ConcurrentQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

TEST(ConcurrentQueue, ManyProducersManyConsumersDeliverEverything) {
  ConcurrentQueue<int> q;
  constexpr int kProducers = 4, kConsumers = 4, kPerProducer = 500;
  std::atomic<int> consumed{0};
  std::atomic<long> checksum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (auto item = q.pop()) {
        consumed.fetch_add(1);
        checksum.fetch_add(*item);
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (int c = kProducers; c < kProducers + kConsumers; ++c) threads[c].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(checksum.load(), long(total) * (total - 1) / 2);
}

TEST(ConcurrentQueue, MoveOnlyPayload) {
  ConcurrentQueue<std::unique_ptr<int>> q;
  EXPECT_TRUE(q.push(std::make_unique<int>(5)));
  auto item = q.pop();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(**item, 5);
}

}  // namespace
}  // namespace swdual
