#include "util/thread_pool.h"

#include <algorithm>
#include <exception>

namespace swdual {

ThreadPool::ThreadPool(std::size_t num_threads) {
  const std::size_t n = std::max<std::size_t>(1, num_threads);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  queue_.close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ThreadPool::worker_loop() {
  while (auto job = queue_.pop()) {
    (*job)();
  }
}

void parallel_for(ThreadPool& pool, std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t step = std::max<std::size_t>(1, grain);
  std::vector<std::future<void>> futures;
  futures.reserve((count + step - 1) / step);
  // Every submitted range borrows `fn` by reference, so none may still be
  // running when this frame unwinds: wait for all of them, then rethrow the
  // first failure.
  std::exception_ptr first;
  try {
    for (std::size_t begin = 0; begin < count; begin += step) {
      const std::size_t end = std::min(begin + step, count);
      futures.push_back(pool.submit([&fn, begin, end] { fn(begin, end); }));
    }
  } catch (...) {
    first = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn) {
  // Aim for a few ranges per worker: enough slack for load balancing without
  // per-item queue overhead.
  const std::size_t grain =
      std::max<std::size_t>(1, count / (pool.size() * 4));
  parallel_for(pool, count, grain,
               [&fn](std::size_t begin, std::size_t end) {
                 for (std::size_t i = begin; i < end; ++i) fn(i);
               });
}

}  // namespace swdual
