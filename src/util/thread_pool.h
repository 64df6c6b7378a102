// Fixed-size thread pool with a futures-based submit API.
//
// Used by the real (non-simulated) execution engine and by the virtual GPU
// to run alignment batches. Shutdown is cooperative: the destructor closes
// the queue and joins all workers (RAII, no detached threads).
#pragma once

#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/concurrent_queue.h"

namespace swdual {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Schedule a callable; returns a future for its result. Arguments are
  /// captured by value (decay-copied); move-only callables and arguments are
  /// supported.
  template <typename F, typename... Args>
  auto submit(F&& f, Args&&... args)
      -> std::future<std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>> {
    using R = std::invoke_result_t<std::decay_t<F>, std::decay_t<Args>...>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        [fn = std::forward<F>(f),
         bound = std::make_tuple(std::forward<Args>(args)...)]() mutable -> R {
          return std::apply(std::move(fn), std::move(bound));
        });
    std::future<R> result = task->get_future();
    const bool accepted = queue_.push([task] { (*task)(); });
    if (!accepted) {
      throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    return result;
  }

  std::size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  // The pool holds no lock of its own: all synchronization lives inside the
  // annotated ConcurrentQueue (util/concurrent_queue.h). workers_ is written
  // only in the constructor and read-only afterwards, so it needs no guard.
  ConcurrentQueue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
};

/// Run fn(i) for i in [0, count) across the pool and wait for completion.
/// Items are batched into ranges internally so tiny per-item closures do not
/// pay one queue round-trip each. If a range throws, every other range still
/// runs to completion before the first failure is rethrown.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& fn);

/// Chunk-grain overload: fn(begin, end) over consecutive ranges of at most
/// `grain` items (grain 0 is treated as 1). One queue entry per range.
void parallel_for(ThreadPool& pool, std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace swdual
