// Closable blocking MPMC queue.
//
// This is the transport underlying the in-process master–slave runtime: the
// master pushes task messages, workers block on pop(); close() drains and
// then releases all waiters, signalling end-of-stream.
//
// Locking discipline is statically checked: items_ and closed_ are
// SWDUAL_GUARDED_BY(mutex_), so any new accessor that forgets the lock is a
// compile error under Clang's -Wthread-safety (see util/thread_annotations.h).
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "util/mutex.h"

namespace swdual {

template <typename T>
class ConcurrentQueue {
 public:
  ConcurrentQueue() = default;
  ConcurrentQueue(const ConcurrentQueue&) = delete;
  ConcurrentQueue& operator=(const ConcurrentQueue&) = delete;

  /// Enqueue an item. Returns false if the queue is already closed — a
  /// dropped item, which a caller waiting on a matching result would never
  /// notice. [[nodiscard]] so every call site must decide (check, or
  /// explicitly void-cast where close() racing a push is benign).
  [[nodiscard]] bool push(T item) {
    {
      util::MutexLock lock(mutex_);
      if (closed_) return false;
      items_.push_back(std::move(item));
    }
    cv_.notify_one();
    return true;
  }

  /// Block until an item is available or the queue is closed and drained.
  /// Returns nullopt only at end-of-stream.
  std::optional<T> pop() {
    util::MutexLock lock(mutex_);
    while (items_.empty() && !closed_) cv_.wait(mutex_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Close the queue: no further pushes succeed; waiters drain then unblock.
  void close() {
    {
      util::MutexLock lock(mutex_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  bool closed() const {
    util::MutexLock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    util::MutexLock lock(mutex_);
    return items_.size();
  }

 private:
  mutable util::Mutex mutex_;
  util::CondVar cv_;
  std::deque<T> items_ SWDUAL_GUARDED_BY(mutex_);
  bool closed_ SWDUAL_GUARDED_BY(mutex_) = false;
};

}  // namespace swdual
