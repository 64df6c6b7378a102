// Thread-safe LRU cache of immutable shared values — the one memoizer of
// the tree.
//
// The serve stack memoizes three things: ranked answers (serve::ResultCache),
// per-query kernel state (align::ProfileCache) and Karlin–Altschul
// calibrations (align::StatsCache). All three are this template over a
// different value type; each adds only its key function and a typed
// acquire(). tools/swdual_lint.py keeps std::list out of the rest of src/,
// so a second hand-rolled LRU cannot drift away from this one.
//
// Values are shared_ptr<const V>: a value handed to a caller stays valid
// after its entry is evicted.
//
// Accounting has one rule: a lookup that finds the key is a hit, one that
// does not is a miss. acquire() looks up exactly once, so its misses count
// the builds that ran — including a build that lost an insert race (the
// first writer wins and the loser's value is dropped; by key construction
// both are identical).
//
// acquire() runs its build with the lock released: construction cost (a
// striped profile, a few hundred calibration alignments) must not serialize
// unrelated callers' lookups.
//
// Each key is stored once, in its list node; the index maps string_views of
// those strings to the nodes. List nodes never move, and an index entry is
// erased before its node is popped, so every view outlives its use. A
// result-cache key carries the whole query, so a second copy would cost
// ≈1 KB per entry on 1000-residue queries.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/mutex.h"

namespace swdual::util {

/// Counters of one LruCache: lookups that found / missed their key, entries
/// dropped past capacity, and the current / maximum entry count.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
};

template <typename V>
class LruCache {
 public:
  /// `capacity` = maximum retained entries (0 is clamped to 1).
  explicit LruCache(std::size_t capacity)
      : capacity_(std::max<std::size_t>(capacity, 1)) {}

  LruCache(const LruCache&) = delete;
  LruCache& operator=(const LruCache&) = delete;

  /// The value for `key`, or nullptr on a miss. A hit refreshes LRU order.
  std::shared_ptr<const V> lookup(const std::string& key) {
    MutexLock lock(mutex_);
    const auto found = index_.find(key);
    if (found == index_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, found->second);
    return found->second->second;
  }

  /// Insert `key` → `value` unless `key` is resident, evicting the LRU tail
  /// past capacity. Returns the resident value: first writer wins. Counts
  /// neither a hit nor a miss.
  std::shared_ptr<const V> insert(const std::string& key,
                                  std::shared_ptr<const V> value) {
    MutexLock lock(mutex_);
    const auto found = index_.find(key);
    if (found != index_.end()) {
      lru_.splice(lru_.begin(), lru_, found->second);
      return found->second->second;
    }
    lru_.emplace_front(key, std::move(value));
    index_.emplace(lru_.front().first, lru_.begin());
    while (lru_.size() > capacity_) {
      index_.erase(lru_.back().first);  // the view dies with the node below
      lru_.pop_back();
      ++evictions_;
    }
    return lru_.front().second;
  }

  /// Get-or-build: lookup(key), and on a miss insert(key, build()). `build`
  /// returns a shared_ptr<const V> and runs with the lock released.
  template <typename Build>
  std::shared_ptr<const V> acquire(const std::string& key, Build&& build) {
    if (auto found = lookup(key)) return found;
    return insert(key, std::forward<Build>(build)());
  }

  CacheStats stats() const {
    MutexLock lock(mutex_);
    return {hits_, misses_, evictions_, lru_.size(), capacity_};
  }

  /// The cache's capability, for lock-order declarations in owning layers
  /// (QueryService declares service → result-cache; see
  /// DESIGN.md "Static concurrency analysis"). It is a leaf capability: no
  /// method acquires another lock while holding it, and build() runs with
  /// it released. Never lock it directly — every method is self-locking.
  Mutex& capability() const SWDUAL_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const V>>;

  std::size_t capacity_;
  mutable Mutex mutex_;
  std::list<Entry> lru_ SWDUAL_GUARDED_BY(mutex_);  ///< front = most recent
  /// Keys are views of the list nodes' strings.
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator>
      index_ SWDUAL_GUARDED_BY(mutex_);
  std::uint64_t hits_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SWDUAL_GUARDED_BY(mutex_) = 0;
};

}  // namespace swdual::util
