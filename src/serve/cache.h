// LRU cache of finished query results for the serve layer.
//
// A service that replays real traffic sees heavy repetition (annotation
// pipelines re-submit the same marker genes, interactive users retry), so a
// completed search's ranked hits are worth keeping. The key is everything
// that determines the answer: the query residues, the database identity, the
// scoring parameters, and the kernel. The resolved SIMD backend is
// deliberately *not* part of the key — every backend produces bit-identical
// scores (tests/align/test_backend_equivalence.cpp), so a hit computed on
// AVX2 is the right answer for an SSE2 host too. Shard topology (shard
// count, thread counts) is excluded for the same reason: sharded results
// are bit-identical to the unsharded search
// (tests/align/test_sharded_search.cpp), so a cached answer is valid at any
// shard count. test_result_cache.cpp pins the exact key layout so a field
// cannot sneak in unreviewed.
//
// Thread-safe; values are shared_ptr so a hit handed to a caller stays
// valid after the entry is evicted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "align/annotate.h"
#include "align/scoring.h"
#include "align/search.h"
#include "util/mutex.h"

namespace swdual::serve {

/// Canonical cache key for one query's result: db identity + scoring
/// parameters (align::scoring_key) + kernel + filter config + annotation
/// config + raw query residues. The filter segment appears only when the
/// two-stage filter is enabled: kOff is bit-identical to the exact search,
/// so its key IS the exact search's key and the two share cache entries. A
/// heuristic config changes which hits are returned (band + keep_factor
/// decide the candidate set), so it must split the cache — but the SIMD
/// backend, thread counts, worker types, and shard topology still stay out
/// of the key: the screen is bit-identical across backends and candidate
/// selection is a deterministic global function of the screen, so filtered
/// answers are identical across all of them (tests/align/test_filter.cpp).
/// The annotate segment follows the same rule: mode kOff adds nothing,
/// while an enabled mode joins the key with its evalue cutoff — the mode
/// decides what a cached hit carries (stats vs. a CIGAR) and the cutoff
/// decides which hits survive, so differently-annotated answers must not
/// alias. Calibration inputs stay out: params are a deterministic function
/// of (scheme, alphabet, db_id), all already in the key.
std::string result_key(std::span<const std::uint8_t> query,
                       const std::string& db_id,
                       const align::ScoringScheme& scheme,
                       align::KernelKind kernel,
                       const align::FilterConfig& filter = {},
                       const align::AnnotateConfig& annotate = {});

class ResultCache {
 public:
  using Hits = std::vector<align::SearchHit>;

  /// `capacity` = maximum retained entries (≥ 1).
  explicit ResultCache(std::size_t capacity = 1024);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Ranked hits for `key`, or nullptr on a miss. A hit refreshes LRU order.
  std::shared_ptr<const Hits> lookup(const std::string& key);

  /// Insert (or refresh) `key` → `hits`, evicting the LRU tail past
  /// capacity. Returns the resident value (the existing one if another
  /// thread raced the insert — first writer wins, answers are identical by
  /// key construction).
  std::shared_ptr<const Hits> insert(const std::string& key, Hits hits);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t size = 0;
    std::size_t capacity = 0;
  };
  Stats stats() const;

  /// The cache's capability, for lock-order declarations in owning layers
  /// (QueryService declares service → result-cache → profile-cache; see
  /// DESIGN.md "Static concurrency analysis"). Never lock it directly —
  /// every public method is self-locking.
  util::Mutex& capability() const SWDUAL_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const Hits>>;

  std::size_t capacity_;
  mutable util::Mutex mutex_;
  std::list<Entry> lru_ SWDUAL_GUARDED_BY(mutex_);  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      SWDUAL_GUARDED_BY(mutex_);
  std::uint64_t hits_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ SWDUAL_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ SWDUAL_GUARDED_BY(mutex_) = 0;
};

}  // namespace swdual::serve
