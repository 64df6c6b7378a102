// Shared LRU cache of ready-to-use query profiles.
//
// Building a SearchProfiles (striped profile layout, kernel-table
// resolution) is pure per-query work: it depends only on
// (query residues, scoring scheme, kernel, resolved SIMD backends). A service
// that sees the same query repeatedly — or the same query fanned out to
// several workers in one batch — should build that state once and share it,
// the way SWAPHI keeps one resident query context across a whole multi-pass
// search. A SearchProfiles owns a copy of its query residues, so a cached
// entry stays valid independent of the submitting caller's buffers, and
// acquire() returns shared ownership: an entry evicted by the LRU stays
// alive for as long as any in-flight scan still holds it.
//
// The LRU, its locking and its counters are util::LruCache: a miss builds
// the profiles outside the lock, and a racing duplicate build is resolved
// in favour of the first entry inserted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "align/search.h"
#include "util/lru_cache.h"

namespace swdual::align {

/// Cache key fragment for a scoring configuration: matrix identity (name,
/// dimension, CRC-32 of the score table — robust against two matrices that
/// share a name) plus the affine-gap penalties. Two schemes with equal keys
/// produce bit-identical scores for every kernel.
std::string scoring_key(const ScoringScheme& scheme);

class ProfileCache : private util::LruCache<SearchProfiles> {
 public:
  /// `capacity` = maximum retained entries (≥ 1).
  explicit ProfileCache(std::size_t capacity = 64) : LruCache(capacity) {}

  /// Get-or-build the profile set for (query, scheme, kernel, backend).
  /// The entry is built with `backend` as given, so it equals a directly
  /// built SearchProfiles, and it is keyed by the backends its profiles run:
  /// the exact kernel's (resolve_backend(backend, kernel)) and the screen's
  /// (resolve_backend(backend)). A kAuto striped8 entry on an AVX-512BW host
  /// scans on AVX2 and screens on AVX-512, so it is not the kAVX2 entry,
  /// which screens on AVX2.
  std::shared_ptr<const SearchProfiles> acquire(
      std::span<const std::uint8_t> query, const ScoringScheme& scheme,
      KernelKind kernel, Backend backend = Backend::kAuto);

  using LruCache::capability;
  using LruCache::stats;
};

}  // namespace swdual::align
