// Cache-line-aligned storage for SIMD-streamed buffers.
//
// std::vector's default allocator only guarantees alignof(std::max_align_t)
// (16 bytes); a 256/512-bit vector load from such a buffer straddles a
// cache line every other access, which measurably slows the wide striped
// kernels. Two ways to get a 64-byte start, so every load/store at a
// vector-width-multiple offset is fully inside one line:
//
//   * AlignedVector<T> — a std::vector whose allocations are aligned by the
//     allocator. Right for long-lived per-thread rows.
//   * cache_aligned(buffer, n) — a plain std::vector with one line of slack,
//     aligned by hand. Right for blocks allocated and freed again and again
//     (a query profile per request, a workspace per short-lived thread): an
//     aligned allocation is padded by the allocator, so the block it frees
//     is too small for the next identical request, and a stream of them
//     grows the heap instead of reusing it. A plain block of the same size
//     is reused exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace swdual {

inline constexpr std::size_t kCacheLineBytes = 64;

/// Minimal C++17 aligned allocator: every allocation is 64-byte aligned.
template <class T>
struct CacheAlignedAllocator {
  using value_type = T;

  CacheAlignedAllocator() = default;
  template <class U>
  CacheAlignedAllocator(const CacheAlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <class U>
  bool operator==(const CacheAlignedAllocator<U>&) const { return true; }
  template <class U>
  bool operator!=(const CacheAlignedAllocator<U>&) const { return false; }
};

template <class T>
using AlignedVector = std::vector<T, CacheAlignedAllocator<T>>;

/// The first 64-byte-aligned element of `buffer`, after growing it (never
/// shrinking) to hold `n` elements from there. A buffer grown from empty
/// is all zeros; otherwise treat the contents as unspecified, because a
/// reallocation may shift the aligned start. The pointer stays valid until
/// `buffer` next grows.
template <class T>
T* cache_aligned(std::vector<T>& buffer, std::size_t n) {
  static_assert(kCacheLineBytes % sizeof(T) == 0,
                "element size must divide a cache line");
  constexpr std::size_t kSlack = kCacheLineBytes / sizeof(T);
  if (buffer.size() < n + kSlack) buffer.resize(n + kSlack);
  const auto address = reinterpret_cast<std::uintptr_t>(buffer.data());
  const std::size_t skip =
      (kCacheLineBytes - address % kCacheLineBytes) % kCacheLineBytes;
  return buffer.data() + skip / sizeof(T);
}

}  // namespace swdual
