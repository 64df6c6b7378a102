// Portable 8-lane 16-bit signed SIMD vector — the narrowest member of the
// width-generic 16-bit vector family.
//
// One code path for both 16-bit kernels (the inter-sequence kernel and the
// banded screen's 16-bit tier): compiled to SSE2 intrinsics on x86 and to
// plain (auto-vectorizable) loops elsewhere, so kernel results are
// bit-identical across platforms. Arithmetic is *saturating* — kernels
// detect saturation at INT16_MAX and fall back to the 32-bit scalar oracle.
//
// Vector interface contract (shared by V16, VecI16Scalar<N>, V16x16, V16x32
// — the 16-bit kernels are templated over any type providing it):
//   static constexpr std::size_t kLanes;   // lane count
//   using value_type = std::int16_t;
//   zero() / splat(x) / load(p) / store(p)
//   adds(a, b) / subs(a, b)                // saturating at ±32767/−32768
//   max(a, b) / min(a, b)                  // lane-wise max/min
//   ge(a, b)                               // all-ones where a >= b, else 0
//   bit_and(a, b) / bit_or(a, b)           // lane-wise bitwise combine
//   blend(mask, a, b)                      // a where mask all-ones, else b
//   lane(i)                                // extraction (outside hot loops)
#pragma once

#include <cstdint>

#include "align/simd_scalar.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#define SWDUAL_SIMD_SSE2 1
#endif

namespace swdual::align {

#if defined(SWDUAL_SIMD_SSE2)
struct V16 {
  static constexpr std::size_t kLanes = 8;
  using value_type = std::int16_t;

  __m128i v;

  static V16 zero() { return {_mm_setzero_si128()}; }
  static V16 splat(std::int16_t x) { return {_mm_set1_epi16(x)}; }
  static V16 load(const std::int16_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  void store(std::int16_t* p) const {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
  }
  /// Saturating lane-wise addition.
  friend V16 adds(V16 a, V16 b) { return {_mm_adds_epi16(a.v, b.v)}; }
  /// Saturating lane-wise subtraction.
  friend V16 subs(V16 a, V16 b) { return {_mm_subs_epi16(a.v, b.v)}; }
  friend V16 max(V16 a, V16 b) { return {_mm_max_epi16(a.v, b.v)}; }
  friend V16 min(V16 a, V16 b) { return {_mm_min_epi16(a.v, b.v)}; }
  /// All-ones mask where a >= b lane-wise (signed), 0 elsewhere.
  friend V16 ge(V16 a, V16 b) {
    // a >= b  <=>  max(a, b) == a in that lane.
    return {_mm_cmpeq_epi16(_mm_max_epi16(a.v, b.v), a.v)};
  }
  friend V16 bit_and(V16 a, V16 b) { return {_mm_and_si128(a.v, b.v)}; }
  friend V16 bit_or(V16 a, V16 b) { return {_mm_or_si128(a.v, b.v)}; }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0.
  friend V16 blend(V16 mask, V16 a, V16 b) {
    return {_mm_or_si128(_mm_and_si128(mask.v, a.v),
                         _mm_andnot_si128(mask.v, b.v))};
  }
  std::int16_t lane(std::size_t i) const {
    alignas(16) std::int16_t tmp[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), v);
    return tmp[i];
  }
};
#else
using V16 = VecI16Scalar<8>;
#endif

}  // namespace swdual::align
