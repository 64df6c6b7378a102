// AVX2 vector types: 32 unsigned-byte lanes (V8x32) and 16 signed-16-bit
// lanes (V16x16), implementing the interface contract of simd8.h / simd16.h.
//
// This header is intentionally empty unless the including translation unit
// is compiled with AVX2 enabled (-mavx2 or -march that implies it); only
// src/align/kernel_backend_avx2.cpp and the wide-wrapper test do that, so
// the rest of the build never depends on AVX2 codegen. Whether the *CPU*
// can run these types is a separate runtime question answered by
// align::backend_available(Backend::kAVX2).
//
// The only non-obvious operation is shift_lanes_up: _mm256 byte shifts work
// per 128-bit half, so the byte that must cross the half boundary is
// carried over with a permute + alignr pair (the standard AVX2 idiom, used
// by parasail and SSW): first build t = [a.lo, 0] (each half's predecessor
// half, zero below lane 0), then alignr picks the crossing byte from t.
#pragma once

#if defined(__AVX2__)

#include <algorithm>
#include <cstdint>
#include <immintrin.h>

#define SWDUAL_SIMD_AVX2 1

namespace swdual::align {

/// 32-lane unsigned byte vector (AVX2).
struct V8x32 {
  static constexpr std::size_t kLanes = 32;
  using value_type = std::uint8_t;

  __m256i v;

  static V8x32 zero() { return {_mm256_setzero_si256()}; }
  static V8x32 splat(std::uint8_t x) {
    return {_mm256_set1_epi8(static_cast<char>(x))};
  }
  static V8x32 load(const std::uint8_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::uint8_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  friend V8x32 adds(V8x32 a, V8x32 b) {
    return {_mm256_adds_epu8(a.v, b.v)};
  }
  friend V8x32 subs(V8x32 a, V8x32 b) {
    return {_mm256_subs_epu8(a.v, b.v)};
  }
  friend V8x32 max(V8x32 a, V8x32 b) { return {_mm256_max_epu8(a.v, b.v)}; }
  friend V8x32 min(V8x32 a, V8x32 b) { return {_mm256_min_epu8(a.v, b.v)}; }
  friend bool any_gt(V8x32 a, V8x32 b) {
    const __m256i diff = _mm256_subs_epu8(a.v, b.v);
    return _mm256_movemask_epi8(
               _mm256_cmpeq_epi8(diff, _mm256_setzero_si256())) != -1;
  }
  /// All-ones mask where a >= b lane-wise (unsigned), 0 elsewhere.
  friend V8x32 ge(V8x32 a, V8x32 b) {
    // a >= b  <=>  subs(b, a) == 0 in that lane.
    return {_mm256_cmpeq_epi8(_mm256_subs_epu8(b.v, a.v),
                              _mm256_setzero_si256())};
  }
  friend V8x32 bit_and(V8x32 a, V8x32 b) {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend V8x32 bit_or(V8x32 a, V8x32 b) {
    return {_mm256_or_si256(a.v, b.v)};
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0.
  friend V8x32 blend(V8x32 mask, V8x32 a, V8x32 b) {
    return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
  }
  /// Per-lane lookup into a 32-entry byte table; every idx lane must be < 32.
  /// vpshufb indexes within 16-byte halves, so the table's two halves are
  /// broadcast to both 128-bit lanes and bit 4 of the index selects between
  /// them (moved to bit 7, the blendv selector, with a shift).
  static V8x32 lut32(const std::uint8_t* table, V8x32 idx) {
    const __m256i lo = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table)));
    const __m256i hi = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16)));
    const __m256i pick_lo = _mm256_shuffle_epi8(lo, idx.v);
    const __m256i pick_hi = _mm256_shuffle_epi8(hi, idx.v);
    return {_mm256_blendv_epi8(pick_lo, pick_hi,
                               _mm256_slli_epi16(idx.v, 3))};
  }
  V8x32 shift_lanes_up() const {
    const __m256i t = _mm256_permute2x128_si256(v, v, 0x08);  // [a.lo, 0]
    return {_mm256_alignr_epi8(v, t, 15)};
  }
  std::uint8_t lane(std::size_t i) const {
    alignas(32) std::uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return tmp[i];
  }
  std::uint8_t hmax() const {
    alignas(32) std::uint8_t tmp[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return *std::max_element(tmp, tmp + 32);
  }
};

/// 16-lane signed 16-bit vector (AVX2).
struct V16x16 {
  static constexpr std::size_t kLanes = 16;
  using value_type = std::int16_t;

  __m256i v;

  static V16x16 zero() { return {_mm256_setzero_si256()}; }
  static V16x16 splat(std::int16_t x) { return {_mm256_set1_epi16(x)}; }
  static V16x16 load(const std::int16_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  void store(std::int16_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  friend V16x16 adds(V16x16 a, V16x16 b) {
    return {_mm256_adds_epi16(a.v, b.v)};
  }
  friend V16x16 subs(V16x16 a, V16x16 b) {
    return {_mm256_subs_epi16(a.v, b.v)};
  }
  friend V16x16 max(V16x16 a, V16x16 b) {
    return {_mm256_max_epi16(a.v, b.v)};
  }
  friend V16x16 min(V16x16 a, V16x16 b) {
    return {_mm256_min_epi16(a.v, b.v)};
  }
  /// All-ones mask where a >= b lane-wise (signed), 0 elsewhere.
  friend V16x16 ge(V16x16 a, V16x16 b) {
    // a >= b  <=>  max(a, b) == a in that lane.
    return {_mm256_cmpeq_epi16(_mm256_max_epi16(a.v, b.v), a.v)};
  }
  friend V16x16 bit_and(V16x16 a, V16x16 b) {
    return {_mm256_and_si256(a.v, b.v)};
  }
  friend V16x16 bit_or(V16x16 a, V16x16 b) {
    return {_mm256_or_si256(a.v, b.v)};
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0 (the
  /// byte-granular blendv is fine: mask bytes are uniform within a lane).
  friend V16x16 blend(V16x16 mask, V16x16 a, V16x16 b) {
    return {_mm256_blendv_epi8(b.v, a.v, mask.v)};
  }
  std::int16_t lane(std::size_t i) const {
    alignas(32) std::int16_t tmp[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), v);
    return tmp[i];
  }
};

}  // namespace swdual::align

#endif  // __AVX2__
