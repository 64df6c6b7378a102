// AVX-512BW vector types: 64 unsigned-byte lanes (V8x64) and 32 signed
// 16-bit lanes (V16x32), implementing the interface contract of simd8.h /
// simd16.h. Requires AVX-512F + AVX-512BW (byte/word arithmetic and the
// full-width mask compares); nothing from VL/VBMI/DQ is used.
//
// Like simd_avx2.h, this header compiles to nothing unless the including
// translation unit enables AVX-512BW; only kernel_backend_avx512.cpp and
// the wide-wrapper test do. Runtime capability is a separate question
// answered by align::backend_available(Backend::kAVX512).
//
// shift_lanes_up crosses the four 128-bit lanes with the same carry idiom
// as AVX2, one level up: t = [a.2, a.1, a.0, 0] (each 128-bit lane's
// predecessor, built with maskz_shuffle_i64x2), then a per-lane alignr
// picks the crossing byte(s) from t.
#pragma once

#if defined(__AVX512F__) && defined(__AVX512BW__)

#include <algorithm>
#include <cstdint>
#include <immintrin.h>

#define SWDUAL_SIMD_AVX512 1

namespace swdual::align {

/// 64-lane unsigned byte vector (AVX-512BW).
struct V8x64 {
  static constexpr std::size_t kLanes = 64;
  using value_type = std::uint8_t;

  __m512i v;

  static V8x64 zero() { return {_mm512_setzero_si512()}; }
  static V8x64 splat(std::uint8_t x) {
    return {_mm512_set1_epi8(static_cast<char>(x))};
  }
  static V8x64 load(const std::uint8_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::uint8_t* p) const { _mm512_storeu_si512(p, v); }
  friend V8x64 adds(V8x64 a, V8x64 b) {
    return {_mm512_adds_epu8(a.v, b.v)};
  }
  friend V8x64 subs(V8x64 a, V8x64 b) {
    return {_mm512_subs_epu8(a.v, b.v)};
  }
  friend V8x64 max(V8x64 a, V8x64 b) { return {_mm512_max_epu8(a.v, b.v)}; }
  friend V8x64 min(V8x64 a, V8x64 b) { return {_mm512_min_epu8(a.v, b.v)}; }
  friend bool any_gt(V8x64 a, V8x64 b) {
    return _mm512_cmpgt_epu8_mask(a.v, b.v) != 0;
  }
  /// All-ones mask where a >= b lane-wise (unsigned), 0 elsewhere.
  friend V8x64 ge(V8x64 a, V8x64 b) {
    return {_mm512_movm_epi8(_mm512_cmpge_epu8_mask(a.v, b.v))};
  }
  friend V8x64 bit_and(V8x64 a, V8x64 b) {
    return {_mm512_and_si512(a.v, b.v)};
  }
  friend V8x64 bit_or(V8x64 a, V8x64 b) {
    return {_mm512_or_si512(a.v, b.v)};
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0
  /// (ternlog 0xCA = mask ? a : b).
  friend V8x64 blend(V8x64 mask, V8x64 a, V8x64 b) {
    return {_mm512_ternarylogic_epi64(mask.v, a.v, b.v, 0xCA)};
  }
  /// Per-lane lookup into a 32-entry byte table; every idx lane must be < 32.
  /// vpshufb indexes within 16-byte quarters, so both table halves are
  /// broadcast to all four and bit 4 of the index selects between them.
  /// The all-lanes zero-masked broadcast compiles to the plain one; GCC 12
  /// misreports the plain intrinsic's undefined pass-through operand as
  /// maybe-uninitialized once it is inlined into a loop.
  static V8x64 lut32(const std::uint8_t* table, V8x64 idx) {
    const __m512i lo = _mm512_maskz_broadcast_i32x4(
        __mmask16(0xFFFF),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table)));
    const __m512i hi = _mm512_maskz_broadcast_i32x4(
        __mmask16(0xFFFF),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(table + 16)));
    const __m512i pick_lo = _mm512_shuffle_epi8(lo, idx.v);
    const __m512i pick_hi = _mm512_shuffle_epi8(hi, idx.v);
    const __mmask64 use_hi =
        _mm512_test_epi8_mask(idx.v, _mm512_set1_epi8(0x10));
    return {_mm512_mask_blend_epi8(use_hi, pick_lo, pick_hi)};
  }
  V8x64 shift_lanes_up() const {
    const __m512i t =
        _mm512_maskz_shuffle_i64x2(0xFC, v, v, 0x90);  // [a.2, a.1, a.0, 0]
    return {_mm512_alignr_epi8(v, t, 15)};
  }
  std::uint8_t lane(std::size_t i) const {
    alignas(64) std::uint8_t tmp[64];
    _mm512_store_si512(tmp, v);
    return tmp[i];
  }
  std::uint8_t hmax() const {
    alignas(64) std::uint8_t tmp[64];
    _mm512_store_si512(tmp, v);
    return *std::max_element(tmp, tmp + 64);
  }
};

/// 32-lane signed 16-bit vector (AVX-512BW).
struct V16x32 {
  static constexpr std::size_t kLanes = 32;
  using value_type = std::int16_t;

  __m512i v;

  static V16x32 zero() { return {_mm512_setzero_si512()}; }
  static V16x32 splat(std::int16_t x) { return {_mm512_set1_epi16(x)}; }
  static V16x32 load(const std::int16_t* p) {
    return {_mm512_loadu_si512(p)};
  }
  void store(std::int16_t* p) const { _mm512_storeu_si512(p, v); }
  friend V16x32 adds(V16x32 a, V16x32 b) {
    return {_mm512_adds_epi16(a.v, b.v)};
  }
  friend V16x32 subs(V16x32 a, V16x32 b) {
    return {_mm512_subs_epi16(a.v, b.v)};
  }
  friend V16x32 max(V16x32 a, V16x32 b) {
    return {_mm512_max_epi16(a.v, b.v)};
  }
  friend V16x32 min(V16x32 a, V16x32 b) {
    return {_mm512_min_epi16(a.v, b.v)};
  }
  /// All-ones mask where a >= b lane-wise (signed), 0 elsewhere.
  friend V16x32 ge(V16x32 a, V16x32 b) {
    return {_mm512_movm_epi16(_mm512_cmpge_epi16_mask(a.v, b.v))};
  }
  friend V16x32 bit_and(V16x32 a, V16x32 b) {
    return {_mm512_and_si512(a.v, b.v)};
  }
  friend V16x32 bit_or(V16x32 a, V16x32 b) {
    return {_mm512_or_si512(a.v, b.v)};
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0
  /// (ternlog 0xCA = mask ? a : b).
  friend V16x32 blend(V16x32 mask, V16x32 a, V16x32 b) {
    return {_mm512_ternarylogic_epi64(mask.v, a.v, b.v, 0xCA)};
  }
  std::int16_t lane(std::size_t i) const {
    alignas(64) std::int16_t tmp[32];
    _mm512_store_si512(tmp, v);
    return tmp[i];
  }
};

}  // namespace swdual::align

#endif  // __AVX512F__ && __AVX512BW__
