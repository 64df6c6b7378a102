// Width-generic scalar emulation of the saturating SIMD vectors.
//
// VecU8Scalar<N> / VecI16Scalar<N> implement the exact vector interface the
// alignment kernels are templated over (see simd8.h / simd16.h for the
// interface contract), with plain loops over an array of N lanes. They serve
// two roles: the portable fallback on targets without SSE2, and the
// runtime-selectable "scalar" backend used to validate the wide backends —
// every backend computes the same per-cell recurrence, so scores are
// bit-identical across all of them (see DESIGN.md "SIMD backends").
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>

namespace swdual::align {

/// N-lane unsigned-byte vector with saturating arithmetic, emulated.
template <std::size_t N>
struct VecU8Scalar {
  static constexpr std::size_t kLanes = N;
  using value_type = std::uint8_t;

  std::array<std::uint8_t, N> v;

  static std::uint8_t sat_add(int a, int b) {
    return static_cast<std::uint8_t>(std::min(255, a + b));
  }
  static std::uint8_t sat_sub(int a, int b) {
    return static_cast<std::uint8_t>(std::max(0, a - b));
  }
  static VecU8Scalar zero() { return splat(0); }
  static VecU8Scalar splat(std::uint8_t x) {
    VecU8Scalar out;
    out.v.fill(x);
    return out;
  }
  static VecU8Scalar load(const std::uint8_t* p) {
    VecU8Scalar out;
    std::copy(p, p + N, out.v.begin());
    return out;
  }
  void store(std::uint8_t* p) const { std::copy(v.begin(), v.end(), p); }
  friend VecU8Scalar adds(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = sat_add(a.v[i], b.v[i]);
    return out;
  }
  friend VecU8Scalar subs(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = sat_sub(a.v[i], b.v[i]);
    return out;
  }
  friend VecU8Scalar max(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = std::max(a.v[i], b.v[i]);
    return out;
  }
  friend VecU8Scalar min(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = std::min(a.v[i], b.v[i]);
    return out;
  }
  friend bool any_gt(VecU8Scalar a, VecU8Scalar b) {
    for (std::size_t i = 0; i < N; ++i) {
      if (a.v[i] > b.v[i]) return true;
    }
    return false;
  }
  /// All-ones mask where a >= b lane-wise, 0 elsewhere.
  friend VecU8Scalar ge(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = a.v[i] >= b.v[i] ? 0xFF : 0;
    }
    return out;
  }
  friend VecU8Scalar bit_and(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::uint8_t>(a.v[i] & b.v[i]);
    }
    return out;
  }
  friend VecU8Scalar bit_or(VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::uint8_t>(a.v[i] | b.v[i]);
    }
    return out;
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0.
  friend VecU8Scalar blend(VecU8Scalar mask, VecU8Scalar a, VecU8Scalar b) {
    VecU8Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::uint8_t>((mask.v[i] & a.v[i]) |
                                           (~mask.v[i] & b.v[i]));
    }
    return out;
  }
  VecU8Scalar shift_lanes_up() const {
    VecU8Scalar out;
    out.v[0] = 0;
    for (std::size_t i = 1; i < N; ++i) out.v[i] = v[i - 1];
    return out;
  }
  std::uint8_t lane(std::size_t i) const { return v[i]; }
  std::uint8_t hmax() const { return *std::max_element(v.begin(), v.end()); }
};

/// N-lane signed-16-bit vector with saturating arithmetic, emulated.
template <std::size_t N>
struct VecI16Scalar {
  static constexpr std::size_t kLanes = N;
  using value_type = std::int16_t;

  std::array<std::int16_t, N> v;

  static std::int16_t sat(int x) {
    return static_cast<std::int16_t>(std::clamp(x, -32768, 32767));
  }
  static VecI16Scalar zero() { return splat(0); }
  static VecI16Scalar splat(std::int16_t x) {
    VecI16Scalar out;
    out.v.fill(x);
    return out;
  }
  static VecI16Scalar load(const std::int16_t* p) {
    VecI16Scalar out;
    std::copy(p, p + N, out.v.begin());
    return out;
  }
  void store(std::int16_t* p) const { std::copy(v.begin(), v.end(), p); }
  friend VecI16Scalar adds(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = sat(int(a.v[i]) + b.v[i]);
    return out;
  }
  friend VecI16Scalar subs(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = sat(int(a.v[i]) - b.v[i]);
    return out;
  }
  friend VecI16Scalar max(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = std::max(a.v[i], b.v[i]);
    return out;
  }
  friend VecI16Scalar min(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) out.v[i] = std::min(a.v[i], b.v[i]);
    return out;
  }
  /// All-ones mask where a >= b lane-wise, 0 elsewhere.
  friend VecI16Scalar ge(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = a.v[i] >= b.v[i] ? static_cast<std::int16_t>(-1) : 0;
    }
    return out;
  }
  friend VecI16Scalar bit_and(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::int16_t>(a.v[i] & b.v[i]);
    }
    return out;
  }
  friend VecI16Scalar bit_or(VecI16Scalar a, VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::int16_t>(a.v[i] | b.v[i]);
    }
    return out;
  }
  /// Lane-wise select: a where mask is all-ones, b where mask is 0.
  friend VecI16Scalar blend(VecI16Scalar mask, VecI16Scalar a,
                            VecI16Scalar b) {
    VecI16Scalar out;
    for (std::size_t i = 0; i < N; ++i) {
      out.v[i] = static_cast<std::int16_t>((mask.v[i] & a.v[i]) |
                                           (~mask.v[i] & b.v[i]));
    }
    return out;
  }
  std::int16_t lane(std::size_t i) const { return v[i]; }
};

}  // namespace swdual::align
