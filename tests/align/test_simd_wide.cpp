// Direct tests of the wide (AVX2 / AVX-512BW) vector wrappers against the
// interface contract of simd8.h / simd16.h, plus the width-generic scalar
// emulation at the same lane counts. This TU is compiled with the wide ISA
// flags (see tests/align/CMakeLists.txt), so every check that executes wide
// instructions is guarded by a runtime CPUID skip — the binary must still
// *start* on a host without AVX.
//
// The one genuinely tricky operation at 256/512 bits is shift_lanes_up:
// x86 byte shifts do not cross 128-bit boundaries, so the wrappers carry
// the crossing byte with permute+alignr. These tests pin the exact
// whole-vector semantics the striped byte kernel relies on.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "align/backend.h"
#include "align/simd_avx2.h"
#include "align/simd_avx512.h"
#include "align/simd_scalar.h"

namespace swdual::align {
namespace {

template <class V>
void check_u8_contract() {
  constexpr std::size_t kL = V::kLanes;
  // Load/store round trip.
  std::uint8_t data[kL];
  for (std::size_t i = 0; i < kL; ++i) {
    data[i] = static_cast<std::uint8_t>(3 * i + 1);
  }
  std::uint8_t out[kL];
  V::load(data).store(out);
  for (std::size_t i = 0; i < kL; ++i) ASSERT_EQ(out[i], data[i]);
  // Saturating arithmetic.
  EXPECT_EQ(adds(V::splat(250), V::splat(10)).lane(0), 255);
  EXPECT_EQ(adds(V::splat(100), V::splat(10)).lane(kL - 1), 110);
  EXPECT_EQ(subs(V::splat(3), V::splat(10)).lane(kL / 2), 0);
  EXPECT_EQ(subs(V::splat(10), V::splat(3)).lane(kL / 2), 7);
  // Lane-wise max and unsigned any_gt.
  EXPECT_EQ(max(V::splat(5), V::splat(9)).lane(1), 9);
  EXPECT_FALSE(any_gt(V::splat(0), V::splat(0)));
  EXPECT_TRUE(any_gt(V::splat(1), V::splat(0)));
  EXPECT_FALSE(any_gt(V::splat(5), V::splat(200)));  // unsigned compare
  // A single differing lane must be seen — including one in the top
  // 128-bit half, where a lazily-written movemask would lose it.
  std::uint8_t hot[kL] = {};
  hot[kL - 2] = 1;
  EXPECT_TRUE(any_gt(V::load(hot), V::zero()));
  // Whole-vector lane shift with zero fill (crosses 128-bit halves).
  const V shifted = V::load(data).shift_lanes_up();
  EXPECT_EQ(shifted.lane(0), 0);
  for (std::size_t i = 1; i < kL; ++i) {
    ASSERT_EQ(shifted.lane(i), data[i - 1]) << "lane " << i;
  }
  // hmax, with the maximum placed in each 128-bit half in turn.
  for (std::size_t pos : {std::size_t{0}, kL / 2, kL - 1}) {
    std::uint8_t m[kL];
    for (std::size_t i = 0; i < kL; ++i) m[i] = static_cast<std::uint8_t>(i);
    m[pos] = 201;
    EXPECT_EQ(V::load(m).hmax(), 201) << "pos " << pos;
  }
}

template <class V>
void check_i16_contract() {
  constexpr std::size_t kL = V::kLanes;
  std::int16_t data[kL];
  for (std::size_t i = 0; i < kL; ++i) {
    data[i] = static_cast<std::int16_t>(100 * i - 500);
  }
  std::int16_t out[kL];
  V::load(data).store(out);
  for (std::size_t i = 0; i < kL; ++i) ASSERT_EQ(out[i], data[i]);
  // Signed saturation at both rails.
  EXPECT_EQ(adds(V::splat(32000), V::splat(1000)).lane(0), 32767);
  EXPECT_EQ(subs(V::splat(-32000), V::splat(1000)).lane(kL - 1), -32768);
  // max / min are signed.
  EXPECT_EQ(max(V::splat(-3), V::splat(-9)).lane(2), -3);
  EXPECT_EQ(min(V::splat(-3), V::splat(-9)).lane(kL - 1), -9);
  // ge is signed and inclusive, and blend selects by its mask, lane by lane
  // in every 128-bit half (the banded screen's 16-bit tier masks this way).
  const V mask = ge(V::load(data), V::splat(0));
  const V picked = blend(mask, V::splat(7), V::splat(-7));
  for (std::size_t i = 0; i < kL; ++i) {
    ASSERT_EQ(mask.lane(i), data[i] >= 0 ? -1 : 0) << "lane " << i;
    ASSERT_EQ(picked.lane(i), data[i] >= 0 ? 7 : -7) << "lane " << i;
  }
  EXPECT_EQ(bit_and(V::splat(0x0ff0), V::splat(0x00ff)).lane(kL - 1), 0xf0);
  EXPECT_EQ(bit_or(V::splat(0x0f00), V::splat(0x00f0)).lane(kL / 2), 0xff0);
}

TEST(SimdWideScalar, U8EmulationAt32And64Lanes) {
  check_u8_contract<VecU8Scalar<32>>();
  check_u8_contract<VecU8Scalar<64>>();
}

TEST(SimdWideScalar, I16EmulationAt16And32Lanes) {
  check_i16_contract<VecI16Scalar<16>>();
  check_i16_contract<VecI16Scalar<32>>();
}

#if defined(SWDUAL_SIMD_AVX2)
TEST(SimdWideAvx2, U8ContractHolds) {
  if (!backend_available(Backend::kAVX2)) GTEST_SKIP() << "no AVX2 CPU";
  check_u8_contract<V8x32>();
}

TEST(SimdWideAvx2, I16ContractHolds) {
  if (!backend_available(Backend::kAVX2)) GTEST_SKIP() << "no AVX2 CPU";
  check_i16_contract<V16x16>();
}
#endif  // SWDUAL_SIMD_AVX2

#if defined(SWDUAL_SIMD_AVX512)
TEST(SimdWideAvx512, U8ContractHolds) {
  if (!backend_available(Backend::kAVX512)) GTEST_SKIP() << "no AVX-512BW CPU";
  check_u8_contract<V8x64>();
}

TEST(SimdWideAvx512, I16ContractHolds) {
  if (!backend_available(Backend::kAVX512)) GTEST_SKIP() << "no AVX-512BW CPU";
  check_i16_contract<V16x32>();
}
#endif  // SWDUAL_SIMD_AVX512

}  // namespace
}  // namespace swdual::align
