// Direct tests of the portable SIMD vector wrappers — the SSE2 and scalar
// paths must behave identically, and the kernels' assumptions (saturation,
// shift fill, comparison semantics) are pinned down here.
#include <gtest/gtest.h>

#include "align/simd16.h"
#include "align/simd8.h"

namespace swdual::align {
namespace {

TEST(V16, LoadStoreRoundTrip) {
  const std::int16_t data[8] = {-3, 0, 7, 32767, -32768, 100, -100, 1};
  const V16 v = V16::load(data);
  std::int16_t out[8];
  v.store(out);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out[i], data[i]);
}

TEST(V16, SaturatingAddClampsAtMax) {
  const V16 a = V16::splat(32000);
  const V16 b = V16::splat(1000);
  EXPECT_EQ(adds(a, b).lane(0), 32767);
  EXPECT_EQ(adds(a, b).lane(7), 32767);
}

TEST(V16, SaturatingSubClampsAtMin) {
  const V16 a = V16::splat(-32000);
  const V16 b = V16::splat(1000);
  EXPECT_EQ(subs(a, b).lane(3), -32768);
}

TEST(V16, MaxIsLaneWise) {
  const std::int16_t xs[8] = {1, -2, 3, -4, 5, -6, 7, -8};
  const std::int16_t ys[8] = {-1, 2, -3, 4, -5, 6, -7, 8};
  const V16 m = max(V16::load(xs), V16::load(ys));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(m.lane(static_cast<std::size_t>(i)), std::abs(xs[i]));
}

TEST(V16, MinIsLaneWise) {
  const std::int16_t xs[8] = {1, -2, 3, -4, 5, -6, 7, -8};
  const std::int16_t ys[8] = {-1, 2, -3, 4, -5, 6, -7, 8};
  const V16 m = min(V16::load(xs), V16::load(ys));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(m.lane(static_cast<std::size_t>(i)), -std::abs(xs[i]));
  }
}

TEST(V16, GeIsSignedAndInclusive) {
  const std::int16_t data[8] = {-5, 0, 5, -1, 1, 32767, -32768, 4};
  const V16 mask = ge(V16::load(data), V16::splat(0));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(mask.lane(static_cast<std::size_t>(i)), data[i] >= 0 ? -1 : 0)
        << "lane " << i;
  }
}

TEST(V16, BlendSelectsByMaskAndBitOpsCombine) {
  const std::int16_t data[8] = {-5, 0, 5, -1, 1, 32767, -32768, 4};
  const V16 picked = blend(ge(V16::load(data), V16::splat(0)),
                           V16::splat(7), V16::splat(-7));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(picked.lane(static_cast<std::size_t>(i)), data[i] >= 0 ? 7 : -7)
        << "lane " << i;
  }
  EXPECT_EQ(bit_and(V16::splat(0x0ff0), V16::splat(0x00ff)).lane(3), 0xf0);
  EXPECT_EQ(bit_or(V16::splat(0x0f00), V16::splat(0x00f0)).lane(6), 0xff0);
}

TEST(V8, SaturatingAddClampsAt255) {
  EXPECT_EQ(adds(V8::splat(250), V8::splat(10)).lane(0), 255);
  EXPECT_EQ(adds(V8::splat(100), V8::splat(10)).lane(15), 110);
}

TEST(V8, SaturatingSubClampsAtZero) {
  EXPECT_EQ(subs(V8::splat(3), V8::splat(10)).lane(5), 0);
  EXPECT_EQ(subs(V8::splat(10), V8::splat(3)).lane(5), 7);
}

TEST(V8, AnyGtUnsignedSemantics) {
  EXPECT_FALSE(any_gt(V8::splat(0), V8::splat(0)));
  EXPECT_TRUE(any_gt(V8::splat(1), V8::splat(0)));
  EXPECT_FALSE(any_gt(V8::splat(5), V8::splat(200)));  // unsigned compare
}

TEST(V8, ShiftLanesUpInsertsZero) {
  std::uint8_t data[16];
  for (int i = 0; i < 16; ++i) data[i] = static_cast<std::uint8_t>(i + 1);
  const V8 shifted = V8::load(data).shift_lanes_up();
  EXPECT_EQ(shifted.lane(0), 0);
  for (int i = 1; i < 16; ++i) {
    EXPECT_EQ(shifted.lane(static_cast<std::size_t>(i)), data[i - 1]);
  }
}

TEST(V8, HmaxFindsMaximum) {
  std::uint8_t data[16] = {};
  data[11] = 200;
  data[3] = 199;
  EXPECT_EQ(V8::load(data).hmax(), 200);
}

}  // namespace
}  // namespace swdual::align
