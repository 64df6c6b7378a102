// Unit tests for SWDUAL_CHECK, the project's one check tier (util/error.h).
#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace swdual {
namespace {

TEST(Contracts, CheckPassesOnTrueConditionEvaluatingItOnce) {
  int evaluations = 0;
  const auto probe = [&evaluations] {
    ++evaluations;
    return true;
  };
  EXPECT_NO_THROW(SWDUAL_CHECK(probe(), "probe tripped"));
  EXPECT_EQ(evaluations, 1);
}

TEST(Contracts, AlwaysOnCheckThrowsRegardlessOfTier) {
  // SWDUAL_CHECK is never compiled out: no build option removes it.
  EXPECT_THROW(SWDUAL_CHECK(false, "always-on check"), Error);
}

TEST(Contracts, CheckThrowsErrorWithItsMessage) {
  // A failing check throws after evaluating its condition exactly once, and
  // the error names the message.
  int evaluations = 0;
  const auto probe = [&evaluations] {
    ++evaluations;
    return false;
  };
  try {
    SWDUAL_CHECK(probe(), "span inverted in test fixture");
    FAIL() << "expected a throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("span inverted in test fixture"),
              std::string::npos);
  }
  EXPECT_EQ(evaluations, 1);
}

}  // namespace
}  // namespace swdual
