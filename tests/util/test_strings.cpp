// Unit tests for string utilities.
#include <gtest/gtest.h>

#include "util/strings.h"

namespace swdual {
namespace {

TEST(Split, BasicAndEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("abc", ','), (std::vector<std::string>{"abc"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Trim, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hi \t\r\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("a b"), "a b");
}

TEST(StartsEndsWith, Basics) {
  EXPECT_TRUE(starts_with(">header", ">"));
  EXPECT_FALSE(starts_with("", ">"));
  EXPECT_TRUE(ends_with("db.swdb", ".swdb"));
  EXPECT_FALSE(ends_with("db.fa", ".swdb"));
  EXPECT_TRUE(starts_with("abc", ""));
}

}  // namespace
}  // namespace swdual
