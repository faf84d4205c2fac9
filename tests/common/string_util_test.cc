#include "common/string_util.h"

#include <gtest/gtest.h>

namespace graphtides {
namespace {

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a:b:c", ':');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyParts) {
  const auto parts = SplitString(":a::", ':');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, NoDelimiter) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(TrimTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  x y  "), "x y");
  EXPECT_EQ(TrimWhitespace("\t\nabc\r "), "abc");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(ParseInt64Test, ValidValues) {
  EXPECT_EQ(ParseInt64("0").value(), 0);
  EXPECT_EQ(ParseInt64("-17").value(), -17);
  EXPECT_EQ(ParseInt64("9223372036854775807").value(),
            9223372036854775807LL);
}

TEST(ParseInt64Test, RejectsGarbage) {
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64("12x").ok());
  EXPECT_FALSE(ParseInt64("x12").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64(" 12").ok());
}

TEST(ParseUint64Test, ValidAndInvalid) {
  EXPECT_EQ(ParseUint64("42").value(), 42u);
  EXPECT_EQ(ParseUint64("18446744073709551615").value(),
            18446744073709551615ULL);
  EXPECT_EQ(ParseUint64("000000000000000000000042").value(), 42u);
  EXPECT_FALSE(ParseUint64("18446744073709551616").ok());
  EXPECT_FALSE(ParseUint64("99999999999999999999").ok());
  EXPECT_FALSE(ParseUint64("-1").ok());
  EXPECT_FALSE(ParseUint64("+1").ok());
  EXPECT_FALSE(ParseUint64(" 1").ok());
  EXPECT_FALSE(ParseUint64("1 ").ok());
  EXPECT_FALSE(ParseUint64("12x").ok());
  EXPECT_FALSE(ParseUint64("").ok());
  EXPECT_EQ(ParseUint64("4x").status().message(),
            "not an unsigned integer: '4x'");
}

TEST(ParseDoubleTest, ValidValues) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("0").value(), 0.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("ab", "abc"));
  EXPECT_FALSE(StartsWith("xbc", "ab"));
}

}  // namespace
}  // namespace graphtides
