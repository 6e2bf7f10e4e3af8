#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "opwat/util/strings.hpp"

namespace {

using namespace opwat::util;

TEST(Strings, SplitBasic) {
  const auto v = split("a,b,c", ',');
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], "a");
  EXPECT_EQ(v[2], "c");
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto v = split("a,,c,", ',');
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[1], "");
  EXPECT_EQ(v[3], "");
}

TEST(Strings, SplitEmptyString) {
  const auto v = split("", ',');
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, JoinRoundtrip) {
  const std::vector<std::string> v{"x", "y", "z"};
  EXPECT_EQ(join(v, ", "), "x, y, z");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ToLower) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(Strings, FmtDouble) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
  EXPECT_EQ(fmt_double(-0.5, 1), "-0.5");
}

TEST(Strings, FmtPercent) {
  EXPECT_EQ(fmt_percent(0.2756, 1), "27.6%");
  EXPECT_EQ(fmt_percent(1.0, 0), "100%");
}

TEST(Strings, FmtCount) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(31690), "31,690");
  EXPECT_EQ(fmt_count(1234567890), "1,234,567,890");
  EXPECT_EQ(fmt_count(-31690), "-31,690");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("IX-Amsterdam", "IX-"));
  EXPECT_FALSE(starts_with("IX", "IX-"));
  EXPECT_TRUE(starts_with("abc", ""));
}

// Property: join(split(s)) == s for separator-free pieces.
class SplitJoinRoundtrip : public ::testing::TestWithParam<std::string> {};

TEST_P(SplitJoinRoundtrip, Roundtrips) {
  const auto& s = GetParam();
  EXPECT_EQ(join(split(s, ';'), ";"), s);
}

INSTANTIATE_TEST_SUITE_P(Cases, SplitJoinRoundtrip,
                         ::testing::Values("", "a", "a;b", ";;", "x;;y;",
                                           "the;quick;brown;fox"));

TEST(Strings, ParseUnsignedAcceptsDigitsInRange) {
  EXPECT_EQ(parse_unsigned<std::uint16_t>("0"), std::uint16_t{0});
  EXPECT_EQ(parse_unsigned<std::uint16_t>("65535"), std::uint16_t{65535});
  EXPECT_EQ(parse_unsigned<std::uint8_t>("007"), std::uint8_t{7});
  EXPECT_EQ(parse_unsigned<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_unsigned<std::size_t>("4", 1, 8), std::size_t{4});
}

TEST(Strings, ParseUnsignedRejectsOutOfRange) {
  EXPECT_FALSE(parse_unsigned<std::uint16_t>("70000"));
  EXPECT_FALSE(parse_unsigned<std::uint8_t>("256"));
  EXPECT_FALSE(parse_unsigned<std::uint32_t>("4294967296"));
  EXPECT_FALSE(parse_unsigned<std::uint64_t>("18446744073709551616"));
  EXPECT_FALSE(parse_unsigned<std::size_t>("0", 1, 8));
  EXPECT_FALSE(parse_unsigned<std::size_t>("9", 1, 8));
}

TEST(Strings, ParseUnsignedRejectsNonDigits) {
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "abc", "1x", "0x10", "1.5", "1e3"})
    EXPECT_FALSE(parse_unsigned<std::uint32_t>(bad)) << '"' << bad << '"';
}

}  // namespace
