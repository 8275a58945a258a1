// Tests of string helpers.

#include "util/string_util.h"

#include <gtest/gtest.h>

namespace spammass {
namespace {

using util::FormatWithCommas;
using util::Join;
using util::NextField;
using util::Split;
using util::SplitWhitespace;
using util::StringPrintf;
using util::Trim;

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitWhitespaceTest, DropsEmptyRuns) {
  EXPECT_EQ(SplitWhitespace("  a \t b\n c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   \t ").empty());
  EXPECT_TRUE(SplitWhitespace("").empty());
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(TrimTest, Basics) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("\t a b \n"), "a b");
}

TEST(StringPrintfTest, Formats) {
  EXPECT_EQ(StringPrintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StringPrintf("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(NextFieldTest, WalksWhitespaceSeparatedFields) {
  std::string_view s = "  12 \t 34\n 56  ";
  EXPECT_EQ(NextField(&s), "12");
  EXPECT_EQ(NextField(&s), "34");
  EXPECT_EQ(NextField(&s), "56");
  EXPECT_EQ(NextField(&s), "");
  EXPECT_TRUE(s.empty());
}

TEST(NextFieldTest, EmptyAndAllWhitespace) {
  std::string_view empty = "";
  EXPECT_EQ(NextField(&empty), "");
  std::string_view ws = " \t\n ";
  EXPECT_EQ(NextField(&ws), "");
  EXPECT_TRUE(ws.empty());
}

TEST(NextFieldTest, SingleFieldNoWhitespace) {
  std::string_view s = "alone";
  EXPECT_EQ(NextField(&s), "alone");
  EXPECT_EQ(NextField(&s), "");
}

TEST(ParseNumberTest, ParsesWholeFieldsOfEachType) {
  int64_t i = 0;
  EXPECT_TRUE(util::ParseNumber("-42", &i));
  EXPECT_EQ(i, -42);
  uint32_t u = 0;
  EXPECT_TRUE(util::ParseNumber("4294967295", &u));
  EXPECT_EQ(u, 4294967295u);
  double d = 0;
  EXPECT_TRUE(util::ParseNumber("0.98", &d));
  EXPECT_EQ(d, 0.98);
  EXPECT_TRUE(util::ParseNumber("1e-06", &d));
  EXPECT_EQ(d, 1e-06);
}

TEST(ParseNumberTest, RejectsPartialAndOutOfRangeFields) {
  int i = 0;
  EXPECT_FALSE(util::ParseNumber("", &i));
  EXPECT_FALSE(util::ParseNumber("abc", &i));
  EXPECT_FALSE(util::ParseNumber("4x", &i));
  EXPECT_FALSE(util::ParseNumber("1e3", &i));  // Integers take no exponent.
  EXPECT_FALSE(util::ParseNumber("+4", &i));
  EXPECT_FALSE(util::ParseNumber(" 4", &i));
  uint32_t u = 0;
  EXPECT_FALSE(util::ParseNumber("-1", &u));  // No wrap to 4294967295.
  EXPECT_FALSE(util::ParseNumber("4294967296", &u));
  double d = 0;
  EXPECT_FALSE(util::ParseNumber("0.9B", &d));
  EXPECT_FALSE(util::ParseNumber("0.5 ", &d));
  EXPECT_FALSE(util::ParseNumber("1e400", &d));
}

TEST(ParseUint64Test, ParsesValidNumbers) {
  uint64_t v = 0;
  EXPECT_TRUE(util::ParseNumber("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(util::ParseNumber("42", &v));
  EXPECT_EQ(v, 42u);
  EXPECT_TRUE(util::ParseNumber("18446744073709551615", &v));  // UINT64_MAX
  EXPECT_EQ(v, 18446744073709551615ull);
}

TEST(ParseUint64Test, RejectsGarbage) {
  uint64_t v = 0;
  EXPECT_FALSE(util::ParseNumber("", &v));
  EXPECT_FALSE(util::ParseNumber("x", &v));
  EXPECT_FALSE(util::ParseNumber("12x", &v));    // Trailing junk.
  EXPECT_FALSE(util::ParseNumber(" 12", &v));    // No leading whitespace.
  EXPECT_FALSE(util::ParseNumber("-1", &v));     // Negatives are not unsigned.
  EXPECT_FALSE(util::ParseNumber("+1", &v));     // from_chars rejects '+'.
  EXPECT_FALSE(util::ParseNumber("1.5", &v));
  EXPECT_FALSE(util::ParseNumber("0x10", &v));   // No hex.
  EXPECT_FALSE(util::ParseNumber("18446744073709551616", &v));  // Overflow.
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(73300000), "73,300,000");
  EXPECT_EQ(FormatWithCommas(979000000), "979,000,000");
}

}  // namespace
}  // namespace spammass
