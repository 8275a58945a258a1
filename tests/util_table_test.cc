// Tests of the text-table renderer.

#include "util/table.h"

#include <gtest/gtest.h>

#include <cstdio>

namespace spammass {
namespace {

using util::FormatDouble;
using util::TextTable;

TEST(FormatDoubleTest, TrimsTrailingZeros) {
  EXPECT_EQ(FormatDouble(2.7), "2.7");
  EXPECT_EQ(FormatDouble(2.7000001, 2), "2.7");
  EXPECT_EQ(FormatDouble(1.0), "1");
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(-0.0), "0");
  EXPECT_EQ(FormatDouble(-67.9, 2), "-67.9");
  EXPECT_EQ(FormatDouble(0.1234567, 4), "0.1235");
}

TEST(FormatDoubleTest, NegativeValuesRoundingToZeroPrintZero) {
  EXPECT_EQ(FormatDouble(-0.0, 6), "0");
  EXPECT_EQ(FormatDouble(-0.0001, 2), "0");
  EXPECT_EQ(FormatDouble(-0.4, 0), "0");
}

TEST(FormatDoubleTest, HalfwayValuesRoundToEven) {
  // 0.125, 0.375, 2.5 and 3.5 are exact in binary, so these are true
  // ties, broken to even like printf's "%.*f".
  EXPECT_EQ(FormatDouble(0.125, 2), "0.12");
  EXPECT_EQ(FormatDouble(0.375, 2), "0.38");
  EXPECT_EQ(FormatDouble(2.5, 0), "2");
  EXPECT_EQ(FormatDouble(3.5, 0), "4");
  // 0.15 is stored just below the tie and rounds down.
  EXPECT_EQ(FormatDouble(0.15, 1), "0.1");
}

TEST(FormatDoubleTest, ZeroDigitsPrintsAnInteger) {
  EXPECT_EQ(FormatDouble(12.7, 0), "13");
  EXPECT_EQ(FormatDouble(-12.7, 0), "-13");
  EXPECT_EQ(FormatDouble(100.0, 0), "100");  // No point, so no trim.
}

TEST(FormatDoubleTest, HugeValuesPrintEveryIntegerDigit) {
  for (double v : {1e300, -1e300, 1.7976931348623157e308}) {
    char expected[512];
    std::snprintf(expected, sizeof(expected), "%.0f", v);
    EXPECT_EQ(FormatDouble(v, 6), expected);
  }
  EXPECT_EQ(FormatDouble(1e300, 6).size(), 301u);
}

TEST(TextTableTest, AlignsColumns) {
  TextTable t;
  t.SetHeader({"node", "pagerank"});
  t.AddRowValues("x", 9.33);
  t.AddRowValues("g0", 2.7);
  std::string s = t.ToString();
  EXPECT_NE(s.find("node"), std::string::npos);
  EXPECT_NE(s.find("9.33"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  // Every line has the same column start for "pagerank" values.
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTableTest, PadsShortRows) {
  TextTable t;
  t.SetHeader({"a", "b", "c"});
  t.AddRow({"only"});
  std::string s = t.ToString();
  EXPECT_NE(s.find("only"), std::string::npos);
}

TEST(TextTableTest, MixedCellTypes) {
  TextTable t;
  t.SetHeader({"id", "mass", "label"});
  t.AddRowValues(7, -67.9, std::string("good"));
  std::string s = t.ToString();
  EXPECT_NE(s.find("7"), std::string::npos);
  EXPECT_NE(s.find("-67.9"), std::string::npos);
  EXPECT_NE(s.find("good"), std::string::npos);
}

}  // namespace
}  // namespace spammass
