// Tests of the text-table renderer.

#include "util/table.h"

#include <gtest/gtest.h>

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
