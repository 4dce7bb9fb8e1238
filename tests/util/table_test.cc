#include "util/table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace spineless {
namespace {

TEST(Table, RendersHeaderAndRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"}).add_row({"beta", "22"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  // Header, separator and one line per row.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
}

TEST(Table, ColumnsAreAligned) {
  Table t({"a", "b"});
  t.add_row({"xxxxxxxx", "1"});
  t.add_row({"y", "2"});
  std::istringstream in(t.to_string());
  std::string header, sep, row1, row2;
  std::getline(in, header);
  std::getline(in, sep);
  std::getline(in, row1);
  std::getline(in, row2);
  // The second column starts at the same offset in both rows.
  EXPECT_EQ(row1.find('1'), row2.find('2'));
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), Error);
}

TEST(Table, FmtPrecision) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(2.0, 0), "2");
  EXPECT_EQ(Table::fmt(0.5), "0.500");
}

TEST(Heatmap, RendersLabelsAndCells) {
  const auto s = render_heatmap({{1.0, 2.0}, {3.0, 4.0}}, {"r0", "r1"},
                                {"c0", "c1"}, "C\\S");
  EXPECT_NE(s.find("r0"), std::string::npos);
  EXPECT_NE(s.find("c1"), std::string::npos);
  EXPECT_NE(s.find("4.00"), std::string::npos);
}

TEST(Heatmap, ShapeMismatchThrows) {
  EXPECT_THROW(render_heatmap({{1.0}}, {"r0", "r1"}, {"c0"}, ""), Error);
  EXPECT_THROW(render_heatmap({{1.0, 2.0}}, {"r0"}, {"c0"}, ""), Error);
}

}  // namespace
}  // namespace spineless
