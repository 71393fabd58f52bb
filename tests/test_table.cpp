#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "greedcolor/util/table.hpp"

namespace gcol {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.set_header({"name", "value"},
               {TextTable::Align::kLeft, TextTable::Align::kRight});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "12345"});
  const std::string s = t.to_string();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // Right-aligned numbers end at the same column.
  std::istringstream in(s);
  std::string l0, l1, l2, l3;
  std::getline(in, l0);
  std::getline(in, l1);
  std::getline(in, l2);
  std::getline(in, l3);
  EXPECT_EQ(l2.size(), l3.size());
  EXPECT_EQ(l2.back(), '1');
  EXPECT_EQ(l3.back(), '5');
}

TEST(TextTable, RuleSeparatesSections) {
  TextTable t;
  t.set_header({"xxx"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string s = t.to_string();
  // Two rules: one under the header, one added explicitly.
  std::size_t rules = 0, pos = 0;
  while ((pos = s.find("---", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_EQ(rules, 2u);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable t;
  t.set_header({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NO_THROW({ const auto s = t.to_string(); });
}

TEST(TextTable, NumericFormatters) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(TextTable::fmt(static_cast<std::int64_t>(-7)), "-7");
  EXPECT_EQ(TextTable::fmt_sep(1508065), "1,508,065");
  EXPECT_EQ(TextTable::fmt_sep(42), "42");
  EXPECT_EQ(TextTable::fmt_sep(-1234), "-1,234");
  EXPECT_EQ(TextTable::fmt_sep(0), "0");
}

}  // namespace
}  // namespace gcol
