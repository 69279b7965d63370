/**
 * @file
 * Tests for the text-table and number formatting helpers.
 */

#include <gtest/gtest.h>

#include "util/table.hpp"

using press::util::fmtF;
using press::util::fmtInt;
using press::util::fmtPct;
using press::util::fmtSignedPct;
using press::util::TextTable;

TEST(Fmt, Fixed)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtF(2.0, 0), "2");
    EXPECT_EQ(fmtF(-1.25, 1), "-1.2");
}

TEST(Fmt, Percent)
{
    EXPECT_EQ(fmtPct(0.123), "12.3%");
    EXPECT_EQ(fmtPct(1.0, 0), "100%");
    // A change carries its own sign: never "+-5.0%".
    EXPECT_EQ(fmtSignedPct(0.123), "+12.3%");
    EXPECT_EQ(fmtSignedPct(-0.05), "-5.0%");
}

TEST(Fmt, ThousandsSeparators)
{
    EXPECT_EQ(fmtInt(0), "0");
    EXPECT_EQ(fmtInt(999), "999");
    EXPECT_EQ(fmtInt(1000), "1,000");
    EXPECT_EQ(fmtInt(2978121), "2,978,121");
    EXPECT_EQ(fmtInt(-1234567), "-1,234,567");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.row({"b", "22,000"});
    std::string out = t.render();
    // Header present, rule under it, rows present.
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22,000"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Numeric cells right-aligned: "1" ends its column.
    auto line_with = [&](const std::string &needle) {
        auto pos = out.find(needle);
        auto start = out.rfind('\n', pos);
        auto end = out.find('\n', pos);
        return out.substr(start + 1, end - start - 1);
    };
    std::string row1 = line_with("alpha");
    std::string row2 = line_with("22,000");
    EXPECT_EQ(row1.size(), row2.size());
}

TEST(TextTable, SeparatorRows)
{
    TextTable t;
    t.header({"a"});
    t.row({"x"});
    t.separator();
    t.row({"y"});
    std::string out = t.render();
    // Two rules: one under the header, one explicit.
    std::size_t first = out.find("---");
    ASSERT_NE(first, std::string::npos);
    EXPECT_NE(out.find("---", first + 4), std::string::npos);
}

TEST(TextTable, HandlesRaggedRows)
{
    TextTable t;
    t.header({"a", "b", "c"});
    t.row({"only-one"});
    std::string out = t.render();
    EXPECT_NE(out.find("only-one"), std::string::npos);
}

TEST(TextTable, CsvRendering)
{
    TextTable t;
    t.header({"a", "b"});
    t.row({"plain", "1,000"});
    t.separator();
    t.row({"quo\"te", "x"});
    std::string csv = t.renderCsv();
    EXPECT_EQ(csv, "a,b\nplain,\"1,000\"\n\"quo\"\"te\",x\n");
}
