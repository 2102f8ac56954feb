/** @file Unit tests for string helpers and text rendering utilities. */

#include <gtest/gtest.h>

#include "util/csv.h"
#include "util/strings.h"
#include "util/table.h"

namespace act::util {
namespace {

TEST(Strings, SplitBasic)
{
    const auto fields = split("a,b,c", ',');
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "c");
}

TEST(Strings, SplitPreservesEmptyFields)
{
    const auto fields = split(",x,,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "");
    EXPECT_EQ(fields[1], "x");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  hello \t\n"), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ToLowerAndStartsWith)
{
    EXPECT_EQ(toLower("Kirin 990"), "kirin 990");
    EXPECT_TRUE(startsWith("Snapdragon 865", "Snap"));
    EXPECT_FALSE(startsWith("DSP", "DSPX"));
    EXPECT_TRUE(startsWith("abc", ""));
}

TEST(Strings, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.2345, 2), "1.23");
    EXPECT_EQ(formatFixed(-0.5, 1), "-0.5");
    EXPECT_EQ(formatFixed(3.0, 0), "3");
}

TEST(Strings, FormatFixedTooLongForFixedUsesExponent)
{
    // A fixed form past the 63-character buffer used to be cut short.
    EXPECT_EQ(formatFixed(1e300, 1), "1.0e+300");
    EXPECT_EQ(formatFixed(-1e300, 1), "-1.0e+300");
    EXPECT_EQ(formatFixed(1e300, 0), "1e+300");
    // Long but fitting values keep every digit.
    EXPECT_EQ(formatFixed(1e20, 1), "100000000000000000000.0");
    EXPECT_EQ(formatFixed(0x1p200, 0),
              "1606938044258990275541962092341162602522202993782792835301376");
}

TEST(Strings, FormatSig)
{
    EXPECT_EQ(formatSig(0.0, 3), "0");
    EXPECT_EQ(formatSig(1234.6, 4), "1235");
    EXPECT_EQ(formatSig(0.001234, 2), "0.0012");
    EXPECT_EQ(formatSig(12.345, 3), "12.3");
}

TEST(Strings, FormatSigLargeAndTinyUseScientific)
{
    EXPECT_NE(formatSig(1.5e9, 3).find('e'), std::string::npos);
    EXPECT_NE(formatSig(2.5e-7, 3).find('e'), std::string::npos);
}

TEST(Strings, Join)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(Table, RendersHeaderAndRows)
{
    Table table({"Node", "EPA"});
    table.addRow({"28nm", "0.90"});
    table.addRow("20nm", {1.2}, 3);
    const std::string out = table.render();
    EXPECT_NE(out.find("Node"), std::string::npos);
    EXPECT_NE(out.find("28nm"), std::string::npos);
    EXPECT_NE(out.find("1.20"), std::string::npos);
    EXPECT_EQ(table.rowCount(), 2u);
}

TEST(Table, MismatchedRowIsFatal)
{
    Table table({"a", "b"});
    EXPECT_EXIT(table.addRow({"only one"}), ::testing::ExitedWithCode(1),
                "");
}

TEST(Table, SeparatorInsertsRule)
{
    Table table({"x"});
    table.addRow({"1"});
    table.addSeparator();
    table.addRow({"2"});
    const std::string out = table.render();
    // header rule + top + bottom + separator = 4 rules.
    std::size_t rules = 0;
    for (std::size_t pos = out.find("+-"); pos != std::string::npos;
         pos = out.find("+-", pos + 1)) {
        ++rules;
    }
    EXPECT_GE(rules, 4u);
}

TEST(Csv, EscapesSpecialCharacters)
{
    EXPECT_EQ(CsvWriter::escapeField("plain"), "plain");
    EXPECT_EQ(CsvWriter::escapeField("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::escapeField("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::escapeField("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesHeaderAndRows)
{
    CsvWriter csv({"name", "value"});
    csv.addRow({"alpha", "1"});
    csv.addRow("beta", {2.5});
    const std::string out = csv.toString();
    EXPECT_EQ(out.substr(0, 11), "name,value\n");
    EXPECT_NE(out.find("alpha,1"), std::string::npos);
    EXPECT_NE(out.find("beta,2.5"), std::string::npos);
}

TEST(Csv, ColumnMismatchIsFatal)
{
    CsvWriter csv({"a"});
    EXPECT_EXIT(csv.addRow({"1", "2"}), ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::util
