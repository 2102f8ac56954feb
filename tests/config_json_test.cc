/** @file Unit tests for the JSON parser, accessors, and serializer. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>

#include "config/json.h"

namespace act::config {
namespace {

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(JsonValue::parse("null").isNull());
    EXPECT_TRUE(JsonValue::parse("true").asBool());
    EXPECT_FALSE(JsonValue::parse("false").asBool());
    EXPECT_DOUBLE_EQ(JsonValue::parse("3.25").asNumber(), 3.25);
    EXPECT_DOUBLE_EQ(JsonValue::parse("-17").asNumber(), -17.0);
    EXPECT_DOUBLE_EQ(JsonValue::parse("6.02e23").asNumber(), 6.02e23);
    EXPECT_DOUBLE_EQ(JsonValue::parse("1E-3").asNumber(), 1e-3);
    EXPECT_EQ(JsonValue::parse("\"hello\"").asString(), "hello");
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(JsonValue::parse(R"("a\nb\tc")").asString(), "a\nb\tc");
    EXPECT_EQ(JsonValue::parse(R"("say \"hi\"")").asString(),
              "say \"hi\"");
    EXPECT_EQ(JsonValue::parse(R"("back\\slash")").asString(),
              "back\\slash");
    EXPECT_EQ(JsonValue::parse(R"("A")").asString(), "A");
    EXPECT_EQ(JsonValue::parse(R"("é")").asString(), "\xc3\xa9");
}

TEST(JsonParse, ArraysAndObjects)
{
    const JsonValue doc = JsonValue::parse(
        R"({"a": [1, 2, 3], "b": {"c": true}, "d": "x"})");
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("a").asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(doc.at("a").asArray()[1].asNumber(), 2.0);
    EXPECT_TRUE(doc.at("b").at("c").asBool());
    EXPECT_EQ(doc.at("d").asString(), "x");
}

TEST(JsonParse, CommentsAndTrailingCommas)
{
    const JsonValue doc = JsonValue::parse(R"(
        {
            // the fab side
            "yield": 0.875,  // TSMC-like
            "nodes": [7, 10, 14,],
        }
    )");
    EXPECT_DOUBLE_EQ(doc.at("yield").asNumber(), 0.875);
    EXPECT_EQ(doc.at("nodes").asArray().size(), 3u);
}

TEST(JsonParse, EmptyContainers)
{
    EXPECT_TRUE(JsonValue::parse("[]").asArray().empty());
    EXPECT_TRUE(JsonValue::parse("{}").asObject().empty());
}

TEST(JsonParse, ErrorsCarryLocation)
{
    try {
        JsonValue::parse("{\n  \"a\": }");
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &error) {
        EXPECT_EQ(error.line(), 2);
        EXPECT_GT(error.column(), 1);
    }
}

TEST(JsonParse, RejectsMalformedInput)
{
    EXPECT_THROW(JsonValue::parse(""), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("[1 2]"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("tru"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("1 trailing"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonParseError);
    EXPECT_THROW(JsonValue::parse(R"("\q")"), JsonParseError);
}

TEST(JsonParse, SubnormalNumbersRoundTripBitForBit)
{
    for (const char *text : {"1e-320", "4.9e-324", "-2.2250738585072e-310"}) {
        const JsonValue value = JsonValue::parse(text);
        const double number = value.asNumber();
        EXPECT_NE(number, 0.0) << text;
        EXPECT_LT(std::abs(number),
                  std::numeric_limits<double>::min()) << text;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      JsonValue::parse(value.dump()).asNumber()),
                  std::bit_cast<std::uint64_t>(number))
            << text;
    }
    EXPECT_EQ(JsonValue::parse("4.9e-324").asNumber(),
              std::numeric_limits<double>::denorm_min());
}

TEST(JsonParse, MalformedNumbersCarryLocation)
{
    struct Case
    {
        const char *text;
        int line;
        int column;
    };
    // The location is just past the scanned token, as for every other
    // parse error.
    for (const Case &c : {Case{"1e309", 1, 6}, Case{"2e-324", 1, 7},
                          Case{"-", 1, 2}, Case{"1e+", 1, 4},
                          Case{"[1,\n -1e999]", 2, 8}}) {
        try {
            JsonValue::parse(c.text);
            ADD_FAILURE() << "expected JsonParseError for " << c.text;
        } catch (const JsonParseError &error) {
            EXPECT_EQ(error.line(), c.line) << c.text;
            EXPECT_EQ(error.column(), c.column) << c.text;
            EXPECT_EQ(error.message().rfind("malformed number", 0), 0u)
                << error.what();
        }
    }
}

TEST(JsonAccess, TypeErrorsThrow)
{
    const JsonValue doc = JsonValue::parse(R"({"n": 1.5})");
    EXPECT_THROW(doc.at("n").asString(), JsonTypeError);
    EXPECT_THROW(doc.at("n").asBool(), JsonTypeError);
    EXPECT_THROW(doc.at("missing"), JsonTypeError);
    EXPECT_THROW(doc.asArray(), JsonTypeError);
    EXPECT_THROW(doc.at("n").asInteger(), JsonTypeError);
}

TEST(JsonAccess, AsIntegerAcceptsIntegralNumbers)
{
    EXPECT_EQ(JsonValue::parse("42").asInteger(), 42);
    EXPECT_EQ(JsonValue::parse("-7").asInteger(), -7);
}

TEST(JsonAccess, AsIntegerRejectsOutOfRangeNumbers)
{
    EXPECT_THROW(JsonValue::parse("1e300").asInteger(), JsonTypeError);
    EXPECT_THROW(JsonValue::parse("-1e300").asInteger(), JsonTypeError);
    // 2^63 is the first integral double above INT64_MAX; -2^63 fits.
    EXPECT_THROW(JsonValue(9223372036854775808.0).asInteger(),
                 JsonTypeError);
    EXPECT_EQ(JsonValue(-9223372036854775808.0).asInteger(),
              std::numeric_limits<std::int64_t>::min());
    try {
        JsonValue::parse("1e300").asInteger();
        FAIL() << "expected JsonTypeError";
    } catch (const JsonTypeError &error) {
        EXPECT_STREQ(error.what(), "JSON number out of integer range");
    }
}

TEST(JsonAccess, DefaultingAccessors)
{
    const JsonValue doc = JsonValue::parse(
        R"({"x": 2.5, "flag": true, "name": "act"})");
    EXPECT_DOUBLE_EQ(doc.numberOr("x", 0.0), 2.5);
    EXPECT_DOUBLE_EQ(doc.numberOr("y", 9.0), 9.0);
    EXPECT_TRUE(doc.boolOr("flag", false));
    EXPECT_FALSE(doc.boolOr("other", false));
    EXPECT_EQ(doc.stringOr("name", ""), "act");
    EXPECT_EQ(doc.stringOr("nope", "dflt"), "dflt");
}

TEST(JsonDump, RoundTripsStructure)
{
    const std::string source =
        R"({"a":[1,2.5,"s",true,null],"b":{"c":[{"d":1}]},"e":-0.125})";
    const JsonValue doc = JsonValue::parse(source);
    const JsonValue reparsed = JsonValue::parse(doc.dump());
    EXPECT_EQ(reparsed.dump(), doc.dump());
    EXPECT_DOUBLE_EQ(reparsed.at("e").asNumber(), -0.125);
    EXPECT_TRUE(reparsed.at("a").asArray()[4].isNull());
}

TEST(JsonDump, PrettyPrintIndents)
{
    const JsonValue doc = JsonValue::parse(R"({"a": [1], "b": 2})");
    const std::string pretty = doc.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\""), std::string::npos);
    // Compact dump has no whitespace.
    EXPECT_EQ(doc.dump().find('\n'), std::string::npos);
}

TEST(JsonDump, EscapesStrings)
{
    JsonObject object;
    object["k"] = JsonValue("line\nbreak \"q\"");
    const std::string out = JsonValue(std::move(object)).dump();
    EXPECT_NE(out.find(R"(\n)"), std::string::npos);
    EXPECT_NE(out.find(R"(\")"), std::string::npos);
    // And it round-trips.
    EXPECT_EQ(JsonValue::parse(out).at("k").asString(),
              "line\nbreak \"q\"");
}

TEST(JsonDump, IntegersPrintWithoutDecimals)
{
    EXPECT_EQ(JsonValue(42.0).dump(), "42");
    EXPECT_EQ(JsonValue(2.5).dump(), "2.5");
}

TEST(JsonFile, SaveAndLoad)
{
    const std::string path = ::testing::TempDir() + "/act_json_test.json";
    JsonObject object;
    object["value"] = JsonValue(0.875);
    saveJsonFile(path, JsonValue(std::move(object)));
    const JsonValue loaded = loadJsonFile(path);
    EXPECT_DOUBLE_EQ(loaded.at("value").asNumber(), 0.875);
}

TEST(JsonFile, MissingFileIsFatal)
{
    EXPECT_EXIT(loadJsonFile("/nonexistent/act.json"),
                ::testing::ExitedWithCode(1), "");
}

TEST(JsonFile, MalformedFileIsFatalWithLocation)
{
    const std::string path =
        ::testing::TempDir() + "/act_json_truncated.json";
    {
        std::ofstream out(path);
        out << "{\n  \"chunks\": [1, 2.5,";
    }
    EXPECT_EXIT(loadJsonFile(path), ::testing::ExitedWithCode(1),
                "fatal: .*act_json_truncated\\.json:2:[0-9]+: "
                "unexpected end of input");
}

TEST(JsonFile, FailedWriteIsFatal)
{
    EXPECT_EXIT(saveJsonFile("/dev/full", JsonValue(1.0)),
                ::testing::ExitedWithCode(1), "/dev/full");
}

TEST(JsonFile, StreamedSaveOfAMultiMegabyteDocumentEqualsDump)
{
    // Several flushes of saveJsonFile's ~1 MiB buffer, cut mid-array
    // and mid-object.
    JsonArray rows;
    for (int i = 0; i < 100'000; ++i) {
        JsonObject row;
        row["index"] = JsonValue(i);
        row["value"] = JsonValue(1.0 / (i + 3));
        rows.emplace_back(std::move(row));
    }
    JsonObject object;
    object["rows"] = JsonValue(std::move(rows));
    const JsonValue document(std::move(object));
    const std::string path =
        ::testing::TempDir() + "/act_json_streamed.json";
    saveJsonFile(path, document);

    std::ifstream in(path, std::ios::binary);
    const std::string written((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
    EXPECT_GT(written.size(), std::size_t{4} << 20);
    EXPECT_EQ(written, document.dump(2) + "\n");
}

} // namespace
} // namespace act::config
