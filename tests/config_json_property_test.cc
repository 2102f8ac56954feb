/**
 * @file
 * Property tests for the JSON layer: randomly generated documents
 * round-trip through dump() and parse() structurally unchanged, and the
 * number writer matches a printf oracle byte for byte.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "config/json.h"
#include "util/random.h"

namespace act::config {
namespace {

/** Generate a pseudo-random JSON value with bounded depth. */
JsonValue
randomValue(util::Xorshift64Star &rng, int depth)
{
    const std::uint64_t kind = rng.nextBelow(depth > 0 ? 6 : 4);
    switch (kind) {
      case 0:
        return JsonValue(nullptr);
      case 1:
        return JsonValue(rng.nextUnit() < 0.5);
      case 2: {
        // Mix integers and awkward reals.
        if (rng.nextUnit() < 0.5) {
            return JsonValue(static_cast<double>(rng.nextBelow(1000)) -
                             500.0);
        }
        return JsonValue(rng.nextUniform(-1e6, 1e6));
      }
      case 3: {
        std::string text;
        const std::uint64_t length = rng.nextBelow(12);
        for (std::uint64_t i = 0; i < length; ++i) {
            // Printable ASCII plus characters that need escaping.
            static const char kAlphabet[] =
                "abcXYZ 019_-\"\\\n\t{}[],:";
            text += kAlphabet[rng.nextBelow(sizeof(kAlphabet) - 1)];
        }
        return JsonValue(std::move(text));
      }
      case 4: {
        JsonArray array;
        const std::uint64_t size = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < size; ++i)
            array.push_back(randomValue(rng, depth - 1));
        return JsonValue(std::move(array));
      }
      default: {
        JsonObject object;
        const std::uint64_t size = rng.nextBelow(4);
        for (std::uint64_t i = 0; i < size; ++i) {
            object["k" + std::to_string(i) +
                   std::string(rng.nextBelow(2), '"')] =
                randomValue(rng, depth - 1);
        }
        return JsonValue(std::move(object));
      }
    }
}

/**
 * Structural equality (numbers compared exactly: dump writes 17
 * significant digits, which round-trip every double).
 */
bool
structurallyEqual(const JsonValue &a, const JsonValue &b)
{
    if (a.isNull())
        return b.isNull();
    if (a.isBool())
        return b.isBool() && a.asBool() == b.asBool();
    if (a.isNumber())
        return b.isNumber() && a.asNumber() == b.asNumber();
    if (a.isString())
        return b.isString() && a.asString() == b.asString();
    if (a.isArray()) {
        if (!b.isArray() || a.asArray().size() != b.asArray().size())
            return false;
        for (std::size_t i = 0; i < a.asArray().size(); ++i) {
            if (!structurallyEqual(a.asArray()[i], b.asArray()[i]))
                return false;
        }
        return true;
    }
    if (!b.isObject() || a.asObject().size() != b.asObject().size())
        return false;
    auto it_a = a.asObject().begin();
    auto it_b = b.asObject().begin();
    for (; it_a != a.asObject().end(); ++it_a, ++it_b) {
        if (it_a->first != it_b->first ||
            !structurallyEqual(it_a->second, it_b->second)) {
            return false;
        }
    }
    return true;
}

class JsonRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonRoundTrip, DumpParseIsIdentity)
{
    util::Xorshift64Star rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const JsonValue original = randomValue(rng, 4);
        // Compact form.
        const JsonValue compact = JsonValue::parse(original.dump());
        EXPECT_TRUE(structurallyEqual(original, compact))
            << original.dump();
        // Pretty-printed form.
        const JsonValue pretty = JsonValue::parse(original.dump(2));
        EXPECT_TRUE(structurallyEqual(original, pretty))
            << original.dump(2);
        // Dump is a fixed point after one round trip.
        EXPECT_EQ(compact.dump(), original.dump());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonRoundTrip,
                         ::testing::Values(1u, 17u, 99u, 2026u));

/** The number text the writer must reproduce: printf's, by definition. */
std::string
printfOracle(double value)
{
    char buffer[64];
    if (value == std::floor(value) && std::fabs(value) < 1e15)
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    else
        std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/** Count (and report the first few) values whose dump differs from
 *  printfOracle(). */
std::size_t
oracleMismatches(const std::vector<double> &values)
{
    std::size_t mismatches = 0;
    for (const double value : values) {
        const std::string dumped = JsonValue(value).dump();
        if (dumped != printfOracle(value) && ++mismatches <= 5) {
            ADD_FAILURE() << "bits 0x" << std::hex
                          << std::bit_cast<std::uint64_t>(value)
                          << ": dump '" << dumped << "' vs printf '"
                          << printfOracle(value) << "'";
        }
    }
    return mismatches;
}

TEST(JsonNumberCodec, DumpMatchesPrintfOracleByteForByte)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        1e15 - 1.0,
        1e15,
        1e15 + 1.0,
        -(1e15 - 1.0),
        -1e15,
        0.1,
        0.5,
        1.0 / 3.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::lowest(),
        std::numeric_limits<double>::epsilon(),
        9007199254740993.0,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    // Seeded random bit patterns cover every exponent, subnormals and
    // NaN payloads alike.
    util::Xorshift64Star rng(20221018u);
    for (int i = 0; i < 1'000'000; ++i)
        values.push_back(std::bit_cast<double>(rng.next()));
    // Integral values and short decimals, the common payload shapes.
    for (int i = 0; i < 100'000; ++i) {
        values.push_back(std::ldexp(
            static_cast<double>(rng.nextBelow(1u << 20)),
            static_cast<int>(rng.nextBelow(60))));
        values.push_back(static_cast<double>(rng.nextBelow(100000)) /
                         1000.0);
    }

    EXPECT_EQ(oracleMismatches(values), 0u);
}

/**
 * The integer fast path covers |v| in [1e-5, 1e17), which random bit
 * patterns reach only ~3% of the time: sweep every binary exponent in
 * it (plus one on each side) and the powers of ten at its seams.
 */
TEST(JsonNumberCodec, FastWindowMatchesPrintfOracle)
{
    std::vector<double> values;
    util::Xorshift64Star rng(20260419u);
    const int lowest = std::ilogb(1e-5) - 1;
    const int highest = std::ilogb(1e17) + 1;
    for (int exponent = lowest; exponent <= highest; ++exponent) {
        const std::uint64_t biased =
            static_cast<std::uint64_t>(exponent + 1023) << 52;
        for (int i = 0; i < 2000; ++i) {
            const std::uint64_t mantissa =
                rng.next() & ((std::uint64_t{1} << 52) - 1);
            const double value = std::bit_cast<double>(biased | mantissa);
            values.push_back(value);
            values.push_back(-value);
        }
    }
    for (int k = -5; k <= 17; ++k) {
        const double power =
            std::strtod(("1e" + std::to_string(k)).c_str(), nullptr);
        for (const double value :
             {std::nextafter(power, 0.0), power,
              std::nextafter(power, HUGE_VAL)}) {
            values.push_back(value);
            values.push_back(-value);
        }
    }
    values.push_back(std::nextafter(1e17, 0.0));
    EXPECT_EQ(oracleMismatches(values), 0u);

    // Exact ties round half to even.
    EXPECT_EQ(JsonValue(1234567890123456.25).dump(), "1234567890123456.2");
    EXPECT_EQ(JsonValue(1234567890123456.75).dump(), "1234567890123456.8");
    EXPECT_EQ(JsonValue(-1234567890123456.25).dump(),
              "-1234567890123456.2");
    EXPECT_EQ(oracleMismatches({1234567890123456.25, 1234567890123456.75}),
              0u);
}

TEST(JsonNumberCodec, FiniteNumbersRoundTripBitForBit)
{
    util::Xorshift64Star rng(7u);
    std::size_t checked = 0;
    while (checked < 1'000'000) {
        const double value = std::bit_cast<double>(rng.next());
        if (!std::isfinite(value))
            continue;
        ++checked;
        const double parsed =
            JsonValue::parse(JsonValue(value).dump()).asNumber();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(parsed),
                  std::bit_cast<std::uint64_t>(value))
            << JsonValue(value).dump();
    }
}

} // namespace
} // namespace act::config
