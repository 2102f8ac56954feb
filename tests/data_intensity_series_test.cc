/**
 * @file
 * Tests for the IntensitySeries time-series substrate: JSON
 * round-trips through the in-repo config parser, seasonal
 * composition, and malformed-input fatals.
 */

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/carbon_intensity_db.h"
#include "data/intensity_series.h"

namespace act::data {
namespace {

using util::gramsPerKilowattHour;

TEST(IntensitySeries, FlatSeriesIsConstant)
{
    const auto series =
        IntensitySeries::flat(gramsPerKilowattHour(300.0));
    EXPECT_EQ(series.size(), 24u);
    EXPECT_DOUBLE_EQ(series.stepHours(), 1.0);
    EXPECT_DOUBLE_EQ(series.durationHours(), 24.0);
    for (std::size_t s = 0; s < series.size(); ++s)
        EXPECT_DOUBLE_EQ(series.gramsAt(s), 300.0);
    EXPECT_DOUBLE_EQ(series.average().value(), 300.0);
}

TEST(IntensitySeries, AtWrapsCyclically)
{
    const auto series = IntensitySeries::fromSamples({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(series.gramsAt(0), 1.0);
    EXPECT_DOUBLE_EQ(series.gramsAt(3), 1.0);
    EXPECT_DOUBLE_EQ(series.gramsAt(7), 2.0);
}

// ---------------------------------------------------------------------
// Seasonal composition
// ---------------------------------------------------------------------

TEST(IntensitySeries, SeasonalTilesTheDay)
{
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    const auto year = IntensitySeries::seasonal(day, 365, 0.15, 0.0);
    EXPECT_EQ(year.size(), 8760u);
    EXPECT_DOUBLE_EQ(year.durationHours(), 8760.0);
    // Day 0 is the peak (dirtiest): scaled by 1 + amplitude.
    EXPECT_DOUBLE_EQ(year.gramsAt(12), day.gramsAt(12) * 1.15);
    // Mid-year trough scaled close to 1 - amplitude.
    const double mid = year.gramsAt(182 * 24 + 12) / day.gramsAt(12);
    EXPECT_NEAR(mid, 0.85, 1e-3);
}

TEST(IntensitySeries, ZeroAmplitudeSeasonalRepeatsExactly)
{
    const auto day =
        IntensitySeries::windDay(gramsPerKilowattHour(400.0), 0.3);
    const auto tiled = IntensitySeries::seasonal(day, 3, 0.0);
    ASSERT_EQ(tiled.size(), 72u);
    for (std::size_t s = 0; s < tiled.size(); ++s)
        EXPECT_EQ(tiled.gramsAt(s), day.gramsAt(s % 24)) << s;
}

// ---------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------

TEST(IntensitySeries, ExplicitJsonRoundTripsBitExactly)
{
    const auto original =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    // dump -> parse -> rebuild: %.17g doubles survive bit-exactly.
    const auto reparsed = intensitySeriesFromJson(
        config::JsonValue::parse(toJson(original).dump()));
    ASSERT_EQ(reparsed.size(), original.size());
    EXPECT_EQ(reparsed.stepHours(), original.stepHours());
    EXPECT_EQ(reparsed.name(), original.name());
    for (std::size_t s = 0; s < original.size(); ++s)
        EXPECT_EQ(reparsed.gramsAt(s), original.gramsAt(s)) << s;
}

TEST(IntensitySeries, GeneratedJsonMatchesBuilders)
{
    const auto from_json =
        intensitySeriesFromJson(config::JsonValue::parse(R"({
            "name": "tw", "profile": "solar", "region": "Taiwan",
            "share": 0.25, "days": 365,
            "seasonal_amplitude": 0.15})"));
    const auto built = IntensitySeries::seasonal(
        IntensitySeries::solarDay(
            regionIntensity(regionByName("Taiwan")), 0.25),
        365, 0.15, 0.0);
    ASSERT_EQ(from_json.size(), built.size());
    EXPECT_EQ(from_json.name(), "tw");
    for (std::size_t s = 0; s < built.size(); ++s)
        EXPECT_EQ(from_json.gramsAt(s), built.gramsAt(s)) << s;
}

TEST(IntensitySeries, FlatGeneratedFormUsesBaseIntensity)
{
    const auto series =
        intensitySeriesFromJson(config::JsonValue::parse(
            R"({"profile": "flat", "base_g_per_kwh": 123.0})"));
    EXPECT_EQ(series.size(), 24u);
    EXPECT_DOUBLE_EQ(series.gramsAt(5), 123.0);
}

// ---------------------------------------------------------------------
// Malformed input
// ---------------------------------------------------------------------

class IntensitySeriesDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }

    static void
    parseText(const std::string &text)
    {
        intensitySeriesFromJson(config::JsonValue::parse(text));
    }
};

TEST_F(IntensitySeriesDeathTest, EmptySeriesIsFatal)
{
    EXPECT_EXIT(parseText(R"({"samples_g_per_kwh": []})"),
                ::testing::ExitedWithCode(1), "at least one sample");
}

TEST_F(IntensitySeriesDeathTest, NegativeSampleIsFatal)
{
    EXPECT_EXIT(parseText(R"({"samples_g_per_kwh": [300, -1]})"),
                ::testing::ExitedWithCode(1), "sample 1");
}

TEST_F(IntensitySeriesDeathTest, NonPositiveStepIsFatal)
{
    EXPECT_EXIT(
        parseText(R"({"samples_g_per_kwh": [300], "step_hours": 0})"),
        ::testing::ExitedWithCode(1), "step must be positive");
}

TEST_F(IntensitySeriesDeathTest, MissingProfileAndSamplesIsFatal)
{
    EXPECT_EXIT(parseText(R"({"name": "empty"})"),
                ::testing::ExitedWithCode(1), "samples_g_per_kwh");
}

TEST_F(IntensitySeriesDeathTest, UnknownProfileIsFatal)
{
    EXPECT_EXIT(parseText(R"({"profile": "tidal",
                              "base_g_per_kwh": 300})"),
                ::testing::ExitedWithCode(1), "unknown intensity");
}

TEST_F(IntensitySeriesDeathTest, GeneratedFormNeedsABaseGrid)
{
    EXPECT_EXIT(parseText(R"({"profile": "solar", "share": 0.2})"),
                ::testing::ExitedWithCode(1), "base grid");
}

TEST_F(IntensitySeriesDeathTest, FractionalDaysAreFatal)
{
    EXPECT_EXIT(parseText(R"({"profile": "flat",
                              "base_g_per_kwh": 300,
                              "days": 1.5})"),
                ::testing::ExitedWithCode(1), "positive");
}

TEST_F(IntensitySeriesDeathTest, SeasonalAmplitudeOutOfRangeIsFatal)
{
    EXPECT_EXIT(
        IntensitySeries::seasonal(
            IntensitySeries::flat(gramsPerKilowattHour(300.0)), 10,
            1.0),
        ::testing::ExitedWithCode(1), "amplitude");
}

TEST_F(IntensitySeriesDeathTest, OutOfRangeShareIsFatal)
{
    EXPECT_EXIT(IntensitySeries::solarDay(gramsPerKilowattHour(583.0),
                                          0.6),
                ::testing::ExitedWithCode(1), "renewable share");
    EXPECT_EXIT(IntensitySeries::windDay(gramsPerKilowattHour(583.0),
                                         -0.1),
                ::testing::ExitedWithCode(1), "renewable share");
}

} // namespace
} // namespace act::data
