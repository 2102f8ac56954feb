/**
 * @file
 * Tests for one-day carbon-intensity series and carbon-aware
 * scheduling.
 */

#include <gtest/gtest.h>

#include "core/scheduling.h"
#include "data/carbon_intensity_db.h"

namespace act::core {
namespace {

using data::IntensitySeries;
using util::gramsPerKilowattHour;

TEST(Profiles, FlatProfileIsConstant)
{
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    ASSERT_EQ(day.size(), 24u);
    for (std::size_t h = 0; h < day.size(); ++h)
        EXPECT_DOUBLE_EQ(day.gramsAt(h), 300.0);
    EXPECT_DOUBLE_EQ(day.average().value(), 300.0);
}

TEST(Profiles, SolarProfileAveragesToBlend)
{
    const auto base = gramsPerKilowattHour(583.0);
    for (double share : {0.0, 0.1, 0.25, 0.4}) {
        const auto day = IntensitySeries::solarDay(base, share);
        EXPECT_NEAR(day.average().value(),
                    data::renewableBlend(base, share).value(), 0.5)
            << share;
    }
}

TEST(Profiles, WindProfileAveragesToBlend)
{
    const auto base = gramsPerKilowattHour(400.0);
    const auto day = IntensitySeries::windDay(base, 0.3);
    const double expected =
        0.7 * 400.0 +
        0.3 * data::sourceIntensity(data::EnergySource::Wind).value();
    EXPECT_NEAR(day.average().value(), expected, 0.5);
}

TEST(Profiles, SolarDipsMidday)
{
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    EXPECT_LT(day.gramsAt(12), day.gramsAt(0));
    EXPECT_LT(day.gramsAt(12), day.gramsAt(22));
    // Night hours carry no solar at all.
    EXPECT_DOUBLE_EQ(day.gramsAt(0), 583.0);
    EXPECT_DOUBLE_EQ(day.gramsAt(23), 583.0);
}

TEST(Profiles, HoursByIntensitySortsGreenestFirst)
{
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    const auto order = day.samplesByIntensity();
    ASSERT_EQ(order.size(), 24u);
    for (std::size_t i = 1; i < order.size(); ++i)
        EXPECT_LE(day.gramsAt(order[i - 1]), day.gramsAt(order[i]));
    // The greenest hour is midday.
    EXPECT_EQ(order.front(), 12u);
}

TEST(Profiles, OutOfRangeSharesAreFatal)
{
    EXPECT_EXIT(IntensitySeries::solarDay(gramsPerKilowattHour(583.0),
                                          0.6),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(IntensitySeries::windDay(gramsPerKilowattHour(583.0),
                                         -0.1),
                ::testing::ExitedWithCode(1), "");
}

DailyLoad
referenceLoad()
{
    DailyLoad load;
    load.baseline = util::watts(100.0);
    load.deferrable_energy = util::kilowattHours(2.0);
    load.deferrable_capacity = util::watts(500.0);
    return load;
}

/** Deferrable-tier OPCF of the uniform schedule over the greedy one. */
double
greedySaving(const DailyLoad &load, const IntensitySeries &day)
{
    const auto uniform = schedule(load, day, policyByName("uniform"));
    const auto greedy = schedule(load, day, policyByName("greedy"));
    return util::asGrams(uniform.deferrable_footprint) /
           util::asGrams(greedy.deferrable_footprint);
}

TEST(Scheduling, UniformSpreadsEvenly)
{
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    const auto result =
        schedule(referenceLoad(), day, policyByName("uniform"));
    ASSERT_EQ(result.placement.size(), 24u);
    for (const auto &energy : result.placement) {
        EXPECT_NEAR(util::asKilowattHours(energy), 2.0 / 24.0, 1e-12);
    }
    // 2.4 kWh baseline + 2 kWh deferrable at 300 g/kWh.
    EXPECT_NEAR(util::asGrams(result.total()), (2.4 + 2.0) * 300.0,
                1e-6);
}

TEST(Scheduling, FlatProfileOffersNoSaving)
{
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_NEAR(greedySaving(referenceLoad(), day), 1.0, 1e-9);
}

TEST(Scheduling, CarbonAwarePlacesEnergyInGreenHours)
{
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    const auto result =
        schedule(referenceLoad(), day, policyByName("greedy"));

    // All deferrable energy lands somewhere.
    util::Energy placed{};
    for (const auto &energy : result.placement)
        placed += energy;
    EXPECT_NEAR(util::asKilowattHours(placed), 2.0, 1e-9);

    // Midday (greenest) saturates before night hours get anything.
    EXPECT_NEAR(util::asKilowattHours(result.placement[12]), 0.5,
                1e-9);  // 500 W x 1 h
    EXPECT_DOUBLE_EQ(util::asKilowattHours(result.placement[0]), 0.0);

    // And it beats the uniform schedule.
    const auto uniform =
        schedule(referenceLoad(), day, policyByName("uniform"));
    EXPECT_LT(util::asGrams(result.deferrable_footprint),
              util::asGrams(uniform.deferrable_footprint));
    EXPECT_DOUBLE_EQ(util::asGrams(result.baseline_footprint),
                     util::asGrams(uniform.baseline_footprint));
}

TEST(Scheduling, SavingGrowsWithRenewableShare)
{
    const auto base = gramsPerKilowattHour(583.0);
    double prev = 1.0;
    for (double share : {0.1, 0.2, 0.3, 0.4}) {
        const double saving = greedySaving(
            referenceLoad(), IntensitySeries::solarDay(base, share));
        EXPECT_GT(saving, prev) << share;
        prev = saving;
    }
}

TEST(Scheduling, CapacityConstraintEnforced)
{
    DailyLoad load = referenceLoad();
    load.deferrable_energy = util::kilowattHours(20.0);
    load.deferrable_capacity = util::watts(500.0);  // max 12 kWh/day
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_EXIT(schedule(load, day, policyByName("greedy")),
                ::testing::ExitedWithCode(1), "");
}

TEST(Scheduling, TightCapacityLimitsTheSaving)
{
    // With capacity exactly equal to uniform demand, the carbon-aware
    // schedule has no freedom and matches uniform.
    DailyLoad load = referenceLoad();
    load.deferrable_capacity =
        util::watts(1000.0 * 2.0 / 24.0);  // 2 kWh over 24 h exactly
    const auto day =
        IntensitySeries::solarDay(gramsPerKilowattHour(583.0), 0.25);
    EXPECT_NEAR(greedySaving(load, day), 1.0, 1e-9);
}

// ---------------------------------------------------------------------
// Policy API: names, deadline windows, cross-region migration, and
// multi-day series.
// ---------------------------------------------------------------------

TEST(Policies, NamesRoundTrip)
{
    EXPECT_EQ(policyByName("uniform").kind, DeferralPolicy::Uniform);
    EXPECT_EQ(policyByName("greedy").kind,
              DeferralPolicy::GreedyGreenest);
    EXPECT_EQ(policyByName("deadline").kind,
              DeferralPolicy::DeadlineBounded);
    EXPECT_GT(policyByName("deadline").deadline_samples, 0u);
    EXPECT_EQ(policyByName("migrate").kind,
              DeferralPolicy::GreenestRegion);
    EXPECT_EQ(policyName(DeferralPolicy::GreedyGreenest), "greedy");
}

TEST(Policies, DeadlineWindowInterpolatesUniformAndGreedy)
{
    const auto series = data::IntensitySeries::solarDay(
        gramsPerKilowattHour(583.0), 0.25);
    const auto uniform = schedule(referenceLoad(), series,
                                  policyByName("uniform"));
    const auto greedy =
        schedule(referenceLoad(), series, policyByName("greedy"));
    const auto deadline = schedule(
        referenceLoad(), series,
        {DeferralPolicy::DeadlineBounded, 6});
    // Bounded freedom lands between carbon-oblivious and unconstrained.
    EXPECT_LE(util::asGrams(deadline.deferrable_footprint),
              util::asGrams(uniform.deferrable_footprint));
    EXPECT_GE(util::asGrams(deadline.deferrable_footprint),
              util::asGrams(greedy.deferrable_footprint));
    // A whole-series window IS greedy.
    const auto wide = schedule(
        referenceLoad(), series,
        {DeferralPolicy::DeadlineBounded, series.size()});
    EXPECT_EQ(util::asGrams(wide.deferrable_footprint),
              util::asGrams(greedy.deferrable_footprint));
    // Every window conserves energy overall.
    util::Energy placed{};
    for (const auto &energy : deadline.placement)
        placed += energy;
    EXPECT_NEAR(util::asKilowattHours(placed), 2.0, 1e-9);
}

TEST(Policies, CrossRegionPrefersTheGreenerGrid)
{
    const std::vector<data::IntensitySeries> regions = {
        data::IntensitySeries::flat(gramsPerKilowattHour(583.0)),
        data::IntensitySeries::flat(gramsPerKilowattHour(28.0)),
    };
    const auto result = scheduleAcrossRegions(referenceLoad(), regions);
    // All deferrable energy migrates to the clean region...
    util::Energy home{}, away{};
    for (const auto &energy : result.placement[0])
        home += energy;
    for (const auto &energy : result.placement[1])
        away += energy;
    EXPECT_DOUBLE_EQ(util::asKilowattHours(home), 0.0);
    EXPECT_NEAR(util::asKilowattHours(away), 2.0, 1e-9);
    // ...while the baseline stays home.
    EXPECT_NEAR(util::asGrams(result.baseline_footprint),
                2.4 * 583.0, 1e-6);
}

TEST(Policies, SeriesScheduleScalesWithSpan)
{
    // A two-day series owes two days of deferrable energy.
    const auto day = data::IntensitySeries::solarDay(
        gramsPerKilowattHour(583.0), 0.25);
    const auto two_days = data::IntensitySeries::seasonal(day, 2, 0.0);
    const auto result =
        schedule(referenceLoad(), two_days, policyByName("greedy"));
    util::Energy placed{};
    for (const auto &energy : result.placement)
        placed += energy;
    EXPECT_NEAR(util::asKilowattHours(placed), 4.0, 1e-9);
}

// ---------------------------------------------------------------------
// Input validation
// ---------------------------------------------------------------------

class SchedulingDeathTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(SchedulingDeathTest, NegativeEnergyIsFatal)
{
    DailyLoad load = referenceLoad();
    load.deferrable_energy = util::kilowattHours(-1.0);
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_EXIT(schedule(load, day, policyByName("uniform")),
                ::testing::ExitedWithCode(1), "non-negative");
}

TEST_F(SchedulingDeathTest, NanEnergyIsFatal)
{
    DailyLoad load = referenceLoad();
    load.deferrable_energy =
        util::kilowattHours(std::numeric_limits<double>::quiet_NaN());
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_EXIT(schedule(load, day, policyByName("uniform")),
                ::testing::ExitedWithCode(1), "must be finite");
}

TEST_F(SchedulingDeathTest, NanBaselineIsFatal)
{
    DailyLoad load = referenceLoad();
    load.baseline =
        util::watts(std::numeric_limits<double>::quiet_NaN());
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_EXIT(schedule(load, day, policyByName("greedy")),
                ::testing::ExitedWithCode(1), "must be finite");
}

TEST_F(SchedulingDeathTest, ZeroCapacityWithEnergyIsFatal)
{
    DailyLoad load = referenceLoad();
    load.deferrable_capacity = util::watts(0.0);
    const auto day = IntensitySeries::flat(gramsPerKilowattHour(300));
    EXPECT_EXIT(schedule(load, day, policyByName("uniform")),
                ::testing::ExitedWithCode(1), "capacity is zero");
}

TEST_F(SchedulingDeathTest, EnergyBeyondDailyCapacityIsFatal)
{
    DailyLoad load = referenceLoad();
    load.deferrable_energy = util::kilowattHours(20.0);  // max 12 kWh
    const auto series = data::IntensitySeries::flat(
        gramsPerKilowattHour(300.0));
    EXPECT_EXIT(schedule(load, series, policyByName("greedy")),
                ::testing::ExitedWithCode(1), "exceeds the daily");
}

TEST_F(SchedulingDeathTest, ZeroDeadlineWindowIsFatal)
{
    const auto series = data::IntensitySeries::flat(
        gramsPerKilowattHour(300.0));
    EXPECT_EXIT(schedule(referenceLoad(), series,
                         {DeferralPolicy::DeadlineBounded, 0}),
                ::testing::ExitedWithCode(1), "deadline window");
}

TEST_F(SchedulingDeathTest, GreenestRegionNeedsTheMultiRegionApi)
{
    const auto series = data::IntensitySeries::flat(
        gramsPerKilowattHour(300.0));
    EXPECT_EXIT(schedule(referenceLoad(), series,
                         {DeferralPolicy::GreenestRegion, 0}),
                ::testing::ExitedWithCode(1), "scheduleAcrossRegions");
}

TEST_F(SchedulingDeathTest, MismatchedRegionSeriesAreFatal)
{
    const std::vector<data::IntensitySeries> regions = {
        data::IntensitySeries::flat(gramsPerKilowattHour(583.0), 24),
        data::IntensitySeries::flat(gramsPerKilowattHour(28.0), 48),
    };
    EXPECT_EXIT(scheduleAcrossRegions(referenceLoad(), regions),
                ::testing::ExitedWithCode(1), "share length");
}

} // namespace
} // namespace act::core
