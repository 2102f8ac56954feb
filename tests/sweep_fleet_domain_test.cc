/**
 * @file
 * Tests for the "fleet" sweep domain: the trace-driven job replay over
 * regional intensity series, its policy x region x lifetime scenario
 * grid, and the engine contract -- shards merge byte-identically to
 * the single-process run at any shard and thread count, because every
 * job seeds its own RNG stream from its index.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/replay.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/simd.h"

namespace act::sweep {
namespace {

/** A miniature examples/configs/sweep_fleet.json: all four policies
 *  over a dirty solar region and a clean flat one, small enough to
 *  replay in milliseconds but spanning several chunks. */
SweepPlan
fleetPlan()
{
    const std::string text = R"({
        "domain": "fleet",
        "items": 2000,
        "grain": 256,
        "seed": 42,
        "config": {
            "pue": 1.3,
            "lifetime_years": [4],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "deadline_samples": 6,
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 12}
        }
    })";
    SweepPlan plan = sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return plan;
}

class SweepFleetDomainTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setThreadCount(0);
        util::setSimdLevel(util::detectedSimdLevel());
    }
};

/** Every SIMD level this binary can safely execute. */
std::vector<util::SimdLevel>
availableSimdLevels()
{
    std::vector<util::SimdLevel> levels = {util::SimdLevel::Scalar};
    if (util::simdLevelAvailable(util::SimdLevel::Avx2))
        levels.push_back(util::SimdLevel::Avx2);
    return levels;
}

/** Build a resolved FleetSetup straight from plan JSON. */
fleet::FleetSetup
setupFromText(const std::string &text)
{
    SweepPlan plan = sweepPlanFromJson(config::JsonValue::parse(text));
    findDomain(plan.domain).prepare(plan);
    return fleet::fleetSetupFromJson(plan.config, plan.seed);
}

/** Require two replay results to agree in every last bit: EXPECT_EQ
 *  on the doubles, no tolerances (DESIGN.md §11). */
void
expectBitIdentical(const std::vector<fleet::FleetAccumulator> &actual,
                   const std::vector<fleet::FleetAccumulator> &expected,
                   const std::string &label)
{
    ASSERT_EQ(actual.size(), expected.size()) << label;
    for (std::size_t s = 0; s < actual.size(); ++s) {
        const fleet::FleetAccumulator &a = actual[s];
        const fleet::FleetAccumulator &e = expected[s];
        EXPECT_EQ(a.jobs, e.jobs) << label << " scenario " << s;
        EXPECT_EQ(a.deferred, e.deferred) << label << " scenario " << s;
        EXPECT_EQ(a.migrated, e.migrated) << label << " scenario " << s;
        EXPECT_EQ(a.operational_g, e.operational_g)
            << label << " scenario " << s;
        EXPECT_EQ(a.embodied_g, e.embodied_g)
            << label << " scenario " << s;
        EXPECT_EQ(a.energy_kwh, e.energy_kwh)
            << label << " scenario " << s;
        EXPECT_EQ(a.busy_hours, e.busy_hours)
            << label << " scenario " << s;
        EXPECT_EQ(a.baseline_g, e.baseline_g)
            << label << " scenario " << s;
    }
}

TEST_F(SweepFleetDomainTest, DomainIsRegistered)
{
    bool found = false;
    for (const std::string_view name : domainNames())
        found = found || name == "fleet";
    EXPECT_TRUE(found);
    EXPECT_FALSE(findDomain("fleet").description.empty());
}

TEST_F(SweepFleetDomainTest, PrepareKeepsTheGrainPinned)
{
    // The per-chunk accumulator sums make the chunk layout observable
    // in the last ulp, so prepare must honour a pinned grain and fill
    // an absolute (not thread-adaptive) default.
    EXPECT_EQ(fleetPlan().grain, 256u);

    SweepPlan defaulted = sweepPlanFromJson(config::JsonValue::parse(
        R"({"domain": "fleet", "config": {
            "regions": [{"profile": "flat", "region": "Iceland"}]}})"));
    findDomain(defaulted.domain).prepare(defaulted);
    EXPECT_EQ(defaulted.grain, 8192u);
    EXPECT_GT(defaulted.items, 0u);
}

TEST_F(SweepFleetDomainTest,
       ShardedMergeIsByteIdenticalToSingleProcess)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);

    util::setThreadCount(1);
    const std::string reference =
        fullSweepResult(plan, domain.evaluator(plan)).dump();

    for (const std::size_t threads : {1u, 2u, 7u}) {
        util::setThreadCount(threads);
        EXPECT_EQ(fullSweepResult(plan, domain.evaluator(plan)).dump(),
                  reference)
            << "single-process, " << threads << " threads";
        for (const std::size_t shard_count : {1u, 3u}) {
            std::vector<ShardResult> partials;
            for (std::size_t i = 0; i < shard_count; ++i) {
                // Round-trip every partial through its file format,
                // exactly as the multi-process path would.
                const ShardResult partial = runShardedSweep(
                    plan, {shard_count, i}, domain.evaluator(plan));
                partials.push_back(
                    shardResultFromJson(toJson(partial)));
            }
            EXPECT_EQ(mergeShards(partials).dump(), reference)
                << shard_count << " shards, " << threads
                << " threads";
        }
    }
}

TEST_F(SweepFleetDomainTest, PlacementGroupsMatchPerScenarioOracle)
{
    // A policy x region x lifetime grid with three lifetimes, so each
    // placement group fans out to several scenarios; the batched
    // replayJobs() must match the retained per-scenario scalar oracle
    // bit-for-bit at every SIMD level, over block-ragged ranges
    // (1500 = 2 x 512 + 476) and a mid-stream offset.
    const fleet::FleetSetup setup = setupFromText(R"({
        "domain": "fleet",
        "items": 1500,
        "seed": 42,
        "config": {
            "pue": 1.3,
            "lifetime_years": [2, 4, 6],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "deadline_samples": 6,
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 12}
        }
    })");
    ASSERT_EQ(setup.scenarios.size(), 24u);

    const util::IndexRange ranges[] = {{0, 1500}, {237, 749},
                                       {1499, 1500}};
    for (const util::IndexRange range : ranges) {
        const std::vector<fleet::FleetAccumulator> expected =
            fleet::replayJobsOracle(setup, range);
        for (const util::SimdLevel level : availableSimdLevels()) {
            util::setSimdLevel(level);
            expectBitIdentical(
                fleet::replayJobs(setup, range), expected,
                std::string(util::simdLevelName(level)) + " range [" +
                    std::to_string(range.begin) + ", " +
                    std::to_string(range.end) + ")");
        }
        util::setSimdLevel(util::detectedSimdLevel());
    }
}

TEST_F(SweepFleetDomainTest, ZeroSlackStreamMatchesOracle)
{
    // max_slack_hours 0 collapses every shift window to width one
    // (the batched fast path: no argmin at all); migration across
    // regions at shift 0 must still match the oracle exactly.
    const fleet::FleetSetup setup = setupFromText(R"({
        "domain": "fleet",
        "items": 800,
        "seed": 7,
        "config": {
            "lifetime_years": [3, 5],
            "policies": ["uniform", "greedy", "deadline", "migrate"],
            "regions": [
                {"name": "tw-solar", "profile": "solar",
                 "region": "Taiwan", "share": 0.25},
                {"name": "is-flat", "profile": "flat",
                 "region": "Iceland"}
            ],
            "jobs": {"horizon_hours": 48, "max_slack_hours": 0}
        }
    })");
    const std::vector<fleet::FleetAccumulator> expected =
        fleet::replayJobsOracle(setup, {0, 800});
    for (const util::SimdLevel level : availableSimdLevels()) {
        util::setSimdLevel(level);
        expectBitIdentical(fleet::replayJobs(setup, {0, 800}),
                           expected,
                           std::string("zero-slack ") +
                               util::simdLevelName(level));
    }
}

TEST_F(SweepFleetDomainTest, MergedTotalsCoverEveryJobOnce)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::vector<fleet::FleetAccumulator> totals =
        fleetResultFromPayloads(plan, doc.at("results").asArray());

    // 4 policies x 2 regions x 1 lifetime.
    ASSERT_EQ(totals.size(), 8u);
    for (const fleet::FleetAccumulator &acc : totals) {
        EXPECT_EQ(acc.jobs, plan.items);
        EXPECT_LE(acc.deferred, acc.jobs);
        EXPECT_LE(acc.migrated, acc.jobs);
        EXPECT_GT(acc.operational_g, 0.0);
        EXPECT_GT(acc.embodied_g, 0.0);
        EXPECT_GT(acc.energy_kwh, 0.0);
        EXPECT_GT(acc.busy_hours, 0.0);
        // The counterfactual never beats the chosen placement.
        EXPECT_LE(acc.operational_g, acc.baseline_g);
    }
}

TEST_F(SweepFleetDomainTest, PoliciesBehaveAsDocumented)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::vector<fleet::FleetAccumulator> totals =
        fleetResultFromPayloads(plan, doc.at("results").asArray());
    const fleet::FleetSetup setup =
        fleet::fleetSetupFromJson(plan.config, plan.seed);
    ASSERT_EQ(setup.scenarios.size(), totals.size());

    for (std::size_t s = 0; s < totals.size(); ++s) {
        const fleet::FleetAccumulator &acc = totals[s];
        switch (setup.scenarios[s].policy.kind) {
        case core::DeferralPolicy::Uniform:
            // Carbon-oblivious: nothing moves.
            EXPECT_EQ(acc.deferred, 0u);
            EXPECT_EQ(acc.migrated, 0u);
            EXPECT_EQ(acc.operational_g, acc.baseline_g);
            break;
        case core::DeferralPolicy::GreedyGreenest:
        case core::DeferralPolicy::DeadlineBounded:
            // Time shifting only, never region shifting.
            EXPECT_EQ(acc.migrated, 0u);
            break;
        case core::DeferralPolicy::GreenestRegion:
            break;
        }
    }

    // On the flat grid there is nothing to gain from time shifting:
    // greedy@is-flat equals uniform@is-flat grams exactly.
    double uniform_flat = -1.0, greedy_flat = -1.0;
    for (std::size_t s = 0; s < totals.size(); ++s) {
        if (setup.scenarios[s].label == "uniform@is-flat/4.00y")
            uniform_flat = totals[s].operational_g;
        if (setup.scenarios[s].label == "greedy@is-flat/4.00y")
            greedy_flat = totals[s].operational_g;
    }
    ASSERT_GE(uniform_flat, 0.0);
    EXPECT_EQ(greedy_flat, uniform_flat);
}

TEST_F(SweepFleetDomainTest, SummarizeListsEveryScenario)
{
    const SweepPlan plan = fleetPlan();
    const Domain &domain = findDomain(plan.domain);
    const config::JsonValue doc =
        fullSweepResult(plan, domain.evaluator(plan));
    const std::string summary =
        domain.summarize(plan, doc.at("results").asArray());
    EXPECT_NE(summary.find("fleet replay, 2000 jobs x 8 scenarios"),
              std::string::npos)
        << summary;
    EXPECT_NE(summary.find("uniform@tw-solar/4.00y"),
              std::string::npos);
    EXPECT_NE(summary.find("migrate@is-flat/4.00y"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

class SweepFleetDeathTest : public SweepFleetDomainTest
{
  protected:
    void
    SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }

    static void
    prepareText(const std::string &text)
    {
        SweepPlan plan =
            sweepPlanFromJson(config::JsonValue::parse(text));
        findDomain(plan.domain).prepare(plan);
    }
};

TEST_F(SweepFleetDeathTest, MissingRegionsIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {}})"),
                ::testing::ExitedWithCode(1), "'regions'");
}

TEST_F(SweepFleetDeathTest, SubUnityPueIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "pue": 0.5, "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1), "'pue' must be >= 1");
}

TEST_F(SweepFleetDeathTest, MismatchedRegionSeriesAreFatal)
{
    EXPECT_EXIT(
        prepareText(R"({"domain": "fleet", "config": {"regions": [
            {"profile": "flat", "region": "Iceland"},
            {"profile": "flat", "region": "Taiwan", "days": 2}]}})"),
        ::testing::ExitedWithCode(1), "share series length");
}

TEST_F(SweepFleetDeathTest, UnknownPolicyIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "policies": ["psychic"], "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1), "policy");
}

TEST_F(SweepFleetDeathTest, NonPositiveLifetimeIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "lifetime_years": [0], "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1), "lifetime_years");
}

TEST_F(SweepFleetDeathTest, NonPositiveDeadlineSamplesIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "deadline_samples": -3, "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1),
                "'deadline_samples' must be a positive integer");
}

TEST_F(SweepFleetDeathTest, FractionalDeadlineSamplesIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "deadline_samples": 2.5, "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1),
                "'deadline_samples' must be a positive integer");
}

TEST_F(SweepFleetDeathTest, MalformedJobStreamIsFatal)
{
    EXPECT_EXIT(prepareText(R"({"domain": "fleet", "config": {
                    "jobs": {"horizon_hours": -1}, "regions": [
                        {"profile": "flat", "region": "Iceland"}]}})"),
                ::testing::ExitedWithCode(1), "horizon_hours");
}

} // namespace
} // namespace act::sweep
