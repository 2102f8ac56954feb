/**
 * @file
 * Tests for the batched Monte Carlo / tornado paths: the compiled
 * batch kernel must be *bit-identical* to the scalar closure path --
 * every statistic, at every thread count and shard count. The scalar
 * path stays in the tree precisely to serve as this oracle.
 */

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/embodied.h"
#include "core/eval_plan.h"
#include "core/fab_params.h"
#include "dse/montecarlo.h"
#include "dse/sensitivity.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/simd.h"
#include "util/units.h"

namespace act::dse {
namespace {

class DseBatchTest : public ::testing::Test
{
  protected:
    void
    TearDown() override
    {
        util::setThreadCount(0);
        util::setSimdLevel(util::detectedSimdLevel());
    }
};

void
expectSameResult(const MonteCarloResult &batched,
                 const MonteCarloResult &scalar)
{
    EXPECT_EQ(batched.samples, scalar.samples);
    EXPECT_EQ(batched.mean, scalar.mean);
    EXPECT_EQ(batched.stddev, scalar.stddev);
    EXPECT_EQ(batched.p5, scalar.p5);
    EXPECT_EQ(batched.p50, scalar.p50);
    EXPECT_EQ(batched.p95, scalar.p95);
    EXPECT_EQ(batched.min, scalar.min);
    EXPECT_EQ(batched.max, scalar.max);
}

/** The Table 1 fab uncertainties at a fixed node. */
std::vector<UncertainParameter>
nodeParameters()
{
    return {
        {"ci_fab", Distribution::Uniform, 365.0, 30.0, 700.0},
        {"yield", Distribution::Triangular, 0.875, 0.8, 0.95},
        {"abatement", Distribution::Uniform, 0.95, 0.9, 1.0},
    };
}

TEST_F(DseBatchTest, NodePlanMatchesScalarClosureAcrossThreadCounts)
{
    const std::vector<UncertainParameter> parameters =
        nodeParameters();
    const auto closure = [](const std::vector<double> &values) {
        core::FabParams fab;
        fab.ci_fab = util::gramsPerKilowattHour(values[0]);
        fab.yield = values[1];
        fab.abatement = values[2];
        return core::carbonPerArea(fab, 7.0).value();
    };
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);

    // 10k samples = 5 chunks: enough to exercise chunk boundaries and
    // the partial-merge order at several pool widths.
    util::setThreadCount(1);
    const MonteCarloResult reference =
        monteCarlo(parameters, closure, 10'000, 42);
    for (const std::size_t threads : {1u, 2u, 7u}) {
        util::setThreadCount(threads);
        expectSameResult(monteCarloBatch(parameters, plan, 10'000, 42),
                         reference);
        // The scalar path itself must also be thread-count invariant.
        expectSameResult(monteCarlo(parameters, closure, 10'000, 42),
                         reference);
    }
}

TEST_F(DseBatchTest, EveryDispatchLevelMatchesScalarOracle)
{
    // The batch == scalar matrix under each forced SIMD level: the
    // dispatch level must never change a statistic, at any thread
    // count (DESIGN.md §11). The scalar oracle runs at the scalar
    // level so it cannot share vector kernels with the path under
    // test.
    const std::vector<UncertainParameter> parameters =
        nodeParameters();
    const auto closure = [](const std::vector<double> &values) {
        core::FabParams fab;
        fab.ci_fab = util::gramsPerKilowattHour(values[0]);
        fab.yield = values[1];
        fab.abatement = values[2];
        return core::carbonPerArea(fab, 7.0).value();
    };
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);

    util::setThreadCount(1);
    util::setSimdLevel(util::SimdLevel::Scalar);
    const MonteCarloResult reference =
        monteCarlo(parameters, closure, 10'000, 42);

    for (const auto level :
         {util::SimdLevel::Scalar, util::SimdLevel::Avx2}) {
        if (!util::simdLevelAvailable(level))
            continue;
        util::setSimdLevel(level);
        for (const std::size_t threads : {1u, 2u, 7u}) {
            util::setThreadCount(threads);
            expectSameResult(
                monteCarloBatch(parameters, plan, 10'000, 42),
                reference);
        }
    }
}

TEST_F(DseBatchTest, RawPlanMatchesScalarFormula)
{
    // The generic five-term Eq. 5 uncertainty study (all terms
    // sampled, nothing database-resolved).
    const std::vector<UncertainParameter> parameters = {
        {"ci_fab", Distribution::Triangular, 447.5, 41.0, 583.0},
        {"epa", Distribution::Triangular, 1.52, 1.52 * 0.8,
         1.52 * 1.2},
        {"gpa", Distribution::Uniform, 275.0, 200.0, 350.0},
        {"mpa", Distribution::Uniform, 500.0, 400.0, 600.0},
        {"yield", Distribution::Triangular, 0.875, 0.6, 0.95},
    };
    const auto closure = [](const std::vector<double> &v) {
        return (v[0] * v[1] + v[2] + v[3]) / v[4];
    };
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Epa,
        core::EvalInput::Gpa, core::EvalInput::Mpa,
        core::EvalInput::Yield};
    const core::EvalPlan plan = core::EvalPlan::forRawCpa(
        {447.5, 1.52, 275.0, 500.0, 0.875}, bindings);

    expectSameResult(monteCarloBatch(parameters, plan, 10'000, 7),
                     monteCarlo(parameters, closure, 10'000, 7));
}

TEST_F(DseBatchTest, ShardedDomainMatchesScalarOracle)
{
    // The cpa_montecarlo domain runs the compiled batch kernel; a
    // sharded multi-process sweep, merged, must agree bit-for-bit
    // with dse::monteCarlo over the exported scalar oracle.
    const std::string text = R"({
        "domain": "cpa_montecarlo",
        "items": 10000,
        "seed": 42,
        "config": {
            "node_nm": 7,
            "parameters": [
                {"name": "ci_fab_g_per_kwh", "distribution": "uniform",
                 "low": 30, "high": 700},
                {"name": "yield", "distribution": "triangular",
                 "low": 0.8, "baseline": 0.875, "high": 0.95},
                {"name": "abatement", "distribution": "uniform",
                 "low": 0.9, "high": 1.0}
            ]
        }
    })";
    sweep::SweepPlan plan = sweep::sweepPlanFromJson(
        config::JsonValue::parse(text));
    const sweep::Domain &domain = sweep::findDomain(plan.domain);
    domain.prepare(plan);

    util::setThreadCount(1);
    const MonteCarloResult reference = monteCarlo(
        sweep::cpaMonteCarloParameters(plan),
        sweep::cpaMonteCarloScalarModel(plan), plan.items, plan.seed);

    for (const std::size_t threads : {1u, 2u, 7u}) {
        util::setThreadCount(threads);
        for (const std::size_t shards : {1u, 3u}) {
            std::vector<sweep::ShardResult> partials;
            for (std::size_t i = 0; i < shards; ++i) {
                partials.push_back(sweep::runShardedSweep(
                    plan, {shards, i}, domain.evaluator(plan)));
            }
            const config::JsonValue merged =
                sweep::mergeShards(partials);
            expectSameResult(
                sweep::monteCarloResultFromPayloads(
                    plan.items, merged.at("results").asArray()),
                reference);
        }
    }
}

TEST_F(DseBatchTest, TornadoPlanOverloadMatchesClosure)
{
    const std::vector<ParameterRange> ranges = {
        {"ci_fab", 365.0, 30.0, 700.0},
        {"yield", 0.875, 0.8, 0.95},
        {"abatement", 0.95, 0.9, 1.0},
    };
    const auto closure = [](const std::vector<double> &values) {
        core::FabParams fab;
        fab.ci_fab = util::gramsPerKilowattHour(values[0]);
        fab.yield = values[1];
        fab.abatement = values[2];
        return core::carbonPerArea(fab, 14.0).value();
    };
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 14.0, bindings);

    const auto expected = tornado(ranges, closure);
    const auto batched = tornado(ranges, plan);
    ASSERT_EQ(batched.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(batched[i].name, expected[i].name) << i;
        EXPECT_EQ(batched[i].output_low, expected[i].output_low) << i;
        EXPECT_EQ(batched[i].output_high, expected[i].output_high)
            << i;
    }
}

TEST_F(DseBatchTest, MismatchedPlanInputCountIsFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);
    const std::vector<UncertainParameter> two = {
        {"ci_fab", Distribution::Uniform, 365.0, 30.0, 700.0},
        {"yield", Distribution::Triangular, 0.875, 0.8, 0.95},
    };
    EXPECT_EXIT(monteCarloBatch(two, plan, 1'000, 1),
                ::testing::ExitedWithCode(1), "");
    const std::vector<ParameterRange> ranges = {
        {"ci_fab", 365.0, 30.0, 700.0},
        {"yield", 0.875, 0.8, 0.95},
    };
    EXPECT_EXIT(tornado(ranges, plan), ::testing::ExitedWithCode(1),
                "");
}

} // namespace
} // namespace act::dse
