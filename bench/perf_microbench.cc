/**
 * @file
 * google-benchmark microbenchmarks for the model-evaluation hot paths:
 * CPA computation, device evaluation, the NPU simulator, the FTL simulator,
 * and the design-space sweeps at 1/4/8 worker threads (serial vs the
 * util/parallel pool). These bound the cost of embedding ACT inside
 * larger design-space-exploration loops.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "accel/design_space.h"
#include "config/json.h"
#include "core/embodied.h"
#include "core/eval_plan.h"
#include "dse/montecarlo.h"
#include "dse/scoreboard.h"
#include "fleet/replay.h"
#include "mobile/platform.h"
#include "pkg/pkg_plan.h"
#include "ssd/ftl_sim.h"
#include "sweep/domains.h"
#include "sweep/engine.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/simd.h"

namespace {

using namespace act;

/** The Eq. 5 closed form over the 26-node working set; also the
 *  calibration kernel of tools/check_bench_regression.py. */
void
BM_CarbonPerArea(benchmark::State &state)
{
    const core::FabParams fab;
    double nm = 3.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::carbonPerArea(fab, nm));
        nm = nm >= 28.0 ? 3.0 : nm + 1.0;
    }
}
BENCHMARK(BM_CarbonPerArea);

void
BM_DeviceEvaluation(benchmark::State &state)
{
    const core::EmbodiedModel model;
    const auto device =
        data::DeviceDatabase::instance().byNameOrDie("iPhone 11");
    for (auto _ : state)
        benchmark::DoNotOptimize(model.evaluate(device));
}
BENCHMARK(BM_DeviceEvaluation);

/** Full Fig. 8 sweep + scoreboard at 1/4/8 worker threads. */
void
BM_MobileDesignSpace(benchmark::State &state)
{
    util::setThreadCount(static_cast<std::size_t>(state.range(0)));
    const core::FabParams fab;
    for (auto _ : state) {
        const auto space = mobile::mobileDesignSpace(fab);
        const dse::Scoreboard scoreboard(space);
        benchmark::DoNotOptimize(
            scoreboard.winner(core::Metric::C2EP));
    }
    util::setThreadCount(0);
}
BENCHMARK(BM_MobileDesignSpace)->Arg(1)->Arg(4)->Arg(8);

/** Eq. 5 Monte Carlo (Table 1 uncertainty) at 1/4/8 worker threads. */
void
BM_MonteCarlo(benchmark::State &state)
{
    util::setThreadCount(static_cast<std::size_t>(state.range(0)));
    const std::vector<dse::UncertainParameter> parameters = {
        {"ci_fab", dse::Distribution::Triangular, 447.5, 41.0, 583.0},
        {"epa", dse::Distribution::Triangular, 1.52, 1.216, 1.824},
        {"gpa", dse::Distribution::Uniform, 275.0, 200.0, 350.0},
        {"mpa", dse::Distribution::Uniform, 500.0, 400.0, 600.0},
        {"yield", dse::Distribution::Triangular, 0.875, 0.6, 0.95},
    };
    for (auto _ : state) {
        const auto result = dse::monteCarlo(
            parameters,
            [](const std::vector<double> &v) {
                return (v[0] * v[1] + v[2] + v[3]) / v[4];
            },
            100'000);
        benchmark::DoNotOptimize(result.p95);
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
    util::setThreadCount(0);
}
BENCHMARK(BM_MonteCarlo)->Arg(1)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** The cpa_montecarlo sweep shape: Eq. 5 at 7 nm with uncertain
 *  ci_fab / yield / abatement, shared by the scalar-vs-batch pair
 *  below so the two benchmarks evaluate the same model. */
const std::vector<dse::UncertainParameter> &
cpaMcParameters()
{
    static const std::vector<dse::UncertainParameter> parameters = {
        {"ci_fab_g_per_kwh", dse::Distribution::Uniform, 365.0, 30.0,
         700.0},
        {"yield", dse::Distribution::Triangular, 0.875, 0.8, 0.95},
        {"abatement", dse::Distribution::Uniform, 0.95, 0.90, 1.0},
    };
    return parameters;
}

/**
 * Scalar closure baseline: per sample, copy FabParams, re-resolve the
 * node curves, recompute Eq. 5 through core::carbonPerArea.
 */
void
BM_MonteCarloCpaScalar(benchmark::State &state)
{
    util::setThreadCount(1);
    const auto &parameters = cpaMcParameters();
    for (auto _ : state) {
        const auto result = dse::monteCarlo(
            parameters,
            [](const std::vector<double> &v) {
                core::FabParams fab;
                fab.ci_fab = util::gramsPerKilowattHour(v[0]);
                fab.yield = v[1];
                fab.abatement = v[2];
                return core::carbonPerArea(fab, 7.0).value();
            },
            100'000);
        benchmark::DoNotOptimize(result.p95);
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
    util::setThreadCount(0);
}
BENCHMARK(BM_MonteCarloCpaScalar)->Unit(benchmark::kMillisecond);

/** The same sweep through the compiled plan + SoA batch kernel
 *  (bit-identical results; the acceptance target is >= 3x the scalar
 *  closure's single-core throughput). */
void
BM_MonteCarloBatch(benchmark::State &state)
{
    util::setThreadCount(1);
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);
    const auto &parameters = cpaMcParameters();
    for (auto _ : state) {
        const auto result =
            dse::monteCarloBatch(parameters, plan, 100'000);
        benchmark::DoNotOptimize(result.p95);
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
    util::setThreadCount(0);
}
BENCHMARK(BM_MonteCarloBatch)->Unit(benchmark::kMillisecond);

/** Force a dispatch level for one benchmark, or skip when the host
 *  cannot run it. True when the level was installed. */
bool
forceLevelOrSkip(benchmark::State &state, util::SimdLevel level)
{
    if (!util::simdLevelAvailable(level)) {
        state.SkipWithError("SIMD level unavailable on this host");
        return false;
    }
    util::setSimdLevel(level);
    return true;
}

/** EvalPlan::evaluateBatch over 100k samples (validation included)
 *  at a forced dispatch level. */
void
BM_EvalBatchSimd(benchmark::State &state, util::SimdLevel level)
{
    if (!forceLevelOrSkip(state, level))
        return;
    constexpr std::size_t kSamples = 100'000;
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);

    std::vector<double> ci(kSamples), yield(kSamples),
        abatement(kSamples), outputs(kSamples);
    util::Xorshift64Star rng(7);
    for (std::size_t s = 0; s < kSamples; ++s) {
        ci[s] = rng.nextUniform(365.0, 700.0);
        yield[s] = rng.nextUniform(0.8, 0.95);
        abatement[s] = rng.nextUniform(0.90, 1.0);
    }
    const double *inputs[3] = {ci.data(), yield.data(),
                               abatement.data()};
    for (auto _ : state) {
        plan.evaluateBatch(kSamples, inputs, outputs.data());
        benchmark::DoNotOptimize(outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSamples));
    util::setSimdLevel(util::detectedSimdLevel());
}
BENCHMARK_CAPTURE(BM_EvalBatchSimd, scalar, util::SimdLevel::Scalar);
BENCHMARK_CAPTURE(BM_EvalBatchSimd, avx2, util::SimdLevel::Avx2);

/** BM_MonteCarloBatch's sweep pinned to a dispatch level: the
 *  scalar/avx2 spread is the SIMD speedup on this host, with
 *  results bit-identical across the two by contract. */
void
BM_MonteCarloBatchSimd(benchmark::State &state, util::SimdLevel level)
{
    if (!forceLevelOrSkip(state, level))
        return;
    util::setThreadCount(1);
    const core::FabParams fab;
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab, core::EvalInput::Yield,
        core::EvalInput::Abatement};
    const core::EvalPlan plan =
        core::EvalPlan::forNode(fab, 7.0, bindings);
    const auto &parameters = cpaMcParameters();
    for (auto _ : state) {
        const auto result =
            dse::monteCarloBatch(parameters, plan, 100'000);
        benchmark::DoNotOptimize(result.p95);
    }
    state.SetItemsProcessed(state.iterations() * 100'000);
    util::setThreadCount(0);
    util::setSimdLevel(util::detectedSimdLevel());
}
BENCHMARK_CAPTURE(BM_MonteCarloBatchSimd, scalar,
                  util::SimdLevel::Scalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_MonteCarloBatchSimd, avx2, util::SimdLevel::Avx2)
    ->Unit(benchmark::kMillisecond);

/** Compiled package evaluation over a 100k fab-CI scenario column:
 *  a heterogeneous 2.5D package (two 5 nm compute dies, one mature
 *  I/O die, two cache dies, silicon interposer) through
 *  pkg::PackagePlan::evaluateBatch. Bounds the cost of sweeping
 *  packaging choices inside DSE loops. */
void
BM_PackageEvalBatch(benchmark::State &state)
{
    constexpr std::size_t kSamples = 100'000;
    pkg::PackageSpec spec =
        pkg::PackageSpec::forStyle(pkg::PackagingStyle::SiliconInterposer);
    const core::DefectParams leading{
        0.12, 3.0, core::YieldModel::NegativeBinomial};
    const core::DefectParams mature{
        0.08, 2.0, core::YieldModel::NegativeBinomial};
    spec.chiplets.push_back(
        {"compute", util::squareMillimeters(150.0), 5.0, leading, 2});
    spec.chiplets.push_back(
        {"io", util::squareMillimeters(90.0), 28.0, mature, 1});
    spec.chiplets.push_back(
        {"cache", util::squareMillimeters(60.0), 14.0, leading, 2});
    const std::vector<core::EvalInput> bindings = {
        core::EvalInput::CiFab};
    const pkg::PackagePlan plan =
        pkg::PackagePlan::compile(spec, core::FabParams{}, bindings);

    std::vector<double> ci(kSamples), outputs(kSamples),
        scratch(kSamples);
    util::Xorshift64Star rng(7);
    for (std::size_t s = 0; s < kSamples; ++s)
        ci[s] = rng.nextUniform(30.0, 700.0);
    const double *inputs[1] = {ci.data()};
    for (auto _ : state) {
        plan.evaluateBatch(kSamples, inputs, outputs.data(),
                           scratch.data());
        benchmark::DoNotOptimize(outputs.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSamples));
}
BENCHMARK(BM_PackageEvalBatch);

/** Fig. 12-class NPU design-space walk across nodes, 1/4/8 threads. */
void
BM_NpuDesignSpaceWalk(benchmark::State &state)
{
    util::setThreadCount(static_cast<std::size_t>(state.range(0)));
    const accel::NpuModel model;
    const core::FabParams fab;
    for (auto _ : state) {
        double total = 0.0;
        for (double node : {28.0, 20.0, 16.0, 10.0, 7.0, 5.0, 3.0}) {
            for (const auto &entry :
                 accel::sweepDesignSpace(model, node, fab))
                total += entry.embodied.value();
        }
        benchmark::DoNotOptimize(total);
    }
    util::setThreadCount(0);
}
BENCHMARK(BM_NpuDesignSpaceWalk)->Arg(1)->Arg(4)->Arg(8);

void
BM_NpuEvaluation(benchmark::State &state)
{
    const accel::NpuModel model;
    const accel::Network &network = accel::referenceVisionNetwork();
    const int macs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            model.evaluate(network, {macs, 16.0}));
    }
}
BENCHMARK(BM_NpuEvaluation)->Arg(64)->Arg(512)->Arg(2048);

/**
 * Trace-driven fleet replay: 10k synthetic jobs placed under four
 * deferral policies across a seasonal solar region and a flat clean
 * one (8 scenarios -- one year of hourly samples). items/s counts job
 * placements (jobs x scenarios); the sweep acceptance floor is
 * >= 1M placements/s single-core.
 */
fleet::FleetSetup
fleetBenchSetup()
{
    const auto config = config::JsonValue::parse(R"({
        "pue": 1.3,
        "lifetime_years": [4],
        "policies": ["uniform", "greedy", "deadline", "migrate"],
        "regions": [
            {"name": "tw-solar", "profile": "solar",
             "region": "Taiwan", "share": 0.25, "days": 365,
             "seasonal_amplitude": 0.15},
            {"name": "is-flat", "profile": "flat",
             "region": "Iceland", "days": 365}
        ],
        "jobs": {"horizon_hours": 8760}
    })");
    return fleet::fleetSetupFromJson(config, 42);
}

void
BM_FleetReplay(benchmark::State &state)
{
    constexpr std::size_t kJobs = 10'000;
    const fleet::FleetSetup setup = fleetBenchSetup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fleet::replayJobs(setup, {0, kJobs}));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kJobs * setup.scenarios.size()));
}
BENCHMARK(BM_FleetReplay)->Unit(benchmark::kMillisecond);

/** The same replay pinned to one dispatch level, so the perf gate
 *  can track the scalar tier independently of the host's best
 *  level. */
void
BM_FleetReplaySimd(benchmark::State &state, util::SimdLevel level)
{
    if (!forceLevelOrSkip(state, level))
        return;
    constexpr std::size_t kJobs = 10'000;
    const fleet::FleetSetup setup = fleetBenchSetup();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            fleet::replayJobs(setup, {0, kJobs}));
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(kJobs * setup.scenarios.size()));
    util::setSimdLevel(util::detectedSimdLevel());
}
BENCHMARK_CAPTURE(BM_FleetReplaySimd, scalar, util::SimdLevel::Scalar)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FleetReplaySimd, avx2, util::SimdLevel::Avx2)
    ->Unit(benchmark::kMillisecond);

/** SoA job-block generation alone (the replay's front half): 100k
 *  jobs in 512-job blocks, bit-identical to 100k jobAt() calls. */
void
BM_JobStreamBlock(benchmark::State &state)
{
    constexpr std::size_t kJobs = 100'000;
    constexpr std::size_t kBlock = 512;
    fleet::JobStreamParams params;
    params.horizon_hours = 8760.0;
    fleet::JobBlock block;
    for (auto _ : state) {
        double total = 0.0;
        for (std::size_t first = 0; first < kJobs; first += kBlock) {
            const std::size_t count =
                std::min(kBlock, kJobs - first);
            fleet::jobBlockAt(params, first, count, block);
            total += block.duration_hours[count - 1];
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kJobs));
}
BENCHMARK(BM_JobStreamBlock)->Unit(benchmark::kMillisecond);

void
BM_FtlSimulator(benchmark::State &state)
{
    ssd::FtlConfig config;
    config.num_blocks = 128;
    config.pages_per_block = 32;
    config.over_provision = 0.16;
    config.user_writes = static_cast<std::uint64_t>(state.range(0));
    for (auto _ : state) {
        ssd::FtlSimulator simulator(config);
        benchmark::DoNotOptimize(simulator.run());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(state.range(0)));
}
BENCHMARK(BM_FtlSimulator)->Arg(10000)->Arg(100000);

/**
 * The serialize layer of the sharded Monte Carlo workload:
 * saveJsonFile() of one shard's partial -- shard 0 of 3 of a
 * 1M-sample cpa_montecarlo plan, 163 chunks x 2048 samples (~9 MB of
 * JSON) -- to a temporary file.
 */
void
BM_JsonSaveMcPartial(benchmark::State &state)
{
    sweep::SweepPlan plan = sweep::sweepPlanFromJson(
        config::JsonValue::parse(R"({
            "domain": "cpa_montecarlo", "items": 1000000, "seed": 42,
            "config": {"node_nm": 14, "parameters": [
                {"name": "ci_fab_g_per_kwh", "distribution": "uniform",
                 "low": 30, "high": 700},
                {"name": "yield", "distribution": "triangular",
                 "low": 0.8, "baseline": 0.875, "high": 0.95},
                {"name": "abatement", "distribution": "uniform",
                 "low": 0.9, "high": 1.0}]}})"));
    const sweep::Domain &domain = sweep::findDomain(plan.domain);
    domain.prepare(plan);
    sweep::ShardSpec shard;
    shard.shard_count = 3;
    const config::JsonValue partial = sweep::toJson(
        sweep::runShardedSweep(plan, shard, domain.evaluator(plan)));

    const std::string path = (std::filesystem::temp_directory_path() /
                              "act_bench_mc_partial.json")
                                 .string();
    for (auto _ : state)
        config::saveJsonFile(path, partial);
    std::filesystem::remove(path);
    state.SetItemsProcessed(state.iterations() * 163 * 2048);
}
BENCHMARK(BM_JsonSaveMcPartial)->Unit(benchmark::kMillisecond);

/**
 * The usual console output plus a machine-readable BENCH_results.json
 * (name, wall ns/iter, CPU ns/iter, iterations) so the perf trajectory
 * can be tracked across PRs. Path override: ACT_BENCH_JSON.
 */
class JsonEmittingReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        for (const Run &run : runs) {
            if (run.error_occurred ||
                run.run_type != Run::RT_Iteration ||
                run.iterations == 0) {
                continue;
            }
            const double iterations =
                static_cast<double>(run.iterations);
            config::JsonObject entry;
            entry["name"] = run.benchmark_name();
            entry["iterations"] = iterations;
            entry["real_time_ns"] =
                run.real_accumulated_time * 1e9 / iterations;
            entry["cpu_time_ns"] =
                run.cpu_accumulated_time * 1e9 / iterations;
            results_.emplace_back(std::move(entry));
        }
    }

    config::JsonArray
    takeResults()
    {
        return std::move(results_);
    }

  private:
    config::JsonArray results_;
};

#ifndef ACT_GIT_SHA
#define ACT_GIT_SHA "unknown"
#endif

/**
 * The run's provenance stamp: numbers from a different machine, SIMD
 * dispatch level, commit, or thread setting are not comparable, and
 * check_bench_regression.py warns when baseline and candidate stamps
 * disagree.
 */
config::JsonValue
provenance()
{
    std::string hostname = "unknown";
#if defined(__unix__) || defined(__APPLE__)
    char buffer[256] = {};
    if (gethostname(buffer, sizeof(buffer) - 1) == 0 &&
        buffer[0] != '\0') {
        hostname = buffer;
    }
#endif
    const char *threads = std::getenv("ACT_THREADS");
    config::JsonObject stamp;
    stamp["git_sha"] = config::JsonValue(ACT_GIT_SHA);
    stamp["simd_level"] = config::JsonValue(
        util::simdLevelName(util::simdLevel()));
    stamp["act_threads"] = config::JsonValue(
        threads != nullptr && *threads != '\0' ? threads : "auto");
    stamp["hostname"] = config::JsonValue(std::move(hostname));
    return config::JsonValue(std::move(stamp));
}

} // namespace

int
main(int argc, char **argv)
{
    // Capture the stamp before any benchmark forces a SIMD level; this
    // is what runtime dispatch actually selected on this host.
    const act::config::JsonValue stamp = provenance();

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    JsonEmittingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    const char *env = std::getenv("ACT_BENCH_JSON");
    const std::string path =
        env != nullptr && *env != '\0' ? env : "BENCH_results.json";
    act::config::JsonObject root;
    root["provenance"] = stamp;
    root["benchmarks"] = act::config::JsonValue(reporter.takeResults());
    act::config::saveJsonFile(path, act::config::JsonValue(
                                        std::move(root)));
    std::cout << "wrote " << path << "\n";

    benchmark::Shutdown();
    return 0;
}
