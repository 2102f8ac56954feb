#include "sweep/domains.h"

#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#include "accel/design_space.h"
#include "core/embodied.h"
#include "core/eval_plan.h"
#include "core/model_config.h"
#include "data/soc_db.h"
#include "fleet/replay.h"
#include "mobile/platform.h"
#include "pkg/package.h"
#include "pkg/pkg_plan.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/units.h"

namespace act::sweep {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

/**
 * Stamp (or verify) the model-config fingerprint. Every shard runs
 * this, so shards built from different data vintages fail here rather
 * than merging into a silently inconsistent result.
 */
void
resolveFingerprint(SweepPlan &plan)
{
    const std::string current = core::modelConfigFingerprint();
    if (plan.fingerprint.empty()) {
        plan.fingerprint = current;
    } else if (plan.fingerprint != current) {
        util::fatal("sweep plan fingerprint ", plan.fingerprint,
                    " does not match this build's model data (",
                    current, ") -- the plan is stale; clear its "
                    "'fingerprint' field to re-author it");
    }
}

// ---------------------------------------------------------------------
// cpa_montecarlo: Eq. 5 CPA uncertainty at a fixed node.
// ---------------------------------------------------------------------

/** How a sampled value lands in FabParams. */
enum class FabField
{
    CiFab,
    Yield,
    Abatement,
};

struct CpaMonteCarloConfig
{
    double node_nm = 0.0;
    core::FabParams base_fab;
    std::vector<dse::UncertainParameter> parameters;
    std::vector<FabField> fields;
};

CpaMonteCarloConfig
parseCpaMonteCarloConfig(const SweepPlan &plan)
{
    if (!plan.config.isObject())
        util::fatal("cpa_montecarlo plan needs a 'config' object");
    CpaMonteCarloConfig parsed;
    parsed.node_nm = plan.config.numberOr("node_nm", 0.0);
    if (parsed.node_nm <= 0.0)
        util::fatal("cpa_montecarlo config needs a positive 'node_nm'");
    if (plan.config.contains("fab")) {
        parsed.base_fab =
            core::fabParamsFromJson(plan.config.at("fab"));
    }
    if (!plan.config.contains("parameters"))
        util::fatal("cpa_montecarlo config needs a 'parameters' array");
    for (const JsonValue &entry :
         plan.config.at("parameters").asArray()) {
        dse::UncertainParameter parameter;
        parameter.name = entry.at("name").asString();
        const std::string distribution =
            entry.stringOr("distribution", "uniform");
        if (distribution == "uniform") {
            parameter.distribution = dse::Distribution::Uniform;
        } else if (distribution == "triangular") {
            parameter.distribution = dse::Distribution::Triangular;
        } else {
            util::fatal("unknown distribution '", distribution,
                        "' (expected 'uniform' or 'triangular')");
        }
        parameter.low = entry.at("low").asNumber();
        parameter.high = entry.at("high").asNumber();
        parameter.baseline = entry.numberOr(
            "baseline", (parameter.low + parameter.high) / 2.0);

        FabField field;
        if (parameter.name == "ci_fab_g_per_kwh") {
            field = FabField::CiFab;
        } else if (parameter.name == "yield") {
            field = FabField::Yield;
        } else if (parameter.name == "abatement") {
            field = FabField::Abatement;
        } else {
            util::fatal("unknown cpa_montecarlo parameter '",
                        parameter.name, "' (expected "
                        "'ci_fab_g_per_kwh', 'yield', or 'abatement')");
        }
        parsed.parameters.push_back(std::move(parameter));
        parsed.fields.push_back(field);
    }
    return parsed;
}

std::function<double(const std::vector<double> &)>
cpaModel(const CpaMonteCarloConfig &config)
{
    return [config](const std::vector<double> &values) {
        core::FabParams fab = config.base_fab;
        for (std::size_t i = 0; i < values.size(); ++i) {
            switch (config.fields[i]) {
              case FabField::CiFab:
                fab.ci_fab = util::gramsPerKilowattHour(values[i]);
                break;
              case FabField::Yield:
                fab.yield = values[i];
                break;
              case FabField::Abatement:
                fab.abatement = values[i];
                break;
            }
        }
        return core::carbonPerArea(fab, config.node_nm).value();
    };
}

/** Compile the config into the equivalent Eq. 5 plan: binding i feeds
 *  the same FabParams field cpaModel() mutates for parameter i. */
core::EvalPlan
cpaPlan(const CpaMonteCarloConfig &config)
{
    std::vector<core::EvalInput> bindings;
    bindings.reserve(config.fields.size());
    for (const FabField field : config.fields) {
        switch (field) {
          case FabField::CiFab:
            bindings.push_back(core::EvalInput::CiFab);
            break;
          case FabField::Yield:
            bindings.push_back(core::EvalInput::Yield);
            break;
          case FabField::Abatement:
            bindings.push_back(core::EvalInput::Abatement);
            break;
        }
    }
    return core::EvalPlan::forNode(config.base_fab, config.node_nm,
                                   bindings);
}

void
prepareCpaMonteCarlo(SweepPlan &plan)
{
    if (plan.items == 0)
        plan.items = 10'000;
    if (plan.grain == 0)
        plan.grain = dse::kMonteCarloChunk;
    const CpaMonteCarloConfig config = parseCpaMonteCarloConfig(plan);
    dse::validateMonteCarloInputs(config.parameters, plan.items);
    resolveFingerprint(plan);
}

JsonChunkEvaluator
cpaMonteCarloEvaluator(const SweepPlan &plan)
{
    // Parsed and compiled once; shared read-only by every concurrent
    // chunk. Chunks run the fused plan kernel (sample + evaluate per
    // cache-resident sub-block) over a reused thread-local SoA
    // scratch -- same RNG consumption order as the scalar path at
    // every SIMD dispatch level, so partials (and merged results)
    // keep their bits.
    auto config = std::make_shared<const CpaMonteCarloConfig>(
        parseCpaMonteCarloConfig(plan));
    const core::EvalPlan compiled = cpaPlan(*config);
    return [config, compiled](std::size_t, util::IndexRange range,
                              util::Xorshift64Star &rng) {
        thread_local dse::MonteCarloScratch scratch;
        return toJson(dse::monteCarloPlanChunk(
            config->parameters, compiled, range, rng, scratch));
    };
}

std::string
summarizeCpaMonteCarlo(const SweepPlan &plan, const JsonArray &results)
{
    const dse::MonteCarloResult result =
        monteCarloResultFromPayloads(plan.items, results);
    std::ostringstream out;
    out << "CPA Monte Carlo, " << result.samples << " samples: mean "
        << util::formatSig(result.mean, 4) << " g CO2/cm2, stddev "
        << util::formatSig(result.stddev, 3) << ", p5/p50/p95 "
        << util::formatSig(result.p5, 4) << " / "
        << util::formatSig(result.p50, 4) << " / "
        << util::formatSig(result.p95, 4) << "\n";
    return out.str();
}

// ---------------------------------------------------------------------
// mobile: the Fig. 8 SoC design space.
// ---------------------------------------------------------------------

core::FabParams
mobileFab(const SweepPlan &plan)
{
    if (plan.config.isObject() && plan.config.contains("fab"))
        return core::fabParamsFromJson(plan.config.at("fab"));
    return core::FabParams{};
}

void
prepareMobile(SweepPlan &plan)
{
    const std::size_t socs =
        data::SocDatabase::instance().records().size();
    if (plan.items == 0)
        plan.items = socs;
    else if (plan.items != socs)
        util::fatal("mobile sweep plan pins ", plan.items,
                    " items but the SoC database has ", socs);
    mobileFab(plan); // validate any fab override now, on every shard
    resolveFingerprint(plan);
}

JsonValue
designPointToJson(const core::DesignPoint &point)
{
    JsonObject object;
    object["name"] = JsonValue(point.name);
    object["embodied_kg"] =
        JsonValue(util::asKilograms(point.embodied));
    object["energy_j"] = JsonValue(util::asJoules(point.energy));
    object["delay_s"] = JsonValue(util::asSeconds(point.delay));
    object["area_mm2"] =
        JsonValue(util::asSquareMillimeters(point.area));
    return JsonValue(std::move(object));
}

JsonChunkEvaluator
mobileEvaluator(const SweepPlan &plan)
{
    // Per-SoC constants (node CPA, DRAM CPS, aggregate score) resolve
    // once here; chunks share them read-only. The compiled design
    // points are bit-identical to mobile::designPoint().
    const core::FabParams fab = mobileFab(plan);
    auto compiled =
        std::make_shared<const std::vector<mobile::CompiledPlatform>>(
            mobile::compileMobilePlatforms(fab));
    return [compiled](std::size_t, util::IndexRange range,
                      util::Xorshift64Star &) {
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t i = range.begin; i < range.end; ++i) {
            points.push_back(
                designPointToJson((*compiled)[i].designPoint()));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeMobile(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    std::string best_name;
    double best_kg = 0.0;
    for (const JsonValue &chunk : results) {
        for (const JsonValue &point : chunk.asArray()) {
            const double kg = point.at("embodied_kg").asNumber();
            if (count == 0 || kg < best_kg) {
                best_kg = kg;
                best_name = point.at("name").asString();
            }
            ++count;
        }
    }
    std::ostringstream out;
    out << "mobile design space, " << count
        << " SoCs: minimum embodied " << util::formatSig(best_kg, 3)
        << " kg CO2 (" << best_name << ")\n";
    return out.str();
}

// ---------------------------------------------------------------------
// accel: the Fig. 12 NPU design-space walk, node x MAC count.
// ---------------------------------------------------------------------

struct AccelConfig
{
    std::vector<double> nodes;
    core::FabParams fab;
};

AccelConfig
parseAccelConfig(const SweepPlan &plan)
{
    AccelConfig parsed;
    if (plan.config.isObject() && plan.config.contains("nodes")) {
        for (const JsonValue &node :
             plan.config.at("nodes").asArray()) {
            parsed.nodes.push_back(node.asNumber());
        }
    } else {
        // The Fig. 13 (right) node walk, newest last.
        parsed.nodes = {28.0, 20.0, 16.0, 10.0, 7.0, 5.0, 3.0};
    }
    if (parsed.nodes.empty())
        util::fatal("accel sweep config has an empty 'nodes' array");
    for (const double node : parsed.nodes) {
        if (!(node >= 3.0 && node <= 28.0)) {
            util::fatal("accel sweep node ", node,
                        " nm outside the modeled range [3, 28] nm");
        }
    }
    if (plan.config.isObject() && plan.config.contains("fab"))
        parsed.fab = core::fabParamsFromJson(plan.config.at("fab"));
    return parsed;
}

void
prepareAccel(SweepPlan &plan)
{
    const AccelConfig config = parseAccelConfig(plan);
    const std::size_t items =
        config.nodes.size() * accel::macSweep().size();
    if (plan.items == 0)
        plan.items = items;
    else if (plan.items != items)
        util::fatal("accel sweep plan pins ", plan.items,
                    " items but the config spans ", items,
                    " (nodes x MAC configurations)");
    resolveFingerprint(plan);
}

JsonChunkEvaluator
accelEvaluator(const SweepPlan &plan)
{
    auto config =
        std::make_shared<const AccelConfig>(parseAccelConfig(plan));
    // Eq. 5 depends only on (fab, node): compile one plan per node up
    // front so chunk evaluation is pure arithmetic.
    auto cpas = std::make_shared<std::vector<util::CarbonPerArea>>();
    cpas->reserve(config->nodes.size());
    for (const double node : config->nodes) {
        cpas->push_back(
            core::EvalPlan::forNode(config->fab, node).cpa());
    }
    auto model = std::make_shared<const accel::NpuModel>();
    return [config, cpas, model](std::size_t, util::IndexRange range,
                                 util::Xorshift64Star &) {
        const std::vector<int> macs = accel::macSweep();
        const accel::Network &network =
            accel::referenceVisionNetwork();
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t k = range.begin; k < range.end; ++k) {
            const std::size_t node_index = k / macs.size();
            const std::size_t mac_index = k % macs.size();
            const accel::NpuConfig npu_config{
                macs[mac_index], config->nodes[node_index]};
            const accel::NpuEvaluation evaluation =
                model->evaluate(network, npu_config);
            JsonObject point;
            point["node_nm"] = JsonValue(npu_config.node_nm);
            point["macs"] =
                JsonValue(static_cast<double>(npu_config.mac_count));
            point["embodied_g"] = JsonValue(util::asGrams(
                (*cpas)[node_index] * evaluation.area));
            point["energy_per_frame_j"] =
                JsonValue(util::asJoules(evaluation.energy_per_frame));
            point["latency_s"] =
                JsonValue(util::asSeconds(evaluation.latency));
            point["fps"] = JsonValue(evaluation.frames_per_second);
            point["area_mm2"] = JsonValue(
                util::asSquareMillimeters(evaluation.area));
            point["utilization"] = JsonValue(evaluation.utilization);
            points.push_back(JsonValue(std::move(point)));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeAccel(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    double best_g = 0.0;
    double best_node = 0.0;
    std::uint64_t best_macs = 0;
    for (const JsonValue &chunk : results) {
        for (const JsonValue &point : chunk.asArray()) {
            const double grams = point.at("embodied_g").asNumber();
            if (count == 0 || grams < best_g) {
                best_g = grams;
                best_node = point.at("node_nm").asNumber();
                best_macs = point.countAt("macs");
            }
            ++count;
        }
    }
    std::ostringstream out;
    out << "NPU design space, " << count
        << " configurations: minimum embodied "
        << util::formatSig(best_g, 3) << " g CO2 ("
        << best_macs << " MACs @ "
        << util::formatSig(best_node, 3) << " nm)\n";
    return out.str();
}

// ---------------------------------------------------------------------
// chiplet: packaging-style x die-count walk over the pkg layer.
// ---------------------------------------------------------------------

struct ChipletSweepConfig
{
    double logic_area_mm2 = 0.0;
    double node_nm = 7.0;
    int max_chiplets = 8;
    /** Die-to-die interface area tax, growing with the cut count. */
    double interface_overhead = 0.10;
    core::DefectParams defects;
    core::FabParams fab;
    std::vector<pkg::PackagingStyle> styles;
    /** Optional fab-CI scenario column, bound as EvalInput::CiFab so
     *  chunks run the batched package kernel. */
    std::vector<double> ci_fab_g_per_kwh;
    /** Flattened (style, die count) grid, in item order. */
    std::vector<std::pair<pkg::PackagingStyle, int>> points;
};

ChipletSweepConfig
parseChipletConfig(const SweepPlan &plan)
{
    if (!plan.config.isObject())
        util::fatal("chiplet plan needs a 'config' object");
    ChipletSweepConfig parsed;
    parsed.logic_area_mm2 =
        plan.config.numberOr("logic_area_mm2", 0.0);
    if (parsed.logic_area_mm2 <= 0.0)
        util::fatal(
            "chiplet config needs a positive 'logic_area_mm2'");
    parsed.node_nm = plan.config.numberOr("node_nm", 7.0);
    const std::int64_t max_chiplets =
        plan.config.integerOr("max_chiplets", 8);
    if (max_chiplets < 1 ||
        max_chiplets > std::numeric_limits<int>::max()) {
        util::fatal("chiplet config 'max_chiplets' must be in [1, ",
                    std::numeric_limits<int>::max(), "], got ",
                    max_chiplets);
    }
    parsed.max_chiplets = static_cast<int>(max_chiplets);
    parsed.interface_overhead =
        plan.config.numberOr("interface_overhead", 0.10);
    if (parsed.interface_overhead < 0.0)
        util::fatal(
            "chiplet config 'interface_overhead' must be >= 0");
    if (plan.config.contains("defect_density_per_cm2")) {
        parsed.defects.defect_density_per_cm2 =
            plan.config.at("defect_density_per_cm2").asNumber();
    }
    if (plan.config.contains("fab"))
        parsed.fab = core::fabParamsFromJson(plan.config.at("fab"));
    if (plan.config.contains("styles")) {
        for (const JsonValue &style :
             plan.config.at("styles").asArray()) {
            parsed.styles.push_back(
                pkg::packagingStyleByName(style.asString()));
        }
        if (parsed.styles.empty())
            util::fatal("chiplet config has an empty 'styles' array");
    } else {
        parsed.styles.assign(std::begin(pkg::kPackagingStyles),
                             std::end(pkg::kPackagingStyles));
    }
    if (plan.config.contains("ci_fab_g_per_kwh")) {
        for (const JsonValue &value :
             plan.config.at("ci_fab_g_per_kwh").asArray()) {
            parsed.ci_fab_g_per_kwh.push_back(value.asNumber());
        }
    }
    // Monolithic only admits one die; multi-die styles walk the cut
    // counts 2..max so the grid never repeats the monolithic point.
    for (const pkg::PackagingStyle style : parsed.styles) {
        if (style == pkg::PackagingStyle::Monolithic) {
            parsed.points.emplace_back(style, 1);
        } else {
            for (int n = 2; n <= parsed.max_chiplets; ++n)
                parsed.points.emplace_back(style, n);
        }
    }
    if (parsed.points.empty()) {
        util::fatal("chiplet config spans no grid points (multi-die "
                    "styles need 'max_chiplets' >= 2)");
    }
    return parsed;
}

/** The pkg spec for one grid point: the logic area cut into n dies
 *  plus the per-cut interface tax, under the style's defaults. */
pkg::PackageSpec
chipletSweepSpec(const ChipletSweepConfig &config,
                 pkg::PackagingStyle style, int num_dies)
{
    pkg::PackageSpec spec = pkg::PackageSpec::forStyle(style);
    const double n = static_cast<double>(num_dies);
    const double scale =
        1.0 + config.interface_overhead * (n - 1.0) / n;
    pkg::ChipletSpec die;
    die.name = "die";
    die.area = util::squareMillimeters(config.logic_area_mm2) *
               (scale / n);
    die.node_nm = config.node_nm;
    die.defects = config.defects;
    die.count = num_dies;
    spec.chiplets.push_back(die);
    return spec;
}

void
prepareChiplet(SweepPlan &plan)
{
    const ChipletSweepConfig config = parseChipletConfig(plan);
    if (plan.items == 0)
        plan.items = config.points.size();
    else if (plan.items != config.points.size())
        util::fatal("chiplet sweep plan pins ", plan.items,
                    " items but the config spans ",
                    config.points.size(), " (styles x die counts)");
    resolveFingerprint(plan);
}

JsonChunkEvaluator
chipletEvaluator(const SweepPlan &plan)
{
    // The grid is small, so specs and compiled plans resolve once
    // here; chunks share them read-only. The scalar fields come from
    // the evaluatePackage() oracle and the scenario column from the
    // compiled batch kernel -- bit-identical by the pkg_plan contract,
    // so shards merge byte-identically to a single-process run.
    auto config = std::make_shared<const ChipletSweepConfig>(
        parseChipletConfig(plan));
    std::vector<core::EvalInput> bindings;
    if (!config->ci_fab_g_per_kwh.empty())
        bindings.push_back(core::EvalInput::CiFab);
    auto specs = std::make_shared<std::vector<pkg::PackageSpec>>();
    auto plans = std::make_shared<std::vector<pkg::PackagePlan>>();
    specs->reserve(config->points.size());
    plans->reserve(config->points.size());
    for (const auto &[style, count] : config->points) {
        specs->push_back(chipletSweepSpec(*config, style, count));
        plans->push_back(pkg::PackagePlan::compile(
            specs->back(), config->fab, bindings));
    }
    return [config, specs, plans](std::size_t, util::IndexRange range,
                                  util::Xorshift64Star &) {
        JsonArray points;
        points.reserve(range.size());
        for (std::size_t k = range.begin; k < range.end; ++k) {
            const auto &[style, count] = config->points[k];
            const pkg::PackageResult result =
                pkg::evaluatePackage((*specs)[k], config->fab);
            JsonObject point;
            point["style"] = JsonValue(
                std::string(pkg::packagingStyleName(style)));
            point["num_dies"] =
                JsonValue(static_cast<double>(count));
            point["total_g"] =
                JsonValue(util::asGrams(result.total));
            point["silicon_g"] =
                JsonValue(util::asGrams(result.silicon_embodied));
            point["substrate_g"] =
                JsonValue(util::asGrams(result.substrate_embodied));
            point["assembly_g"] =
                JsonValue(util::asGrams(result.assembly_embodied));
            point["min_die_yield"] = JsonValue(result.min_die_yield);
            point["package_yield"] = JsonValue(result.package_yield);
            if (!config->ci_fab_g_per_kwh.empty()) {
                const std::size_t n =
                    config->ci_fab_g_per_kwh.size();
                std::vector<double> outputs(n);
                std::vector<double> scratch(n);
                const double *columns[1] = {
                    config->ci_fab_g_per_kwh.data()};
                (*plans)[k].evaluateBatch(n, columns, outputs.data(),
                                          scratch.data());
                JsonArray totals;
                totals.reserve(n);
                for (const double grams : outputs)
                    totals.push_back(JsonValue(grams));
                point["ci_fab_totals_g"] =
                    JsonValue(std::move(totals));
            }
            points.push_back(JsonValue(std::move(point)));
        }
        return JsonValue(std::move(points));
    };
}

std::string
summarizeChiplet(const SweepPlan &, const JsonArray &results)
{
    std::size_t count = 0;
    double best_g = 0.0;
    std::string best_style;
    std::uint64_t best_dies = 0;
    for (const JsonValue &chunk : results) {
        for (const JsonValue &point : chunk.asArray()) {
            const double grams = point.at("total_g").asNumber();
            if (count == 0 || grams < best_g) {
                best_g = grams;
                best_style = point.at("style").asString();
                best_dies = point.countAt("num_dies");
            }
            ++count;
        }
    }
    std::ostringstream out;
    out << "chiplet packaging sweep, " << count
        << " packages: minimum embodied " << util::formatSig(best_g, 4)
        << " g CO2 (" << best_style << ", " << best_dies << " "
        << (best_dies == 1 ? "die" : "dies") << ")\n";
    return out.str();
}

// ---------------------------------------------------------------------
// fleet: trace-driven job replay over regional intensity series.
// ---------------------------------------------------------------------

constexpr std::size_t kFleetDefaultJobs = 100000;
/** Pinned (not thread-adaptive): the per-chunk accumulator sums make
 *  the chunk layout observable in the last ulp, so the grain must be
 *  a pure function of the plan. */
constexpr std::size_t kFleetDefaultGrain = 8192;

void
prepareFleet(SweepPlan &plan)
{
    // Parse eagerly so every shard rejects a bad config up front.
    (void)fleet::fleetSetupFromJson(plan.config, plan.seed);
    if (plan.items == 0)
        plan.items = kFleetDefaultJobs;
    if (plan.grain == 0)
        plan.grain = kFleetDefaultGrain;
    resolveFingerprint(plan);
}

JsonChunkEvaluator
fleetEvaluator(const SweepPlan &plan)
{
    auto setup = std::make_shared<const fleet::FleetSetup>(
        fleet::fleetSetupFromJson(plan.config, plan.seed));
    return [setup](std::size_t, util::IndexRange range,
                   util::Xorshift64Star &) {
        // Jobs seed their own deriveSeed(seed, index) streams, so the
        // engine's per-chunk RNG goes unused: a job's placement is a
        // pure function of its index, independent of which chunk,
        // thread, or shard replays it.
        const std::vector<fleet::FleetAccumulator> accumulators =
            fleet::replayJobs(*setup, range);
        JsonArray payload;
        payload.reserve(accumulators.size());
        for (const fleet::FleetAccumulator &accumulator : accumulators)
            payload.push_back(toJson(accumulator));
        return JsonValue(std::move(payload));
    };
}

/** Fold a fleet result's chunk payloads, in order, into one
 *  accumulator per scenario of a @p scenarios-wide grid. */
std::vector<fleet::FleetAccumulator>
foldFleetPayloads(std::size_t scenarios, const JsonArray &results)
{
    std::vector<fleet::FleetAccumulator> totals(scenarios);
    for (const JsonValue &chunk : results) {
        const JsonArray &payload = chunk.asArray();
        if (payload.size() != totals.size()) {
            util::fatal("fleet chunk payload carries ", payload.size(),
                        " scenarios but the plan's grid has ",
                        totals.size());
        }
        for (std::size_t s = 0; s < totals.size(); ++s)
            totals[s].add(fleet::fleetAccumulatorFromJson(payload[s]));
    }
    return totals;
}

std::string
summarizeFleet(const SweepPlan &plan, const JsonArray &results)
{
    const fleet::FleetSetup setup =
        fleet::fleetSetupFromJson(plan.config, plan.seed);
    const std::vector<fleet::FleetAccumulator> totals =
        foldFleetPayloads(setup.scenarios.size(), results);
    std::ostringstream out;
    out << "fleet replay, "
        << (totals.empty() ? 0 : totals.front().jobs) << " jobs x "
        << totals.size() << " scenarios:\n";
    for (std::size_t s = 0; s < totals.size(); ++s) {
        const fleet::FleetAccumulator &acc = totals[s];
        const double total_g = acc.operational_g + acc.embodied_g;
        const double saving = acc.operational_g > 0.0
                                  ? acc.baseline_g / acc.operational_g
                                  : 1.0;
        out << "  " << setup.scenarios[s].label << ": "
            << util::formatSig(total_g / 1000.0, 4) << " kg CO2 ("
            << util::formatSig(acc.operational_g / 1000.0, 4)
            << " op + "
            << util::formatSig(acc.embodied_g / 1000.0, 4)
            << " embodied), saving " << util::formatSig(saving, 4)
            << "x, deferred " << acc.deferred << ", migrated "
            << acc.migrated << "\n";
    }
    return out.str();
}

constexpr Domain kDomains[] = {
    {"cpa_montecarlo",
     "Eq. 5 CPA uncertainty at a fixed node (Monte Carlo)",
     prepareCpaMonteCarlo, cpaMonteCarloEvaluator,
     summarizeCpaMonteCarlo},
    {"mobile", "the Fig. 8 mobile-SoC design space, one item per SoC",
     prepareMobile, mobileEvaluator, summarizeMobile},
    {"accel", "the Fig. 12 NPU design-space walk, node x MAC count",
     prepareAccel, accelEvaluator, summarizeAccel},
    {"chiplet",
     "packaging style x die count over compiled pkg::PackagePlan",
     prepareChiplet, chipletEvaluator, summarizeChiplet},
    {"fleet",
     "trace-driven job replay over regional intensity series",
     prepareFleet, fleetEvaluator, summarizeFleet},
};

} // namespace

std::function<double(const std::vector<double> &)>
cpaMonteCarloScalarModel(const SweepPlan &plan)
{
    return cpaModel(parseCpaMonteCarloConfig(plan));
}

std::vector<dse::UncertainParameter>
cpaMonteCarloParameters(const SweepPlan &plan)
{
    return parseCpaMonteCarloConfig(plan).parameters;
}

std::vector<fleet::FleetAccumulator>
fleetResultFromPayloads(const SweepPlan &plan,
                        const config::JsonArray &results)
{
    return foldFleetPayloads(
        fleet::fleetSetupFromJson(plan.config, plan.seed)
            .scenarios.size(),
        results);
}

const Domain &
findDomain(std::string_view name)
{
    for (const Domain &domain : kDomains) {
        if (domain.name == name)
            return domain;
    }
    std::string known;
    for (const std::string_view known_name : domainNames()) {
        if (!known.empty())
            known += ", ";
        known += known_name;
    }
    util::fatal("unknown sweep domain '", std::string(name),
                "' (known: ", known,
                "; run 'act sweep --list-domains' for details)");
}

std::vector<std::string_view>
domainNames()
{
    std::vector<std::string_view> names;
    for (const Domain &domain : kDomains)
        names.push_back(domain.name);
    return names;
}

std::span<const Domain>
allDomains()
{
    return kDomains;
}

JsonValue
toJson(const dse::MonteCarloPartial &partial)
{
    JsonObject object;
    JsonArray outputs;
    outputs.reserve(partial.outputs.size());
    for (const double output : partial.outputs)
        outputs.push_back(JsonValue(output));
    object["outputs"] = JsonValue(std::move(outputs));
    object["sum"] = JsonValue(partial.sum);
    object["sum_squares"] = JsonValue(partial.sum_squares);
    return JsonValue(std::move(object));
}

dse::MonteCarloPartial
monteCarloPartialFromJson(const JsonValue &value)
{
    dse::MonteCarloPartial partial;
    const JsonArray &outputs = value.at("outputs").asArray();
    partial.outputs.reserve(outputs.size());
    for (const JsonValue &output : outputs)
        partial.outputs.push_back(output.asNumber());
    partial.sum = value.at("sum").asNumber();
    partial.sum_squares = value.at("sum_squares").asNumber();
    return partial;
}

dse::MonteCarloResult
monteCarloResultFromPayloads(std::size_t samples,
                             const JsonArray &results)
{
    dse::MonteCarloPartial merged;
    merged.outputs.reserve(samples);
    for (const JsonValue &payload : results) {
        merged = dse::mergePartial(std::move(merged),
                                   monteCarloPartialFromJson(payload));
    }
    return dse::finalizeMonteCarlo(samples, std::move(merged));
}

} // namespace act::sweep
