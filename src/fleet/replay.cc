#include "fleet/replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/footprint.h"
#include "util/logging.h"
#include "util/simd_kernels.h"
#include "util/strings.h"

namespace act::fleet {

namespace {

/** Sum of @p count consecutive samples from @p start, cyclic, O(1)
 *  via the prefix sums. */
double
sumSamples(const RegionSeries &region, std::size_t start,
           std::size_t count)
{
    const std::size_t n = region.series.size();
    const double *prefix = region.prefix_g.data();
    double sum = static_cast<double>(count / n) * prefix[n];
    const std::size_t rem = count % n;
    const std::size_t s0 = start % n;
    if (s0 + rem <= n)
        sum += prefix[s0 + rem] - prefix[s0];
    else
        sum += (prefix[n] - prefix[s0]) + prefix[s0 + rem - n];
    return sum;
}

/**
 * Duration-weighted intensity (g/kWh x h) of a job occupying
 * [start, start + duration) sample-aligned: full samples at step
 * hours each plus the fractional tail. Multiplying by the job's grid
 * power in kW yields its operational grams.
 */
double
weightAt(const RegionSeries &region, std::size_t start,
         double duration_hours)
{
    const double step = region.series.stepHours();
    const auto full = static_cast<std::size_t>(duration_hours / step);
    const double tail_hours =
        duration_hours - static_cast<double>(full) * step;
    double weight = sumSamples(region, start, full) * step;
    if (tail_hours > 0.0)
        weight += region.series.gramsAt(start + full) * tail_hours;
    return weight;
}

/** Hours of start slip a policy of @p kind grants a job with the
 *  given deferral fields. Placement depends on the policy only
 *  through this value and the cross-region flag. */
double
allowedSlackHours(const FleetSetup &setup, core::DeferralPolicy kind,
                  bool deferrable, double slack_hours)
{
    if (!deferrable)
        return 0.0;
    switch (kind) {
    case core::DeferralPolicy::Uniform:
        return 0.0;
    case core::DeferralPolicy::GreedyGreenest:
        // Fleet-wide batch window: any deferrable job may slip up to
        // the stream's maximum slack.
        return setup.jobs.max_slack_hours;
    case core::DeferralPolicy::DeadlineBounded:
    case core::DeferralPolicy::GreenestRegion:
        return slack_hours;
    }
    util::fatal("unknown deferral policy kind");
}

/** Hours of start slip this scenario's policy grants @p job. */
double
allowedSlack(const FleetSetup &setup, const FleetScenario &scenario,
             const Job &job)
{
    return allowedSlackHours(setup, scenario.policy.kind,
                             job.deferrable, job.slack_hours);
}

/** Jobs per SoA generation block: big enough to amortize the kernel
 *  dispatch, small enough to stay cache-resident per thread. */
constexpr std::size_t kJobBlock = 512;

/**
 * Scenarios sharing one placement per job. Placement depends on the
 * scenario only through the policy kind (slack + cross-region flag)
 * and the home region; lifetime enters combineFootprint() afterwards.
 * A policy x region x lifetime grid therefore needs only
 * |kinds| x |regions| placements per job, fanned out to its cells.
 */
/** Shift-window classes a job exposes, ordered by width: the fixed
 *  arrival sample, the per-job slack draw, and the fleet-wide greedy
 *  window (counts never shrink along this order, see
 *  allowedSlackHours()). */
enum WindowClass : std::size_t
{
    kWindowUnit = 0,
    kWindowSlack = 1,
    kWindowGreedy = 2,
};

struct PlacementGroup
{
    core::DeferralPolicy kind = core::DeferralPolicy::Uniform;
    std::size_t home_region = 0;
    /** Index into a job's per-class shift counts. */
    std::size_t window_class = kWindowUnit;
    /** GreenestRegion scans every region, not just home. */
    bool cross_region = false;
    /** Scenario indices this placement fans out to, ascending. */
    std::vector<std::size_t> scenarios;
};

/** The window class a policy kind's slack grant falls in. */
std::size_t
windowClassOf(core::DeferralPolicy kind)
{
    switch (kind) {
    case core::DeferralPolicy::Uniform:
        return kWindowUnit;
    case core::DeferralPolicy::GreedyGreenest:
        return kWindowGreedy;
    case core::DeferralPolicy::DeadlineBounded:
    case core::DeferralPolicy::GreenestRegion:
        return kWindowSlack;
    }
    util::fatal("unknown deferral policy kind");
}

/** Empty slot marker of the per-job argmin memo. */
constexpr std::size_t kNoArgmin = static_cast<std::size_t>(-1);

/** Below this window width the kernel-dispatch overhead outweighs the
 *  lanes; the inline strict-< scan wins. The result is identical
 *  either way: argmin is an exact integer reduction (first index of
 *  the minimum), so the choice cannot affect bit-identity. */
constexpr std::size_t kArgminKernelMin = 32;

/**
 * Memoized argmin over one region's cost row. Within a job, every
 * group of the same window class (per-job slack vs the fleet-wide
 * greedy window) asks the same (region, count) query -- notably each
 * cross-region group scans all regions -- so the reduction runs once
 * per distinct query.
 */
std::size_t
memoArgmin(const util::simd::KernelTable &kt,
           std::vector<std::size_t> &memo, std::size_t region,
           bool greedy, const double *costs_row, std::size_t count)
{
    std::size_t &slot = memo[region * 2 + (greedy ? 1 : 0)];
    if (slot == kNoArgmin) {
        if (count < kArgminKernelMin) {
            std::size_t best = 0;
            double best_value = costs_row[0];
            for (std::size_t s = 1; s < count; ++s) {
                if (costs_row[s] < best_value) {
                    best_value = costs_row[s];
                    best = s;
                }
            }
            slot = best;
        } else {
            slot = kt.argmin_first(costs_row, count);
        }
    }
    return slot;
}

std::vector<PlacementGroup>
buildPlacementGroups(const FleetSetup &setup)
{
    std::vector<PlacementGroup> groups;
    for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
        const FleetScenario &scenario = setup.scenarios[s];
        PlacementGroup *match = nullptr;
        for (PlacementGroup &group : groups) {
            if (group.kind == scenario.policy.kind &&
                group.home_region == scenario.home_region) {
                match = &group;
                break;
            }
        }
        if (match == nullptr) {
            groups.push_back(
                {scenario.policy.kind, scenario.home_region,
                 windowClassOf(scenario.policy.kind),
                 scenario.policy.kind ==
                     core::DeferralPolicy::GreenestRegion,
                 {}});
            match = &groups.back();
        }
        match->scenarios.push_back(s);
    }
    return groups;
}

} // namespace

RegionSeries::RegionSeries(std::string name_in,
                           data::IntensitySeries series_in)
    : name(std::move(name_in)), series(std::move(series_in))
{
    prefix_g.reserve(series.size() + 1);
    prefix_g.push_back(0.0);
    double sum = 0.0;
    for (const double g : series.samples()) {
        sum += g;
        prefix_g.push_back(sum);
    }
    grams2x.reserve(2 * series.size());
    for (int pass = 0; pass < 2; ++pass) {
        for (const double g : series.samples())
            grams2x.push_back(g);
    }
}

FleetSetup
fleetSetupFromJson(const config::JsonValue &config, std::uint64_t seed)
{
    if (!config.isObject())
        util::fatal("a fleet plan needs a 'config' object");
    FleetSetup setup;
    setup.platform = server::dellR740Platform(core::FabParams{});
    setup.pue = config.numberOr("pue", 1.2);
    if (!(setup.pue >= 1.0) || !std::isfinite(setup.pue))
        util::fatal("fleet config 'pue' must be >= 1, got ", setup.pue);

    setup.jobs = config.contains("jobs")
                     ? jobStreamFromJson(config.at("jobs"))
                     : JobStreamParams{};
    setup.jobs.seed = seed;

    if (!config.contains("regions"))
        util::fatal("fleet config needs a 'regions' array");
    for (const config::JsonValue &entry :
         config.at("regions").asArray()) {
        data::IntensitySeries series =
            data::intensitySeriesFromJson(entry);
        std::string name = entry.stringOr("name", series.name());
        setup.regions.emplace_back(std::move(name), std::move(series));
    }
    if (setup.regions.empty())
        util::fatal("fleet config has an empty 'regions' array");
    const std::size_t samples = setup.regions.front().series.size();
    const double step = setup.regions.front().series.stepHours();
    for (const RegionSeries &region : setup.regions) {
        if (region.series.size() != samples ||
            region.series.stepHours() != step) {
            util::fatal("fleet regions must share series length and "
                        "step; region '", region.name, "' has ",
                        region.series.size(), " x ",
                        region.series.stepHours(), " h vs ", samples,
                        " x ", step, " h");
        }
    }

    std::vector<core::PolicySpec> policies;
    std::vector<std::string> policy_names;
    if (config.contains("policies")) {
        for (const config::JsonValue &entry :
             config.at("policies").asArray()) {
            policies.push_back(core::policyByName(entry.asString()));
            policy_names.push_back(entry.asString());
        }
    } else {
        for (const char *name : {"uniform", "greedy"}) {
            policies.push_back(core::policyByName(name));
            policy_names.emplace_back(name);
        }
    }
    if (policies.empty())
        util::fatal("fleet config has an empty 'policies' array");
    const double deadline_raw =
        config.numberOr("deadline_samples", 6.0);
    // A bare size_t cast would wrap negatives to huge windows and
    // silently truncate fractions; both are config mistakes.
    if (!(deadline_raw > 0.0) || !std::isfinite(deadline_raw) ||
        deadline_raw != std::floor(deadline_raw)) {
        util::fatal("fleet config 'deadline_samples' must be a "
                    "positive integer, got ", deadline_raw);
    }
    const auto deadline_samples =
        static_cast<std::size_t>(deadline_raw);
    for (core::PolicySpec &policy : policies) {
        if (policy.kind == core::DeferralPolicy::DeadlineBounded)
            policy.deadline_samples = deadline_samples;
    }

    std::vector<double> lifetimes;
    if (config.contains("lifetime_years")) {
        for (const config::JsonValue &entry :
             config.at("lifetime_years").asArray()) {
            lifetimes.push_back(entry.asNumber());
        }
    } else {
        lifetimes.push_back(4.0);
    }
    for (const double years : lifetimes) {
        if (!(years > 0.0) || !std::isfinite(years)) {
            util::fatal("fleet config 'lifetime_years' entries must be "
                        "positive, got ", years);
        }
    }

    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (std::size_t r = 0; r < setup.regions.size(); ++r) {
            for (const double years : lifetimes) {
                FleetScenario scenario;
                scenario.policy = policies[p];
                scenario.home_region = r;
                scenario.lifetime = util::years(years);
                scenario.label = policy_names[p] + "@" +
                                 setup.regions[r].name + "/" +
                                 util::formatSig(years, 3) + "y";
                setup.scenarios.push_back(std::move(scenario));
            }
        }
    }
    return setup;
}

void
FleetAccumulator::add(const FleetAccumulator &other)
{
    jobs += other.jobs;
    deferred += other.deferred;
    migrated += other.migrated;
    operational_g += other.operational_g;
    embodied_g += other.embodied_g;
    energy_kwh += other.energy_kwh;
    busy_hours += other.busy_hours;
    baseline_g += other.baseline_g;
}

std::vector<FleetAccumulator>
replayJobs(const FleetSetup &setup, util::IndexRange range)
{
    std::vector<FleetAccumulator> accumulators(setup.scenarios.size());
    if (setup.scenarios.empty() || range.begin >= range.end)
        return accumulators;

    const std::size_t n_regions = setup.regions.size();
    const std::size_t n = setup.regions.front().series.size();
    const double step = setup.regions.front().series.stepHours();
    const double embodied_g = util::asGrams(setup.platform.embodied);
    const std::vector<PlacementGroup> groups =
        buildPlacementGroups(setup);
    // Per-scenario Eq. 1 with the LT > 0 check hoisted out of the job
    // loop; combine() below is combineFootprint() inlined.
    std::vector<core::Eq1Amortizer> amortizers;
    amortizers.reserve(setup.scenarios.size());
    for (const FleetScenario &scenario : setup.scenarios)
        amortizers.emplace_back(scenario.lifetime);
    // Upper bound on shifts any policy grants: greedy uses the stream
    // maximum; the per-job slack draw stays below it.
    const std::size_t max_count =
        static_cast<std::size_t>(setup.jobs.max_slack_hours / step) +
        1;

    const util::simd::KernelTable &kt = util::simd::activeKernels();
    const double idle_w = util::asWatts(setup.platform.idle_power);
    const double span_w = util::asWatts(setup.platform.peak_power -
                                        setup.platform.idle_power);
    const util::simd::PowerTransform power_tr{idle_w, span_w,
                                              setup.pue};

    // Reused per-thread scratch: the SoA job block and the per-region
    // cost rows (row r = window costs of region r for this job).
    thread_local JobBlock block;
    thread_local std::vector<double> grid_kw;
    thread_local std::vector<std::size_t> arrivals;
    thread_local std::vector<double> costs;
    costs.resize(n_regions * max_count);
    // Widest window class each region's cost row must cover, fixed by
    // the group structure (cross-region groups touch every region);
    // kNoArgmin marks regions no group reads. Counts are monotone in
    // the class, so the widest class is the widest count.
    std::vector<std::size_t> region_class(n_regions, kNoArgmin);
    for (const PlacementGroup &group : groups) {
        if (group.cross_region) {
            for (std::size_t r = 0; r < n_regions; ++r) {
                if (region_class[r] == kNoArgmin ||
                    region_class[r] < group.window_class)
                    region_class[r] = group.window_class;
            }
        } else {
            std::size_t &slot = region_class[group.home_region];
            if (slot == kNoArgmin || slot < group.window_class)
                slot = group.window_class;
        }
    }
    // Memoized per-job argmin results: groups of the same kind class
    // share (region, shift-count) argmin queries, so each distinct
    // query runs once. Index = r * 2 + (greedy window ? 1 : 0).
    std::vector<std::size_t> argmin_memo(n_regions * 2);

    for (std::size_t first = range.begin; first < range.end;
         first += kJobBlock) {
        const std::size_t count =
            std::min<std::size_t>(kJobBlock, range.end - first);
        jobBlockAt(setup.jobs, first, count, block);
        grid_kw.resize(count);
        arrivals.resize(count);

        // powerAtUtilization()'s range check, batched; on failure
        // re-run the scalar calls in stream order so the fatal
        // diagnostic names the first offending job, like the oracle.
        if (!kt.all_within(block.utilization.data(), count, 0.0, 1.0,
                           false)) {
            for (std::size_t i = 0; i < count; ++i) {
                (void)server::powerAtUtilization(
                    setup.platform, block.utilization[i]);
            }
        }
        // Grid draw of each job (IT power x PUE), in kW.
        kt.power_grid_kw(block.utilization.data(), count, power_tr,
                         grid_kw.data());
        for (std::size_t i = 0; i < count; ++i) {
            arrivals[i] = static_cast<std::size_t>(
                block.arrival_hours[i] / step);
        }

        for (std::size_t i = 0; i < count; ++i) {
            const double duration = block.duration_hours[i];
            const double job_grid_kw = grid_kw[i];
            const std::size_t arrival = arrivals[i];
            const bool deferrable = block.deferrable[i] != 0;
            const double job_slack = block.slack_hours[i];

            // The window shape every region shares for this job.
            const auto full_samples =
                static_cast<std::size_t>(duration / step);
            const double tail_hours =
                duration - static_cast<double>(full_samples) * step;
            const std::size_t rem = full_samples % n;
            const double cycles =
                static_cast<double>(full_samples / n);

            // Shift-window classes of this job: the per-job slack
            // (deadline / migrate) and the fleet-wide greedy window.
            const std::size_t slack_count =
                static_cast<std::size_t>(
                    allowedSlackHours(setup,
                                      core::DeferralPolicy::
                                          DeadlineBounded,
                                      deferrable, job_slack) /
                    step) +
                1;
            const std::size_t greedy_count =
                static_cast<std::size_t>(
                    allowedSlackHours(setup,
                                      core::DeferralPolicy::
                                          GreedyGreenest,
                                      deferrable, job_slack) /
                    step) +
                1;

            // This job's shift count per window class.
            const std::size_t counts[3] = {1, slack_count,
                                           greedy_count};
            for (std::size_t r = 0; r < n_regions; ++r) {
                if (region_class[r] == kNoArgmin)
                    continue;
                const RegionSeries &region = setup.regions[r];
                util::simd::WindowCostProblem problem;
                problem.prefix = region.prefix_g.data();
                problem.grams2x = region.grams2x.data();
                problem.n = n;
                problem.start0 = arrival;
                problem.count = counts[region_class[r]];
                problem.rem = rem;
                problem.base = cycles * region.prefix_g[n];
                problem.step = step;
                problem.tail_hours = tail_hours;
                kt.window_costs(problem,
                                costs.data() + r * max_count);
            }
            std::fill(argmin_memo.begin(), argmin_memo.end(),
                      kNoArgmin);

            for (const PlacementGroup &group : groups) {
                const bool greedy =
                    group.window_class == kWindowGreedy;
                const std::size_t group_count =
                    counts[group.window_class];
                const double *home_costs =
                    costs.data() + group.home_region * max_count;
                const double baseline_weight = home_costs[0];

                // Greenest window within slack; ties resolve to the
                // earliest start, then the lowest region index
                // (replayJobsOracle's scalar scan semantics).
                double best_weight = baseline_weight;
                std::size_t best_shift = 0;
                std::size_t best_region = group.home_region;
                if (group.cross_region) {
                    // Region-major argmin combine. The scalar scan is
                    // shift-major with strict <, and its initial
                    // home@0 candidate shadows equal weights -- which
                    // the eq-branch reproduces: while best_shift is
                    // still 0 no index can be smaller, and after a
                    // strict improvement equal weights win exactly
                    // when they start earlier.
                    for (std::size_t r = 0; r < n_regions; ++r) {
                        const double *region_costs =
                            costs.data() + r * max_count;
                        const std::size_t shift = memoArgmin(
                            kt, argmin_memo, r, greedy, region_costs,
                            group_count);
                        const double weight = region_costs[shift];
                        if (weight < best_weight ||
                            (weight == best_weight &&
                             shift < best_shift)) {
                            best_weight = weight;
                            best_shift = shift;
                            best_region = r;
                        }
                    }
                } else if (group_count > 1) {
                    const std::size_t shift = memoArgmin(
                        kt, argmin_memo, group.home_region, greedy,
                        home_costs, group_count);
                    best_weight = home_costs[shift];
                    best_shift = shift;
                }
                const std::size_t best_start = arrival + best_shift;

                const double operational_g_job =
                    job_grid_kw * best_weight;
                for (const std::size_t s : group.scenarios) {
                    const core::CarbonFootprint footprint =
                        amortizers[s].combine(
                            util::grams(operational_g_job),
                            util::grams(embodied_g),
                            util::hours(duration));

                    FleetAccumulator &acc = accumulators[s];
                    acc.jobs += 1;
                    acc.deferred += best_start != arrival ? 1 : 0;
                    acc.migrated +=
                        best_region != group.home_region ? 1 : 0;
                    acc.operational_g +=
                        util::asGrams(footprint.operational);
                    acc.embodied_g +=
                        util::asGrams(footprint.embodied_allocated);
                    acc.energy_kwh += job_grid_kw * duration;
                    acc.busy_hours += duration;
                    acc.baseline_g += job_grid_kw * baseline_weight;
                }
            }
        }
    }
    return accumulators;
}

std::vector<FleetAccumulator>
replayJobsOracle(const FleetSetup &setup, util::IndexRange range)
{
    std::vector<FleetAccumulator> accumulators(setup.scenarios.size());
    const double step = setup.regions.front().series.stepHours();
    const double embodied_g = util::asGrams(setup.platform.embodied);

    for (std::size_t index = range.begin; index < range.end; ++index) {
        const Job job = jobAt(setup.jobs, index);
        // Grid draw of this job (IT power x PUE), in kW.
        const double grid_kw =
            util::asWatts(server::powerAtUtilization(
                setup.platform, job.utilization)) /
            1000.0 * setup.pue;
        const std::size_t arrival =
            static_cast<std::size_t>(job.arrival_hours / step);

        for (std::size_t s = 0; s < setup.scenarios.size(); ++s) {
            const FleetScenario &scenario = setup.scenarios[s];
            const RegionSeries &home =
                setup.regions[scenario.home_region];
            const bool cross_region =
                scenario.policy.kind ==
                core::DeferralPolicy::GreenestRegion;
            const auto max_shift = static_cast<std::size_t>(
                allowedSlack(setup, scenario, job) / step);

            // Greenest window within slack; ties resolve to the
            // earliest start, then the lowest region index, so the
            // choice is implementation-independent.
            double best_weight =
                weightAt(home, arrival, job.duration_hours);
            std::size_t best_start = arrival;
            std::size_t best_region = scenario.home_region;
            const double baseline_weight = best_weight;
            for (std::size_t shift = 0; shift <= max_shift; ++shift) {
                const std::size_t start = arrival + shift;
                if (cross_region) {
                    for (std::size_t r = 0; r < setup.regions.size();
                         ++r) {
                        const double weight = weightAt(
                            setup.regions[r], start,
                            job.duration_hours);
                        if (weight < best_weight) {
                            best_weight = weight;
                            best_start = start;
                            best_region = r;
                        }
                    }
                } else if (shift > 0) {
                    const double weight =
                        weightAt(home, start, job.duration_hours);
                    if (weight < best_weight) {
                        best_weight = weight;
                        best_start = start;
                    }
                }
            }

            const double operational_g_job = grid_kw * best_weight;
            const core::CarbonFootprint footprint =
                core::combineFootprint(
                    util::grams(operational_g_job),
                    util::grams(embodied_g),
                    util::hours(job.duration_hours),
                    scenario.lifetime);

            FleetAccumulator &acc = accumulators[s];
            acc.jobs += 1;
            acc.deferred += best_start != arrival ? 1 : 0;
            acc.migrated +=
                best_region != scenario.home_region ? 1 : 0;
            acc.operational_g += util::asGrams(footprint.operational);
            acc.embodied_g +=
                util::asGrams(footprint.embodied_allocated);
            acc.energy_kwh += grid_kw * job.duration_hours;
            acc.busy_hours += job.duration_hours;
            acc.baseline_g += grid_kw * baseline_weight;
        }
    }
    return accumulators;
}

config::JsonValue
toJson(const FleetAccumulator &accumulator)
{
    config::JsonObject object;
    object["jobs"] =
        config::JsonValue(static_cast<double>(accumulator.jobs));
    object["deferred"] =
        config::JsonValue(static_cast<double>(accumulator.deferred));
    object["migrated"] =
        config::JsonValue(static_cast<double>(accumulator.migrated));
    object["operational_g"] =
        config::JsonValue(accumulator.operational_g);
    object["embodied_g"] = config::JsonValue(accumulator.embodied_g);
    object["energy_kwh"] = config::JsonValue(accumulator.energy_kwh);
    object["busy_hours"] = config::JsonValue(accumulator.busy_hours);
    object["baseline_g"] = config::JsonValue(accumulator.baseline_g);
    return config::JsonValue(std::move(object));
}

FleetAccumulator
fleetAccumulatorFromJson(const config::JsonValue &value)
{
    FleetAccumulator accumulator;
    accumulator.jobs = value.countAt("jobs");
    accumulator.deferred = value.countAt("deferred");
    accumulator.migrated = value.countAt("migrated");
    accumulator.operational_g = value.at("operational_g").asNumber();
    accumulator.embodied_g = value.at("embodied_g").asNumber();
    accumulator.energy_kwh = value.at("energy_kwh").asNumber();
    accumulator.busy_hours = value.at("busy_hours").asNumber();
    accumulator.baseline_g = value.at("baseline_g").asNumber();
    return accumulator;
}

} // namespace act::fleet
