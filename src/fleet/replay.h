/**
 * @file
 * Trace-driven fleet replay: stream a deterministic job stream
 * (job_stream.h) against regional carbon-intensity series
 * (data/intensity_series.h) under the core/scheduling deferral
 * policies, attributing per-job operational + amortized-embodied
 * carbon via the server layer's power/PUE/Eq. 1 machinery.
 *
 * Determinism contract: every job is a pure function of
 * (params, index); every placement is a pure function of
 * (setup, job); and per-chunk results land in mergeable
 * FleetAccumulators that reduce in chunk order. A replay is therefore
 * bit-identical at any thread x shard x SIMD split of the same plan
 * (the chunk layout itself is pinned by the plan, see sweep/plan.h).
 *
 * Layering: data < core < server < fleet < sweep domains.
 *
 * Setup JSON (the `config` object of a "fleet" sweep plan):
 *
 *   {
 *     "pue": 1.3,
 *     "lifetime_years": [4],               // churn axis
 *     "policies": ["uniform", "greedy", "deadline", "migrate"],
 *     "regions": [ { "name": "...", ... intensity series ... }, ... ],
 *     "jobs": { ... job stream ... }
 *   }
 *
 * Scenarios are the full policy x home-region x lifetime grid, in
 * that nesting order.
 */

#ifndef ACT_FLEET_REPLAY_H
#define ACT_FLEET_REPLAY_H

#include <cstdint>
#include <string>
#include <vector>

#include "config/json.h"
#include "core/scheduling.h"
#include "data/intensity_series.h"
#include "fleet/job_stream.h"
#include "server/datacenter.h"
#include "util/parallel.h"
#include "util/units.h"

namespace act::fleet {

/** One region's series plus the prefix sums that make any cyclic
 *  window cost O(1) to evaluate. */
struct RegionSeries
{
    /** Builds the prefix sums and the doubled sample array. */
    RegionSeries(std::string name, data::IntensitySeries series);

    std::string name;
    data::IntensitySeries series;
    /** prefix_g[i] = sum of samples [0, i); size() + 1 entries. */
    std::vector<double> prefix_g;
    /** The samples twice back-to-back (2 * size() entries), so the
     *  window kernels index grams2x[s0 + rem] == gramsAt(s0 + rem)
     *  without a per-lane modulo. */
    std::vector<double> grams2x;
};

/** One cell of the policy x region x churn grid. */
struct FleetScenario
{
    std::string label;
    core::PolicySpec policy;
    std::size_t home_region = 0;
    util::Duration lifetime = util::years(4.0);
};

/** Everything a replay chunk needs, resolved once per process. */
struct FleetSetup
{
    server::ServerPlatform platform;
    double pue = 1.2;
    JobStreamParams jobs;
    std::vector<RegionSeries> regions;
    std::vector<FleetScenario> scenarios;
};

/**
 * Parse a fleet setup from a sweep plan's config object; @p seed
 * (the plan seed) becomes the job stream's base seed. Fatal on
 * malformed input, empty regions, or regions whose series disagree on
 * length or step.
 */
FleetSetup fleetSetupFromJson(const config::JsonValue &config,
                              std::uint64_t seed);

/** Mergeable per-scenario totals of one replay chunk. */
struct FleetAccumulator
{
    std::uint64_t jobs = 0;
    /** Jobs whose start slipped past their arrival sample. */
    std::uint64_t deferred = 0;
    /** Jobs placed outside their home region. */
    std::uint64_t migrated = 0;
    double operational_g = 0.0;
    double embodied_g = 0.0;
    /** Grid energy (IT draw x PUE). */
    double energy_kwh = 0.0;
    double busy_hours = 0.0;
    /** Counterfactual operational carbon of running every job at its
     *  arrival sample in its home region (the savings baseline). */
    double baseline_g = 0.0;

    /** Fold @p other in (associative over ordered reduction). */
    void add(const FleetAccumulator &other);
};

/**
 * Replay jobs [range.begin, range.end) of the stream against every
 * scenario; result[s] accumulates scenario s. Placement quantizes to
 * sample starts: a job may start at any of the samples within its
 * policy-allowed slack of its arrival, and takes the window with the
 * lowest duration-weighted intensity (ties -> earliest start, then
 * lowest region index).
 *
 * Batched implementation (DESIGN.md §15): jobs are generated in SoA
 * blocks, scenarios sharing a (policy kind, home region) pair share
 * one placement per job (lifetime only affects the footprint
 * amortization), and the per-shift window costs + argmin run through
 * the SIMD kernel table -- bit-identical to replayJobsOracle() at
 * every dispatch level.
 */
std::vector<FleetAccumulator> replayJobs(const FleetSetup &setup,
                                         util::IndexRange range);

/**
 * The retained scalar reference: one jobAt() call per job, one full
 * weightAt() scan per scenario, no grouping, no kernels. The batched
 * replayJobs() must match it bit-for-bit (tested in
 * tests/sweep_fleet_domain_test.cc); kept as the semantic anchor of
 * the placement contract, not for production use.
 */
std::vector<FleetAccumulator>
replayJobsOracle(const FleetSetup &setup, util::IndexRange range);

/** Chunk payload codec (bit-exact doubles, exact counts). The reader
 *  throws config::JsonTypeError on a count that is not an integral,
 *  non-negative number in range. */
config::JsonValue toJson(const FleetAccumulator &accumulator);
FleetAccumulator fleetAccumulatorFromJson(const config::JsonValue &value);

} // namespace act::fleet

#endif // ACT_FLEET_REPLAY_H
