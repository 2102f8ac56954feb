/**
 * @file
 * Registered sweep domains: the named evaluators `act sweep` can run
 * from a serialized SweepPlan, plus the JSON codecs that move their
 * chunk payloads between processes.
 *
 *  - "cpa_montecarlo": Monte Carlo uncertainty propagation of the
 *    Eq. 5 carbon-per-area model over uncertain fab parameters
 *    (ci_fab_g_per_kwh / yield / abatement), at a fixed node. Chunks
 *    run the fused plan kernel (core/eval_plan.h +
 *    dse::monteCarloPlanChunk); the sharded result is bit-identical
 *    to an in-process dse::monteCarlo() call over the scalar closure
 *    with the same inputs.
 *  - "mobile": the Fig. 8 mobile-SoC design space; one item per SoC
 *    record, payloads carry the evaluated design points (per-SoC
 *    constants resolved once via mobile::compileMobilePlatforms).
 *  - "accel": the Fig. 12 NPU design-space walk, node x MAC-count;
 *    one item per (node, MAC) pair, Eq. 5 compiled once per node.
 *  - "chiplet": the packaging design space over the pkg layer; one
 *    item per (packaging style, die count) grid point, each evaluated
 *    through a compiled pkg::PackagePlan. An optional fab-CI scenario
 *    column runs the batched package kernel per item.
 *  - "fleet": trace-driven fleet replay; one item per job of a
 *    deterministic seeded stream, evaluated against every scenario of
 *    a policy x region x churn grid over regional IntensitySeries.
 *    Payloads carry per-scenario FleetAccumulators that reduce in
 *    chunk order (fleet/replay.h).
 *
 * Domains are separate from the engine so the engine stays free of
 * model dependencies (engine: util + config only; domains: dse,
 * mobile, accel, pkg, core).
 */

#ifndef ACT_SWEEP_DOMAINS_H
#define ACT_SWEEP_DOMAINS_H

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dse/montecarlo.h"
#include "fleet/replay.h"
#include "sweep/engine.h"

namespace act::sweep {

/** One named sweep evaluator the CLI can execute from a plan file. */
struct Domain
{
    std::string_view name;
    /** One-line summary for `act sweep --list-domains`. */
    std::string_view description;
    /**
     * Resolve a loaded plan for execution: fill a zero item count and
     * an automatic grain with the domain's defaults, validate the
     * domain config, and stamp (or check) the model-config
     * fingerprint. Fatal when the plan was authored against different
     * model data -- every shard of a sweep must resolve identically.
     */
    void (*prepare)(SweepPlan &plan);
    /** Chunk evaluator bound to the (prepared) plan's config. */
    JsonChunkEvaluator (*evaluator)(const SweepPlan &plan);
    /** Human summary of a merged result document's payload array. */
    std::string (*summarize)(const SweepPlan &plan,
                             const config::JsonArray &results);
};

/** Look up a registered domain; fatal with the known names on miss. */
const Domain &findDomain(std::string_view name);

/** Registered domain names, for help text and error messages. */
std::vector<std::string_view> domainNames();

/** All registered domains, for `act sweep --list-domains`. */
std::span<const Domain> allDomains();

/**
 * The scalar-closure equivalent of the cpa_montecarlo batch kernel
 * (FabParams mutation + core::carbonPerArea per sample), plus the
 * parsed uncertain parameters -- the oracle pair tests run through
 * dse::monteCarlo() to check the domain's batch path bitwise.
 */
std::function<double(const std::vector<double> &)>
cpaMonteCarloScalarModel(const SweepPlan &plan);
std::vector<dse::UncertainParameter>
cpaMonteCarloParameters(const SweepPlan &plan);

/** Chunk payload codec for Monte Carlo partials (bit-exact doubles). */
config::JsonValue toJson(const dse::MonteCarloPartial &partial);
dse::MonteCarloPartial
monteCarloPartialFromJson(const config::JsonValue &value);

/**
 * Reassemble a merged result document's payload array into the final
 * Monte Carlo summary (equivalent to running dse::monteCarlo whole).
 */
dse::MonteCarloResult
monteCarloResultFromPayloads(std::size_t samples,
                             const config::JsonArray &results);

/**
 * Fold a fleet result document's chunk payloads, in order, into the
 * final per-scenario accumulators (index-aligned with the scenario
 * grid of the plan's config). Fatal when a chunk payload disagrees
 * with the grid size.
 */
std::vector<fleet::FleetAccumulator>
fleetResultFromPayloads(const SweepPlan &plan,
                        const config::JsonArray &results);

} // namespace act::sweep

#endif // ACT_SWEEP_DOMAINS_H
