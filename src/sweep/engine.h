/**
 * @file
 * The unified sweep engine: every design-space sweep in the repo --
 * Monte Carlo sampling, tornado sensitivity, scoreboard columns, the
 * mobile and accelerator design spaces -- runs through one driver that
 * owns chunking, per-chunk RNG streams, instrumentation, and ordered
 * reduction. Call sites supply only a plan and an evaluator; the
 * engine supplies the determinism contract:
 *
 *  - Chunk layout is a pure function of the plan (see plan.h), so
 *    results are bit-identical for any thread count.
 *  - Chunk c draws from the RNG stream util::deriveSeed(plan.seed, c),
 *    so which thread runs a chunk never changes what it samples.
 *  - Reduction folds chunk results in chunk order on the caller.
 *
 * The same layout drives multi-process sharding: `runShardedSweep`
 * evaluates one shard's contiguous chunk slice into JSON payloads,
 * `toJson`/`shardResultFromJson` move partials between processes, and
 * `mergeShards` recombines them -- rejecting overlapping, missing, or
 * mismatched partials -- into a result document byte-identical to a
 * single-process `fullSweepResult` run.
 */

#ifndef ACT_SWEEP_ENGINE_H
#define ACT_SWEEP_ENGINE_H

#include <cstddef>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "config/json.h"
#include "sweep/plan.h"
#include "util/parallel.h"
#include "util/random.h"

namespace act::sweep {

namespace detail {

/**
 * Run @p body over @p chunks on the shared pool with the sweep's trace
 * span and metrics counters. @p body receives *global* chunk indices
 * (local position + @p chunk_offset), which also seed the RNG streams,
 * so a shard's chunk 0 is not the sweep's chunk 0.
 */
void runPlanChunks(
    const SweepPlan &plan, const std::vector<util::IndexRange> &chunks,
    std::size_t chunk_offset,
    const std::function<void(std::size_t, util::IndexRange)> &body);

/**
 * Grain for per-item map sweeps when the plan leaves it automatic:
 * aims at a few chunks per worker for dynamic load balancing without
 * per-item pool ticket traffic. Thread-count aware -- legal only
 * because a map sweep's output is independent of the chunk layout.
 */
std::size_t mapGrain(std::size_t items);

} // namespace detail

/**
 * Deterministic sweep with ordered reduction: evaluate every chunk as
 * @p evaluator(chunk, range, rng) -- the RNG pre-seeded with the
 * chunk's derived stream -- then fold the chunk results in chunk order
 * on the calling thread:
 *
 *   acc = reduce(reduce(init, chunk0), chunk1) ...
 *
 * Chunk layout and stream seeds come from the plan alone, so the
 * result is bit-identical for every thread count.
 */
template <typename Accumulator, typename Evaluator, typename Reducer>
Accumulator
runSweep(const SweepPlan &plan, Evaluator &&evaluator, Reducer &&reduce,
         Accumulator init = Accumulator{})
{
    using Chunk = std::decay_t<std::invoke_result_t<
        Evaluator &, std::size_t, util::IndexRange,
        util::Xorshift64Star &>>;
    const std::vector<util::IndexRange> chunks = planChunks(plan);
    std::vector<Chunk> partials(chunks.size());
    detail::runPlanChunks(
        plan, chunks, 0,
        [&](std::size_t chunk, util::IndexRange range) {
            util::Xorshift64Star rng(
                util::deriveSeed(plan.seed, chunk));
            partials[chunk] = evaluator(chunk, range, rng);
        });
    Accumulator accumulator = std::move(init);
    for (Chunk &partial : partials)
        accumulator = reduce(std::move(accumulator), std::move(partial));
    return accumulator;
}

/**
 * Per-item map sweep: result[i] = @p evaluator(i) for i in
 * [0, plan.items), each item filling its own pre-sized slot. Because
 * the output is independent of the chunk layout, an automatic grain
 * may adapt to the thread count (detail::mapGrain) -- call sites no
 * longer pick per-call granularity constants.
 */
template <typename T, typename Evaluator>
std::vector<T>
runSweepMap(const SweepPlan &plan, Evaluator &&evaluator)
{
    std::vector<T> out(plan.items);
    const std::size_t grain =
        plan.grain != 0 ? plan.grain : detail::mapGrain(plan.items);
    const std::vector<util::IndexRange> chunks =
        util::staticChunks(0, plan.items, grain);
    detail::runPlanChunks(
        plan, chunks, 0,
        [&](std::size_t, util::IndexRange range) {
            for (std::size_t i = range.begin; i < range.end; ++i)
                out[i] = evaluator(i);
        });
    return out;
}

/** Chunk evaluator for the serializable (sharded) path. */
using JsonChunkEvaluator = std::function<config::JsonValue(
    std::size_t chunk, util::IndexRange range,
    util::Xorshift64Star &rng)>;

/** One shard's ordered partial results. */
struct ShardResult
{
    SweepPlan plan;
    ShardSpec shard;
    /** Global index of the first owned chunk. */
    std::size_t chunk_begin = 0;
    /** Payloads for chunks [chunk_begin, chunk_begin + size()). */
    std::vector<config::JsonValue> chunks;
    /**
     * Optional telemetry: an act.metrics.v1 document (obs/metrics_doc)
     * riding along in the partial file, or null. Telemetry never
     * touches the result path -- mergeShards() strips it, so the
     * merged document stays byte-identical whether or not shards
     * carried metrics.
     */
    config::JsonValue metrics;
};

/** Observability knobs for a shard run; defaults disable everything. */
struct ShardRunOptions
{
    /** Heartbeat sidecar path (act.heartbeat.v1); empty disables. */
    std::string heartbeat_path;
    /** Minimum seconds between heartbeat writes. */
    double heartbeat_interval_s = 1.0;
};

/**
 * Evaluate the slice of @p plan owned by @p shard (chunks still run in
 * parallel on the pool within the shard). Fatal when the plan has no
 * items or the shard spec is invalid. With a heartbeat path in
 * @p options, progress is published per chunk through a time-gated
 * obs::HeartbeatWriter -- purely observational, the payloads are
 * bit-identical either way.
 */
ShardResult runShardedSweep(const SweepPlan &plan,
                            const ShardSpec &shard,
                            const JsonChunkEvaluator &evaluator,
                            const ShardRunOptions &options = {});

/**
 * Partial-result file document ("act.sweep.partial.v1"). Both
 * directions take their argument by value and move the chunk payloads:
 * pass an rvalue to avoid copying them.
 */
config::JsonValue toJson(ShardResult result);
ShardResult shardResultFromJson(config::JsonValue value);

/**
 * Recombine partials into the canonical result document. Fatal when
 * shards disagree on the plan or shard count, repeat a shard index,
 * overlap, or fail to cover every chunk -- a partial set that merges
 * is guaranteed bit-identical to the single-process run. The payloads
 * are moved out of @p shards; pass an rvalue to avoid copying them.
 */
config::JsonValue mergeShards(std::vector<ShardResult> shards);

/**
 * Single-process reference run: evaluate every chunk and return the
 * canonical result document ("act.sweep.result.v1", payloads in chunk
 * order) that mergeShards() reproduces byte-for-byte.
 */
config::JsonValue fullSweepResult(const SweepPlan &plan,
                                  const JsonChunkEvaluator &evaluator);

} // namespace act::sweep

#endif // ACT_SWEEP_ENGINE_H
