#include "sweep/engine.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "obs/heartbeat.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace act::sweep {

using config::JsonArray;
using config::JsonObject;
using config::JsonValue;

namespace {

constexpr const char *kPartialFormat = "act.sweep.partial.v1";
constexpr const char *kResultFormat = "act.sweep.result.v1";

struct SweepInstruments
{
    util::Counter &runs =
        util::MetricsRegistry::instance().counter("sweep.runs");
    util::Counter &items =
        util::MetricsRegistry::instance().counter("sweep.items");
    util::Counter &chunks =
        util::MetricsRegistry::instance().counter("sweep.chunks");
};

SweepInstruments &
sweepInstruments()
{
    static SweepInstruments *instruments = new SweepInstruments;
    return *instruments;
}

} // namespace

namespace detail {

void
runPlanChunks(
    const SweepPlan &plan, const std::vector<util::IndexRange> &chunks,
    std::size_t chunk_offset,
    const std::function<void(std::size_t, util::IndexRange)> &body)
{
    util::TraceSpan span("sweep", plan.domain);
    SweepInstruments &instruments = sweepInstruments();
    instruments.runs.add();
    instruments.chunks.add(chunks.size());
    for (const util::IndexRange &chunk : chunks)
        instruments.items.add(chunk.size());
    util::runChunks(chunks,
                    [&](std::size_t local, util::IndexRange range) {
                        body(chunk_offset + local, range);
                    });
}

std::size_t
mapGrain(std::size_t items)
{
    // A few chunks per worker keeps dynamic load balancing while
    // bounding pool ticket traffic; tiny sweeps degrade gracefully to
    // one item per chunk.
    constexpr std::size_t kChunksPerWorker = 4;
    return std::max<std::size_t>(
        1, items / (kChunksPerWorker * util::threadCount()));
}

} // namespace detail

namespace {

/** Per-run heartbeat state: shared counters plus the gated writer. */
struct HeartbeatState
{
    obs::HeartbeatWriter writer;
    obs::Heartbeat base;
    std::atomic<std::uint64_t> items_done{0};
    std::atomic<std::size_t> chunks_done{0};

    HeartbeatState(const ShardRunOptions &options,
                   obs::Heartbeat base_in)
        : writer(options.heartbeat_path, options.heartbeat_interval_s),
          base(std::move(base_in))
    {}

    void
    publish(bool force, bool done)
    {
        // Gate before measuring: most chunks end inside the interval,
        // and reading RSS from /proc costs more than the chunk's
        // bookkeeping.
        if (!force && !writer.due())
            return;
        obs::Heartbeat heartbeat = base;
        heartbeat.items_done =
            items_done.load(std::memory_order_relaxed);
        heartbeat.chunks_done =
            chunks_done.load(std::memory_order_relaxed);
        heartbeat.update_wall_s = obs::wallClockSeconds();
        const double elapsed =
            heartbeat.update_wall_s - heartbeat.start_wall_s;
        heartbeat.items_per_sec =
            elapsed > 0.0
                ? static_cast<double>(heartbeat.items_done) / elapsed
                : 0.0;
        heartbeat.rss_mb = obs::processRssMb();
        heartbeat.done = done;
        writer.beat(heartbeat, force);
    }
};

} // namespace

ShardResult
runShardedSweep(const SweepPlan &plan, const ShardSpec &shard,
                const JsonChunkEvaluator &evaluator,
                const ShardRunOptions &options)
{
    if (plan.items == 0)
        util::fatal("sweep plan '", plan.domain, "' has no items");
    const std::vector<util::IndexRange> chunks = planChunks(plan);
    const util::IndexRange owned =
        shardChunkRange(chunks.size(), shard);

    ShardResult result;
    result.plan = plan;
    result.shard = shard;
    result.chunk_begin = owned.begin;
    result.chunks.resize(owned.size());

    const std::vector<util::IndexRange> owned_chunks(
        chunks.begin() + static_cast<std::ptrdiff_t>(owned.begin),
        chunks.begin() + static_cast<std::ptrdiff_t>(owned.end));

    std::unique_ptr<HeartbeatState> heartbeat;
    if (!options.heartbeat_path.empty()) {
        obs::Heartbeat base;
        base.domain = plan.domain;
        base.shard_index = shard.shard_index;
        base.shard_count = shard.shard_count;
        for (const util::IndexRange &chunk : owned_chunks)
            base.items_total += chunk.size();
        base.chunks_total = owned_chunks.size();
        base.start_wall_s = obs::wallClockSeconds();
        heartbeat =
            std::make_unique<HeartbeatState>(options, std::move(base));
        heartbeat->publish(/*force=*/true, /*done=*/false);
    }

    detail::runPlanChunks(
        plan, owned_chunks, owned.begin,
        [&](std::size_t chunk, util::IndexRange range) {
            // Streams derive from the *global* chunk index, so a
            // shard samples exactly what the full run would.
            util::Xorshift64Star rng(
                util::deriveSeed(plan.seed, chunk));
            result.chunks[chunk - owned.begin] =
                evaluator(chunk, range, rng);
            if (heartbeat != nullptr) {
                heartbeat->items_done.fetch_add(
                    range.size(), std::memory_order_relaxed);
                heartbeat->chunks_done.fetch_add(
                    1, std::memory_order_relaxed);
                heartbeat->publish(/*force=*/false, /*done=*/false);
            }
        });
    if (heartbeat != nullptr)
        heartbeat->publish(/*force=*/true, /*done=*/true);
    return result;
}

JsonValue
toJson(ShardResult result)
{
    JsonObject object;
    object["format"] = JsonValue(kPartialFormat);
    object["plan"] = toJson(result.plan);
    object["shard_count"] =
        JsonValue(static_cast<double>(result.shard.shard_count));
    object["shard_index"] =
        JsonValue(static_cast<double>(result.shard.shard_index));
    object["chunk_begin"] =
        JsonValue(static_cast<double>(result.chunk_begin));
    object["chunks"] = JsonValue(std::move(result.chunks));
    if (!result.metrics.isNull())
        object["metrics"] = std::move(result.metrics);
    return JsonValue(std::move(object));
}

ShardResult
shardResultFromJson(JsonValue value)
{
    const std::string format = value.stringOr("format", "");
    if (format != kPartialFormat)
        util::fatal("not a sweep partial file (format '", format,
                    "', expected '", kPartialFormat, "')");
    ShardResult result;
    result.plan = sweepPlanFromJson(value.at("plan"));
    result.shard.shard_count = static_cast<std::size_t>(
        value.at("shard_count").asInteger());
    result.shard.shard_index = static_cast<std::size_t>(
        value.at("shard_index").asInteger());
    validateShard(result.shard);
    result.chunk_begin = static_cast<std::size_t>(
        value.at("chunk_begin").asInteger());
    result.chunks = std::move(value.at("chunks").asArray());
    if (value.contains("metrics"))
        result.metrics = std::move(value.at("metrics"));
    return result;
}

namespace {

/** The canonical result document both execution paths emit. */
JsonValue
resultDocument(const SweepPlan &plan, JsonArray payloads)
{
    JsonObject object;
    object["format"] = JsonValue(kResultFormat);
    object["plan"] = toJson(plan);
    object["results"] = JsonValue(std::move(payloads));
    return JsonValue(std::move(object));
}

} // namespace

JsonValue
mergeShards(std::vector<ShardResult> shards)
{
    if (shards.empty())
        util::fatal("mergeShards() needs at least one partial");

    const SweepPlan &plan = shards.front().plan;
    const std::string plan_dump = toJson(plan).dump();
    const std::size_t shard_count = shards.front().shard.shard_count;
    const std::size_t chunk_count = planChunks(plan).size();

    if (shards.size() != shard_count) {
        util::fatal("merge expects ", shard_count, " partials (from "
                    "--shards ", shard_count, "), got ", shards.size());
    }

    std::vector<ShardResult *> by_index(shard_count, nullptr);
    for (ShardResult &shard : shards) {
        if (toJson(shard.plan).dump() != plan_dump) {
            util::fatal("cannot merge partials from different sweep "
                        "plans (domain/items/grain/seed/fingerprint "
                        "must all match)");
        }
        if (shard.shard.shard_count != shard_count)
            util::fatal("cannot merge partials with different shard "
                        "counts (", shard.shard.shard_count, " vs ",
                        shard_count, ")");
        const std::size_t index = shard.shard.shard_index;
        if (by_index[index] != nullptr)
            util::fatal("duplicate partial for shard ", index,
                        " -- refusing to merge overlapping results");
        by_index[index] = &shard;
    }

    JsonArray payloads;
    payloads.reserve(chunk_count);
    std::size_t next_chunk = 0;
    for (std::size_t index = 0; index < shard_count; ++index) {
        ShardResult &shard = *by_index[index];
        const util::IndexRange owned =
            shardChunkRange(chunk_count, shard.shard);
        if (shard.chunk_begin != owned.begin ||
            shard.chunks.size() != owned.size()) {
            util::fatal("partial for shard ", index, " covers chunks [",
                        shard.chunk_begin, ", ",
                        shard.chunk_begin + shard.chunks.size(),
                        ") but the plan assigns [", owned.begin, ", ",
                        owned.end, ")");
        }
        if (owned.begin != next_chunk)
            util::panic("shard chunk ranges do not tile the sweep");
        next_chunk = owned.end;
        payloads.insert(payloads.end(),
                        std::make_move_iterator(shard.chunks.begin()),
                        std::make_move_iterator(shard.chunks.end()));
    }
    if (next_chunk != chunk_count)
        util::panic("merged shards cover ", next_chunk, " of ",
                    chunk_count, " chunks");
    return resultDocument(plan, std::move(payloads));
}

JsonValue
fullSweepResult(const SweepPlan &plan,
                const JsonChunkEvaluator &evaluator)
{
    if (plan.items == 0)
        util::fatal("sweep plan '", plan.domain, "' has no items");
    JsonArray payloads(planChunks(plan).size());
    const std::vector<util::IndexRange> chunks = planChunks(plan);
    detail::runPlanChunks(
        plan, chunks, 0,
        [&](std::size_t chunk, util::IndexRange range) {
            util::Xorshift64Star rng(
                util::deriveSeed(plan.seed, chunk));
            payloads[chunk] = evaluator(chunk, range, rng);
        });
    return resultDocument(plan, std::move(payloads));
}

} // namespace act::sweep
