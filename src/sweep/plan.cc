#include "sweep/plan.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "util/logging.h"

namespace act::sweep {

using config::JsonObject;
using config::JsonValue;

SweepPlan
SweepPlan::map(std::string domain, std::size_t items)
{
    SweepPlan plan;
    plan.domain = std::move(domain);
    plan.items = items;
    return plan;
}

std::vector<util::IndexRange>
planChunks(const SweepPlan &plan)
{
    // staticChunks' automatic grain is a function of the range size
    // only, so the layout is reproducible across shards and hosts.
    return util::staticChunks(0, plan.items, plan.grain);
}

namespace {

/**
 * Seeds are 64-bit but JSON numbers are doubles, exact only up to
 * 2^53. Integral seeds in that range serialize as numbers; larger
 * ones as decimal strings, and the parser accepts both.
 */
JsonValue
seedToJson(std::uint64_t seed)
{
    constexpr std::uint64_t kExactDoubleMax = 1ull << 53;
    if (seed <= kExactDoubleMax)
        return JsonValue(static_cast<double>(seed));
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%" PRIu64, seed);
    return JsonValue(std::string(buffer));
}

std::uint64_t
seedFromJson(const JsonValue &plan)
{
    const JsonValue &value = plan.at("seed");
    if (value.isString()) {
        const std::string &text = value.asString();
        char *tail = nullptr;
        const unsigned long long parsed =
            std::strtoull(text.c_str(), &tail, 10);
        if (tail == text.c_str() || *tail != '\0')
            util::fatal("sweep plan seed '", text,
                        "' is not an unsigned integer");
        return parsed;
    }
    return plan.countAt("seed");
}

} // namespace

JsonValue
toJson(const SweepPlan &plan)
{
    JsonObject object;
    object["domain"] = JsonValue(plan.domain);
    object["items"] = JsonValue(static_cast<double>(plan.items));
    object["grain"] = JsonValue(static_cast<double>(plan.grain));
    object["seed"] = seedToJson(plan.seed);
    object["fingerprint"] = JsonValue(plan.fingerprint);
    object["config"] = plan.config;
    return JsonValue(std::move(object));
}

SweepPlan
sweepPlanFromJson(const JsonValue &value)
{
    SweepPlan plan;
    if (!value.contains("domain"))
        util::fatal("sweep plan needs a 'domain' key");
    plan.domain = value.at("domain").asString();
    if (plan.domain.empty())
        util::fatal("sweep plan 'domain' must not be empty");
    plan.items = value.countOr("items", 0);
    plan.grain = value.countOr("grain", 0);
    if (value.contains("seed"))
        plan.seed = seedFromJson(value);
    plan.fingerprint = value.stringOr("fingerprint", "");
    if (value.contains("config"))
        plan.config = value.at("config");
    return plan;
}

void
validateShard(const ShardSpec &shard)
{
    if (shard.shard_count < 1)
        util::fatal("shard count must be at least 1, got ",
                    shard.shard_count);
    if (shard.shard_index >= shard.shard_count)
        util::fatal("shard index ", shard.shard_index,
                    " out of range for ", shard.shard_count, " shards");
}

util::IndexRange
shardChunkRange(std::size_t chunk_count, const ShardSpec &shard)
{
    validateShard(shard);
    // Contiguous slices: shard i of N owns [floor(C*i/N),
    // floor(C*(i+1)/N)), which partitions the chunks exactly.
    const std::size_t begin =
        chunk_count * shard.shard_index / shard.shard_count;
    const std::size_t end =
        chunk_count * (shard.shard_index + 1) / shard.shard_count;
    return {begin, end};
}

} // namespace act::sweep
