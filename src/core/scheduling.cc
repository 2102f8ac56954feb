#include "core/scheduling.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace act::core {

namespace {

void
checkLoad(const DailyLoad &load)
{
    const double baseline_w = util::asWatts(load.baseline);
    if (!std::isfinite(baseline_w))
        util::fatal("baseline power must be finite, got ", baseline_w,
                    " W");
    if (baseline_w < 0.0)
        util::fatal("baseline power must be non-negative");
    const double energy_kwh =
        util::asKilowattHours(load.deferrable_energy);
    if (!std::isfinite(energy_kwh))
        util::fatal("deferrable energy must be finite, got ", energy_kwh,
                    " kWh");
    if (energy_kwh < 0.0)
        util::fatal("deferrable energy must be non-negative");
    const double capacity_w = util::asWatts(load.deferrable_capacity);
    if (!std::isfinite(capacity_w) || capacity_w < 0.0) {
        util::fatal("deferrable capacity must be a non-negative finite "
                    "power, got ", capacity_w, " W");
    }
    if (capacity_w == 0.0 && energy_kwh > 0.0) {
        util::fatal("deferrable capacity is zero but ", energy_kwh,
                    " kWh of deferrable energy must still be placed");
    }
    // Per-day check; scales 1:1 with the series span, so it also
    // bounds the tiled total against the tiled capacity.
    const util::Energy daily_capacity =
        load.deferrable_capacity * util::hours(24.0);
    if (load.deferrable_energy > daily_capacity) {
        util::fatal("deferrable energy (",
                    util::asKilowattHours(load.deferrable_energy),
                    " kWh) exceeds the daily deferrable capacity (",
                    util::asKilowattHours(daily_capacity), " kWh)");
    }
}

/** The per-day load tiled over the whole series span. */
util::Energy
tiledEnergy(const DailyLoad &load, const data::IntensitySeries &series)
{
    return load.deferrable_energy * (series.durationHours() / 24.0);
}

/** Greedily fill @p order (greenest first), each sample capped at
 *  capacity x step. */
void
placeGreedy(std::vector<util::Energy> &placement, util::Energy remaining,
            util::Energy sample_capacity,
            const std::vector<std::size_t> &order)
{
    for (std::size_t sample : order) {
        if (util::asKilowattHours(remaining) <= 0.0)
            break;
        const util::Energy placed =
            std::min(remaining, sample_capacity);
        placement[sample] = placed;
        remaining -= placed;
    }
}

/** Sample indices of [begin, end) sorted greenest-first with a full
 *  (value, index) tie-break -- deterministic independent of the sort
 *  implementation. */
std::vector<std::size_t>
windowByIntensity(const data::IntensitySeries &series, std::size_t begin,
                  std::size_t end)
{
    std::vector<std::size_t> order(end - begin);
    std::iota(order.begin(), order.end(), begin);
    std::sort(order.begin(), order.end(),
              [&series](std::size_t a, std::size_t b) {
                  if (series.gramsAt(a) != series.gramsAt(b))
                      return series.gramsAt(a) < series.gramsAt(b);
                  return a < b;
              });
    return order;
}

void
placeDeadlineBounded(std::vector<util::Energy> &placement,
                     const DailyLoad &load,
                     const data::IntensitySeries &series,
                     std::size_t window)
{
    if (window == 0) {
        util::fatal("deadline-bounded scheduling needs a positive "
                    "deadline window (PolicySpec::deadline_samples)");
    }
    const std::size_t n = series.size();
    const util::Energy total = tiledEnergy(load, series);
    const util::Energy sample_capacity =
        load.deferrable_capacity * series.step();
    for (std::size_t begin = 0; begin < n; begin += window) {
        const std::size_t end = std::min(n, begin + window);
        // Work arriving in this window must finish inside it; each
        // window owes its length-proportional share of the total.
        util::Energy remaining =
            total * (static_cast<double>(end - begin) /
                     static_cast<double>(n));
        const auto order = windowByIntensity(series, begin, end);
        for (std::size_t sample : order) {
            if (util::asKilowattHours(remaining) <= 0.0)
                break;
            const util::Energy placed =
                std::min(remaining, sample_capacity);
            placement[sample] = placed;
            remaining -= placed;
        }
        // Rounding dust (the proportional share can exceed the window
        // capacity by an ulp): conserve energy in the dirtiest sample.
        if (util::asKilowattHours(remaining) > 0.0)
            placement[order.back()] += remaining;
    }
}

SeriesSchedule
finalize(const DailyLoad &load, const data::IntensitySeries &series,
         SeriesSchedule result)
{
    const util::Energy per_sample = load.baseline * series.step();
    result.baseline_footprint = util::Mass{};
    for (std::size_t s = 0; s < series.size(); ++s)
        result.baseline_footprint += series.at(s) * per_sample;
    result.deferrable_footprint = util::Mass{};
    for (std::size_t s = 0; s < series.size(); ++s)
        result.deferrable_footprint += series.at(s) * result.placement[s];
    return result;
}

} // namespace

PolicySpec
policyByName(std::string_view name)
{
    if (name == "uniform")
        return {DeferralPolicy::Uniform, 0};
    if (name == "greedy")
        return {DeferralPolicy::GreedyGreenest, 0};
    if (name == "deadline")
        return {DeferralPolicy::DeadlineBounded, 6};
    if (name == "migrate")
        return {DeferralPolicy::GreenestRegion, 0};
    util::fatal("unknown deferral policy '", name,
                "' (expected 'uniform', 'greedy', 'deadline', or "
                "'migrate')");
}

std::string_view
policyName(DeferralPolicy kind)
{
    switch (kind) {
    case DeferralPolicy::Uniform: return "uniform";
    case DeferralPolicy::GreedyGreenest: return "greedy";
    case DeferralPolicy::DeadlineBounded: return "deadline";
    case DeferralPolicy::GreenestRegion: return "migrate";
    }
    util::fatal("unknown deferral policy kind");
}

SeriesSchedule
schedule(const DailyLoad &load, const data::IntensitySeries &series,
         const PolicySpec &policy)
{
    checkLoad(load);
    const std::size_t n = series.size();
    SeriesSchedule result;
    result.placement.assign(n, util::Energy{});

    switch (policy.kind) {
    case DeferralPolicy::Uniform: {
        const util::Energy per_sample =
            tiledEnergy(load, series) / static_cast<double>(n);
        std::fill(result.placement.begin(), result.placement.end(),
                  per_sample);
        break;
    }
    case DeferralPolicy::GreedyGreenest:
        placeGreedy(result.placement, tiledEnergy(load, series),
                    load.deferrable_capacity * series.step(),
                    series.samplesByIntensity());
        break;
    case DeferralPolicy::DeadlineBounded:
        placeDeadlineBounded(result.placement, load, series,
                             policy.deadline_samples);
        break;
    case DeferralPolicy::GreenestRegion:
        util::fatal("the cross-region policy schedules via "
                    "scheduleAcrossRegions(), not schedule()");
    }
    return finalize(load, series, result);
}

MultiRegionSchedule
scheduleAcrossRegions(const DailyLoad &load,
                      const std::vector<data::IntensitySeries> &regions)
{
    if (regions.empty())
        util::fatal("cross-region scheduling needs at least one region");
    checkLoad(load);
    const std::size_t n = regions.front().size();
    const double step_hours = regions.front().stepHours();
    for (const data::IntensitySeries &series : regions) {
        if (series.size() != n || series.stepHours() != step_hours) {
            util::fatal("regional intensity series must share length "
                        "and step; got ", series.size(), " x ",
                        series.stepHours(), " h vs ", n, " x ",
                        step_hours, " h");
        }
    }

    MultiRegionSchedule result;
    result.placement.assign(regions.size(),
                            std::vector<util::Energy>(n, util::Energy{}));

    // Greenest slot across all regions first; ties break by
    // (region, sample) so the order is implementation-independent.
    std::vector<std::size_t> slots(regions.size() * n);
    std::iota(slots.begin(), slots.end(), 0u);
    const auto grams = [&regions, n](std::size_t slot) {
        return regions[slot / n].gramsAt(slot % n);
    };
    std::sort(slots.begin(), slots.end(),
              [&grams](std::size_t a, std::size_t b) {
                  if (grams(a) != grams(b))
                      return grams(a) < grams(b);
                  return a < b;
              });

    util::Energy remaining = tiledEnergy(load, regions.front());
    const util::Energy slot_capacity =
        load.deferrable_capacity * regions.front().step();
    for (std::size_t slot : slots) {
        if (util::asKilowattHours(remaining) <= 0.0)
            break;
        const util::Energy placed = std::min(remaining, slot_capacity);
        result.placement[slot / n][slot % n] = placed;
        remaining -= placed;
    }

    const data::IntensitySeries &home = regions.front();
    const util::Energy per_sample = load.baseline * home.step();
    for (std::size_t s = 0; s < n; ++s)
        result.baseline_footprint += home.at(s) * per_sample;
    for (std::size_t r = 0; r < regions.size(); ++r) {
        for (std::size_t s = 0; s < n; ++s) {
            result.deferrable_footprint +=
                regions[r].at(s) * result.placement[r][s];
        }
    }
    return result;
}

} // namespace act::core
