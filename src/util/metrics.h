/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms that any layer can update from any thread,
 * plus a snapshot and an end-of-run table (via util/table) that bench
 * binaries and the CLI print.
 *
 * Overhead contract:
 *  - Counters and gauges are always live: an update is one relaxed
 *    atomic load + store (counters write a single-writer per-thread
 *    slab slot, so there is no locked RMW and no line shared between
 *    writers). Model-level statistics (e.g. the Eq. 1-8 evaluation counts)
 *    therefore work even when metrics emission is off.
 *  - Histogram summary statistics (count/sum/min/max) are always live
 *    too, so snapshot means survive with metrics emission off. Bucket
 *    collection -- and any *measurement* feeding an observe (clock
 *    reads, per-chunk bookkeeping) -- is gated behind
 *    `metricsEnabled()`, a single relaxed atomic flag. With
 *    `ACT_METRICS` unset the cost of an instrumented code path is one
 *    relaxed load and a branch.
 *  - Registration (`counter()`, `gauge()`, `histogram()`) takes a lock
 *    and is intended for cold paths; call sites cache the returned
 *    reference, which stays valid for the life of the process (the
 *    registry is intentionally leaked so worker threads may update
 *    metrics during static destruction).
 *
 * Enable with `ACT_METRICS=1` in the environment, the `--metrics` flag
 * on the bench binaries / CLI, or `util::setMetricsEnabled(true)`.
 */

#ifndef ACT_UTIL_METRICS_H
#define ACT_UTIL_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace act::util {

/** True when metrics collection (histograms, timed sections) is on. */
bool metricsEnabled();

/** Turn metrics collection on or off at runtime. */
void setMetricsEnabled(bool enabled);

namespace detail {

/** Counter ids at or above this spill to a shared atomic slot. */
constexpr std::size_t kCounterSlabSlots = 256;

/**
 * Per-thread counter storage: one single-writer slot per counter id,
 * so the hot-path update is a relaxed load + store (no locked RMW).
 * `value()` sums the slot across every slab ever registered; slabs
 * outlive their thread (shared_ptr keepalive in the slab registry).
 */
struct CounterSlab
{
    std::atomic<std::uint64_t> values[kCounterSlabSlots];
};

/** Register (once) and return the calling thread's slab. */
CounterSlab *registerCounterSlab();

inline CounterSlab *
tlsCounterSlab()
{
    // Trivially-initialized thread_local: no init guard on the fast
    // path beyond the null check.
    thread_local CounterSlab *slab = nullptr;
    if (slab == nullptr)
        slab = registerCounterSlab();
    return slab;
}

} // namespace detail

/** A monotonically increasing count; always live, never gated. */
class Counter
{
  public:
    Counter();
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void
    add(std::uint64_t n = 1)
    {
        if (id_ < detail::kCounterSlabSlots) {
            std::atomic<std::uint64_t> &slot =
                detail::tlsCounterSlab()->values[id_];
            slot.store(slot.load(std::memory_order_relaxed) + n,
                       std::memory_order_relaxed);
        } else {
            spill_.fetch_add(n, std::memory_order_relaxed);
        }
    }

    std::uint64_t value() const;

    /** Zero the counter. Approximate when adds race the reset. */
    void reset();

  private:
    /** Slot index in every thread's slab, assigned at construction. */
    std::size_t id_;
    /** Shared fallback once the per-thread slabs are exhausted. */
    std::atomic<std::uint64_t> spill_{0};
};

/** A last-value-wins instantaneous measurement; always live. */
class Gauge
{
  public:
    Gauge() = default;
    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void
    set(double value)
    {
        value_.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * A fixed-bucket histogram. Bucket upper bounds are set at registration
 * (ascending; one implicit overflow bucket is appended). `observe()`
 * always records count/sum/min/max (like a counter); the bucket scan
 * is skipped while `metricsEnabled()` is false.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<double> bucket_bounds);
    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void observe(double value);

    std::uint64_t count() const;
    double sum() const;
    double min() const;
    double max() const;

    const std::vector<double> &bounds() const { return bounds_; }

    /** Cumulative bucket counts at snapshot time (bounds + overflow). */
    std::vector<std::uint64_t> bucketCounts() const;

    /**
     * Quantile estimate by linear interpolation inside the bucket that
     * holds the requested rank (the observed min/max clamp the first
     * and overflow buckets). 0 when empty.
     */
    double quantile(double q) const;

    /** Zero every bucket and statistic. Approximate under racing
     *  observes, like Counter::reset(). */
    void reset();

  private:
    std::vector<double> bounds_;
    std::vector<std::atomic<std::uint64_t>> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_{0.0};
    std::atomic<double> max_{0.0};
};

/** One rendered histogram in a MetricsSnapshot. */
struct HistogramSnapshot
{
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    /** (upper bound, count) pairs; the last bound is +infinity. */
    std::vector<std::pair<double, std::uint64_t>> buckets;

    double
    mean() const
    {
        return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
};

/** A point-in-time copy of every registered metric. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<HistogramSnapshot> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
};

/**
 * The process-wide registry. Metric objects are created on first
 * request for a name and live for the rest of the process; requesting
 * an existing name returns the same object (a histogram's bounds are
 * fixed by the first registration).
 */
class MetricsRegistry
{
  public:
    static MetricsRegistry &instance();

    Counter &counter(std::string_view name);
    Gauge &gauge(std::string_view name);
    Histogram &histogram(std::string_view name,
                         std::vector<double> bucket_bounds = {});

    MetricsSnapshot snapshot() const;

    /** ASCII table (util/table) of every metric, sorted by name. */
    std::string renderTable() const;

  private:
    MetricsRegistry();
    ~MetricsRegistry() = delete; // intentionally leaked

    struct Impl;
    Impl *impl_;
};

/**
 * The default duration bucket ladder, in microseconds: a 1/2/5 decade
 * ladder from 1 us to 10 s, suiting everything from a single chunk to
 * a whole sweep.
 */
std::vector<double> latencyBucketsUs();

} // namespace act::util

#endif // ACT_UTIL_METRICS_H
