/**
 * @file
 * Shard heartbeats: the `act.heartbeat.v1` sidecar document a running
 * sweep shard writes periodically so an operator (or `act status`) can
 * watch a multi-process fleet without touching the result path.
 *
 *   {
 *     "format": "act.heartbeat.v1",
 *     "domain": "cpa_montecarlo",
 *     "shard_index": 1, "shard_count": 3,
 *     "items_done": 4096, "items_total": 10000,
 *     "chunks_done": 2, "chunks_total": 5,
 *     "items_per_sec": 81920.0,
 *     "rss_mb": 24.6,
 *     "start_wall_s": 1754640000.5,    // Unix seconds
 *     "update_wall_s": 1754640012.25,
 *     "done": false
 *   }
 *
 * Overhead contract: the writer is time-gated (default once per
 * second) and entirely off the hot path -- progress updates are one
 * relaxed atomic add per *chunk*, the interval check is one steady-
 * clock read, and the file write (atomic temp + rename, so a reader
 * never sees a torn document) happens on at most one thread at a time
 * and at most once per interval. A shard that crashes simply stops
 * updating; `act status` flags the stale file instead of hanging.
 */

#ifndef ACT_OBS_HEARTBEAT_H
#define ACT_OBS_HEARTBEAT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "config/json.h"

namespace act::obs {

/** The "format" field every act.heartbeat.v1 document carries. */
extern const char *const kHeartbeatFormat;

/** Suffix heartbeat sidecar files use, so directories can be
 *  scanned for them (`act status <dir>`). */
extern const char *const kHeartbeatSuffix;

/** One shard's progress report. */
struct Heartbeat
{
    std::string domain;
    std::size_t shard_index = 0;
    std::size_t shard_count = 1;
    std::uint64_t items_done = 0;
    std::uint64_t items_total = 0;
    std::size_t chunks_done = 0;
    std::size_t chunks_total = 0;
    double items_per_sec = 0.0;
    double rss_mb = 0.0;
    /** Unix wall-clock seconds of the shard's start / this update. */
    double start_wall_s = 0.0;
    double update_wall_s = 0.0;
    bool done = false;

    double
    fractionDone() const
    {
        return items_total == 0
                   ? 0.0
                   : static_cast<double>(items_done) /
                         static_cast<double>(items_total);
    }
};

config::JsonValue toJson(const Heartbeat &heartbeat);

/** Throws config::JsonTypeError on a mistyped field, and on a count
 *  field that is not a non-negative integer. */
Heartbeat heartbeatFromJson(const config::JsonValue &value);

/** Unix wall-clock time in seconds (sub-second resolution). */
double wallClockSeconds();

/** This process's resident set size in MB; 0 when unavailable. */
double processRssMb();

/** The sidecar path for a partial-result path: `x.json` ->
 *  `x.heartbeat.json`, anything else gets the suffix appended. */
std::string heartbeatPathFor(const std::string &partial_path);

/**
 * Time-gated atomic writer for one shard's heartbeat file. Thread-
 * safe: any worker may call beat(); writes are serialized and
 * throttled to the configured interval (forced writes skip the gate,
 * for the initial and final documents).
 */
class HeartbeatWriter
{
  public:
    HeartbeatWriter(std::string path, double interval_s);

    /** True when the interval since the last write has elapsed, so a
     *  non-forced beat() would write. Lets callers skip building a
     *  beat the gate would drop. */
    bool due() const;

    /** Write @p heartbeat if the interval elapsed (or @p force). */
    void beat(const Heartbeat &heartbeat, bool force = false);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    std::uint64_t interval_ns_;
    /** Steady-clock ns timestamp of the last write; the gate. */
    std::atomic<std::uint64_t> last_write_ns_{0};
    std::mutex write_mutex_;
};

/**
 * Load every `*.heartbeat.json` under @p directory (non-recursive),
 * sorted by filename; unparseable files warn and are skipped. Fatal
 * when the directory cannot be read.
 */
std::vector<std::pair<std::string, Heartbeat>>
loadHeartbeatDirectory(const std::string &directory);

/**
 * Render the fleet table `act status` prints: one row per shard with
 * a progress bar, rate, ETA, memory, heartbeat age, and state. State
 * is `done` when the shard finished, `DEAD` when the last update is
 * older than @p stale_after_s, `straggler` when a live shard's
 * progress falls below half the live median, else `running`.
 * @p now_wall_s is a parameter (not the clock) so renders are
 * reproducible in tests.
 */
std::string renderFleetTable(
    const std::vector<std::pair<std::string, Heartbeat>> &heartbeats,
    double now_wall_s, double stale_after_s);

} // namespace act::obs

#endif // ACT_OBS_HEARTBEAT_H
