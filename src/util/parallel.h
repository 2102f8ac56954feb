/**
 * @file
 * A small, dependency-free deterministic parallel execution layer for
 * the DSE hot loops (Monte Carlo, tornado sweeps, design-space
 * evaluation, scoreboard construction).
 *
 * Design contract -- determinism first:
 *  - Work is split into *static* chunks (`staticChunks`) whose
 *    boundaries depend only on the iteration range and grain, never on
 *    the thread count. Threads pull chunks dynamically, but which chunk
 *    produced which result is fixed, so a caller that stores one
 *    partial per chunk index and folds them in chunk order gets
 *    bit-identical output for any thread count (including 1, the
 *    serial fallback). `runChunks` is the pool's one entry point;
 *    sweep::runSweep is the ordered map/reduce built on it.
 *  - The thread pool is lazily started on first parallel call, is
 *    shared process-wide and is never torn down: exit() leaves its
 *    idle workers alone. Nested parallel calls from inside a pool task
 *    (on a worker or on the submitting thread) degrade to serial
 *    execution rather than deadlocking.
 *  - The worker count resolves as: programmatic override
 *    (`setThreadCount`) > `ACT_THREADS` environment variable >
 *    `std::thread::hardware_concurrency()`.
 *
 * Bodies passed to runChunks run concurrently and must be
 * thread-safe (pure functions over disjoint output slots are the
 * intended usage).
 */

#ifndef ACT_UTIL_PARALLEL_H
#define ACT_UTIL_PARALLEL_H

#include <cstddef>
#include <functional>
#include <vector>

namespace act::util {

/**
 * Effective worker count for parallel sections: the `setThreadCount`
 * override when set, else `ACT_THREADS` (parsed once), else the
 * hardware concurrency; always at least 1.
 */
std::size_t threadCount();

/**
 * Override the worker count for subsequent parallel sections. Pass 0 to
 * restore automatic resolution (ACT_THREADS / hardware concurrency).
 * Thread-safe; existing pool workers are retained but idle when the
 * count shrinks.
 */
void setThreadCount(std::size_t count);

/** A half-open index range [begin, end). */
struct IndexRange
{
    std::size_t begin = 0;
    std::size_t end = 0;

    std::size_t size() const { return end - begin; }
};

/**
 * Split [begin, end) into consecutive chunks of @p grain indices (the
 * last chunk may be short). With grain 0 an automatic grain is chosen
 * as a function of the range size only, so chunk boundaries -- and
 * therefore reduction order -- never depend on the thread count.
 */
std::vector<IndexRange> staticChunks(std::size_t begin, std::size_t end,
                                     std::size_t grain);

/**
 * Invoke @p body(chunk_index, range) once per chunk, distributing
 * chunks over the pool. Blocks until every chunk completed. Runs
 * serially when the effective thread count is 1, the range has a single
 * chunk, or the caller is itself running a pool task.
 */
void runChunks(const std::vector<IndexRange> &chunks,
               const std::function<void(std::size_t, IndexRange)> &body);

} // namespace act::util

#endif // ACT_UTIL_PARALLEL_H
