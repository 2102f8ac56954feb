/** @file Tests for the deterministic parallel execution layer. */

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dse/montecarlo.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace act::util {
namespace {

/** Thread counts the determinism contract is exercised at. */
std::vector<std::size_t>
contractThreadCounts()
{
    const std::size_t hardware = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    return {1, 2, 7, hardware};
}

/** Restore automatic thread-count resolution after each test. */
class ParallelTest : public ::testing::Test
{
  protected:
    void TearDown() override { setThreadCount(0); }
};

TEST_F(ParallelTest, ThreadCountOverrideRoundTrips)
{
    setThreadCount(3);
    EXPECT_EQ(threadCount(), 3u);
    setThreadCount(0);
    EXPECT_GE(threadCount(), 1u);
}

TEST_F(ParallelTest, StaticChunksTileTheRangeExactly)
{
    const auto chunks = staticChunks(3, 25, 5);
    ASSERT_EQ(chunks.size(), 5u);
    std::size_t expected = 3;
    for (const IndexRange &range : chunks) {
        EXPECT_EQ(range.begin, expected);
        expected = range.end;
    }
    EXPECT_EQ(expected, 25u);
    EXPECT_EQ(chunks.back().size(), 2u);

    EXPECT_TRUE(staticChunks(4, 4, 8).empty());
}

TEST_F(ParallelTest, AutomaticGrainIsThreadCountIndependent)
{
    setThreadCount(1);
    const auto serial = staticChunks(0, 1000, 0);
    setThreadCount(7);
    const auto parallel = staticChunks(0, 1000, 0);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].begin, parallel[i].begin);
        EXPECT_EQ(serial[i].end, parallel[i].end);
    }
}

TEST_F(ParallelTest, RunChunksVisitsEveryIndexExactlyOnce)
{
    for (const std::size_t threads : contractThreadCounts()) {
        setThreadCount(threads);
        std::vector<std::atomic<int>> visits(1000);
        std::vector<std::atomic<int>> chunk_calls(
            staticChunks(0, visits.size(), 16).size());
        runChunks(staticChunks(0, visits.size(), 16),
                  [&](std::size_t chunk, IndexRange range) {
                      chunk_calls[chunk].fetch_add(1);
                      for (std::size_t i = range.begin; i < range.end;
                           ++i)
                          visits[i].fetch_add(1);
                  });
        for (const auto &count : visits)
            EXPECT_EQ(count.load(), 1);
        for (const auto &count : chunk_calls)
            EXPECT_EQ(count.load(), 1);
    }
}

TEST_F(ParallelTest, NestedParallelSectionsFallBackToSerial)
{
    setThreadCount(4);
    std::atomic<int> total{0};
    runChunks(staticChunks(0, 8, 1), [&](std::size_t, IndexRange) {
        // Inner section runs serially on the worker; must not hang.
        runChunks(staticChunks(0, 10, 1),
                  [&](std::size_t, IndexRange) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 80);
}

TEST_F(ParallelTest, NestedSectionOnTheSubmitterRunsSerially)
{
    // The submitting thread drains chunks too. Every other chunk waits
    // until the submitter's first chunk has run a nested section, so
    // the submitter is sure to claim a chunk and to nest from it.
    setThreadCount(4);
    const std::thread::id submitter = std::this_thread::get_id();
    std::atomic<bool> nested_done{false};
    std::atomic<int> inner{0};
    runChunks(staticChunks(0, 256, 1), [&](std::size_t, IndexRange) {
        if (std::this_thread::get_id() != submitter) {
            while (!nested_done.load())
                std::this_thread::yield();
            return;
        }
        if (nested_done.load())
            return;
        runChunks(staticChunks(0, 10, 1),
                  [&](std::size_t, IndexRange) { inner.fetch_add(1); });
        nested_done.store(true);
    });
    EXPECT_TRUE(nested_done.load());
    EXPECT_EQ(inner.load(), 10);
}

/**
 * fatal() from pool workers ends the process with exit code 1 and one
 * message, even when several workers fail at once. The suite is a
 * death-test suite, so gtest runs it before any test starts the pool.
 */
TEST(ParallelDeathTest, FatalOnAWorkerExitsOne)
{
    EXPECT_EXIT(
        {
            setThreadCount(4);
            const std::thread::id submitter = std::this_thread::get_id();
            runChunks(staticChunks(0, 256, 1),
                      [&](std::size_t chunk, IndexRange) {
                          // The submitter's chunk waits for a worker's
                          // fatal().
                          while (std::this_thread::get_id() == submitter)
                              std::this_thread::sleep_for(
                                  std::chrono::milliseconds(1));
                          fatal("chunk ", chunk, " failed");
                      });
        },
        ::testing::ExitedWithCode(1), "^fatal: chunk [0-9]+ failed\n$");
}

TEST_F(ParallelTest, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(deriveSeed(42, 0), deriveSeed(42, 0));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(42, 1));
    EXPECT_NE(deriveSeed(42, 0), deriveSeed(43, 0));

    // Streams should look independent: means of adjacent streams stay
    // near 1/2 (a weak but fast independence smoke test).
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
        Xorshift64Star rng(deriveSeed(7, stream));
        double sum = 0.0;
        for (int draw = 0; draw < 4096; ++draw)
            sum += rng.nextUnit();
        EXPECT_NEAR(sum / 4096.0, 0.5, 0.03);
    }
}

TEST_F(ParallelTest, MonteCarloIsIdenticalForAnyThreadCount)
{
    const std::vector<dse::UncertainParameter> parameters = {
        {"a", dse::Distribution::Uniform, 0.5, 0.0, 1.0},
        {"b", dse::Distribution::Triangular, 0.6, 0.0, 1.0},
    };
    const auto model = [](const std::vector<double> &v) {
        return v[0] * v[1] + v[0];
    };

    setThreadCount(1);
    const auto reference = dse::monteCarlo(parameters, model, 20'000, 9);
    for (const std::size_t threads : contractThreadCounts()) {
        setThreadCount(threads);
        const auto result = dse::monteCarlo(parameters, model, 20'000, 9);
        EXPECT_EQ(result.mean, reference.mean);
        EXPECT_EQ(result.stddev, reference.stddev);
        EXPECT_EQ(result.p5, reference.p5);
        EXPECT_EQ(result.p50, reference.p50);
        EXPECT_EQ(result.p95, reference.p95);
        EXPECT_EQ(result.min, reference.min);
        EXPECT_EQ(result.max, reference.max);
    }
}

TEST_F(ParallelTest, MonteCarloChunkedStreamsMatchAnalyticMoments)
{
    // The chunked per-stream sampler is a (documented) behavior change
    // from the old single sequential stream; the sampled distribution
    // must still match analytic moments within tight tolerance.
    const std::vector<dse::UncertainParameter> parameters = {
        {"a", dse::Distribution::Uniform, 0.5, 0.0, 1.0},
        {"b", dse::Distribution::Uniform, 0.5, 0.0, 1.0},
    };
    setThreadCount(4);
    const auto result = dse::monteCarlo(
        parameters,
        [](const std::vector<double> &v) { return v[0] + v[1]; },
        50'000);
    EXPECT_NEAR(result.mean, 1.0, 0.01);
    EXPECT_NEAR(result.stddev, std::sqrt(1.0 / 6.0), 0.01);
    EXPECT_NEAR(result.p50, 1.0, 0.02);
}

} // namespace
} // namespace act::util
