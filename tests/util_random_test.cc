/** @file Tests for the deterministic PRNG and its distributions. */

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/stats.h"

namespace act::util {
namespace {

TEST(Random, DeterministicForFixedSeed)
{
    Xorshift64Star a(7);
    Xorshift64Star b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Xorshift64Star c(8);
    EXPECT_NE(a.next(), c.next());
}

TEST(Random, ZeroSeedIsRemappedToOne)
{
    // Zero is the xorshift fixed point; the constructor must remap it
    // to 1 rather than emit zeros forever.
    Xorshift64Star from_zero(0);
    Xorshift64Star from_one(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(from_zero.next(), from_one.next());
}

TEST(Random, UnitValuesStayInRange)
{
    Xorshift64Star rng(1);
    for (int i = 0; i < 10'000; ++i) {
        const double u = rng.nextUnit();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, NextBelowCoversAndBounds)
{
    Xorshift64Star rng(2);
    std::vector<bool> seen(10, false);
    for (int i = 0; i < 10'000; ++i) {
        const std::uint64_t v = rng.nextBelow(10);
        ASSERT_LT(v, 10u);
        seen[v] = true;
    }
    for (bool hit : seen)
        EXPECT_TRUE(hit);
    EXPECT_EXIT(rng.nextBelow(0), ::testing::ExitedWithCode(1), "");
}

TEST(Random, UniformMeanConverges)
{
    Xorshift64Star rng(3);
    double sum = 0.0;
    constexpr int kSamples = 100'000;
    for (int i = 0; i < kSamples; ++i)
        sum += rng.nextUniform(10.0, 20.0);
    EXPECT_NEAR(sum / kSamples, 15.0, 0.05);
}

TEST(Random, NormalMomentsConverge)
{
    Xorshift64Star rng(4);
    constexpr int kSamples = 100'000;
    std::vector<double> samples;
    samples.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i)
        samples.push_back(rng.nextNormal(5.0, 2.0));
    EXPECT_NEAR(mean(samples), 5.0, 0.05);
    EXPECT_NEAR(stddev(samples), 2.0, 0.05);
}

TEST(Random, LogNormalMedianAndPositivity)
{
    Xorshift64Star rng(5);
    constexpr int kSamples = 100'001;
    std::vector<double> samples;
    samples.reserve(kSamples);
    for (int i = 0; i < kSamples; ++i) {
        const double v = rng.nextLogNormal(100.0, 1.5);
        EXPECT_GT(v, 0.0);
        samples.push_back(v);
    }
    std::sort(samples.begin(), samples.end());
    EXPECT_NEAR(samples[kSamples / 2], 100.0, 2.0);
    EXPECT_EXIT(rng.nextLogNormal(0.0, 1.5),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(rng.nextLogNormal(1.0, 1.0),
                ::testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace act::util
