/**
 * @file
 * Tests for the SIMD dispatch layer and its kernels. The contract
 * under test is bit-identity (DESIGN.md §11): every vector kernel
 * must reproduce the scalar reference kernel's outputs exactly --
 * EXPECT_EQ on doubles throughout, no tolerances -- for every length,
 * including the ragged tails, and the multi-stream job draws must
 * emit each scalar generator's sequence in the scalar order.
 */

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"
#include "util/simd.h"
#include "util/simd_kernels.h"

namespace act::util::simd {
namespace {

/** Every level whose kernels this binary can safely execute. */
std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);
    return levels;
}

/** Lengths that exercise empty, sub-vector, and tail paths of the
 *  4-lane tier. */
const std::size_t kLengths[] = {0,  1,   2,   3,   4,    5,    7,
                                8,  15,  16,  17,  63,   64,   65,
                                96, 127, 128, 129, 255,  256,  257,
                                511, 1000, 4096, 6143};

/** Fill @p dst with @p n Xorshift64Star(seed).nextUnit() values. */
void
fillUnits(std::uint64_t seed, double *dst, std::size_t n)
{
    Xorshift64Star rng(seed);
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = rng.nextUnit();
}

TEST(SimdLevelTest, NamesRoundTrip)
{
    EXPECT_EQ(simdLevelFromName("scalar"), SimdLevel::Scalar);
    EXPECT_EQ(simdLevelFromName("avx2"), SimdLevel::Avx2);
    EXPECT_EQ(std::string(simdLevelName(SimdLevel::Scalar)), "scalar");
    EXPECT_EQ(std::string(simdLevelName(SimdLevel::Avx2)), "avx2");
}

TEST(SimdLevelTest, AutoAndGarbageResolveToDetected)
{
    EXPECT_EQ(simdLevelFromName("auto"), detectedSimdLevel());
    EXPECT_EQ(simdLevelFromName("turbo9000"), detectedSimdLevel());
    // The retired 2-lane tier's name warns like any other garbage.
    EXPECT_EQ(simdLevelFromName("sse2"), detectedSimdLevel());
}

TEST(SimdLevelTest, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simdLevelAvailable(SimdLevel::Scalar));
}

TEST(SimdLevelTest, SetSimdLevelInstallsAvailableLevels)
{
    const SimdLevel before = simdLevel();
    for (SimdLevel level : availableLevels())
        EXPECT_EQ(setSimdLevel(level), level);
    // Restore whatever the environment picked.
    setSimdLevel(before);
}

TEST(SimdKernelsTest, TableForEveryAvailableLevel)
{
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        EXPECT_NE(table.transform_uniform, nullptr);
        EXPECT_NE(table.eval_ratio, nullptr);
        EXPECT_NE(table.all_within, nullptr);
    }
}

TEST(SimdKernelsTest, TransformsMatchScalarReferenceBitwise)
{
    const KernelTable &scalar = scalarKernels();
    UniformTransform uniform;
    uniform.a = 365.0;
    uniform.ba = 335.0;

    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t stride : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}}) {
            for (std::size_t n : kLengths) {
                std::vector<double> units(n * stride + 1);
                fillUnits(5, units.data(), units.size());

                std::vector<double> expected(n), actual(n);
                scalar.transform_uniform(units.data(), stride, n,
                                         uniform, expected.data());
                table.transform_uniform(units.data(), stride, n,
                                        uniform, actual.data());
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(actual[i], expected[i])
                        << "uniform " << simdLevelName(level)
                        << " stride " << stride << " n " << n
                        << " index " << i;
                }
            }
        }
    }
}

/** Run eval_ratio on every level and require bitwise agreement with
 *  the scalar kernel. */
void
expectRatioMatchesScalar(const RatioTerms &terms, std::size_t n)
{
    std::vector<double> expected(n);
    scalarKernels().eval_ratio(terms, n, expected.data());
    for (SimdLevel level : availableLevels()) {
        std::vector<double> actual(n);
        kernels(level).eval_ratio(terms, n, actual.data());
        for (std::size_t i = 0; i < n; ++i) {
            ASSERT_EQ(actual[i], expected[i])
                << simdLevelName(level) << " recompute "
                << terms.recompute_gpa << " n " << n << " index "
                << i;
        }
    }
}

TEST(SimdKernelsTest, EvalRatioMatchesScalarReferenceBitwise)
{
    for (std::size_t n : kLengths) {
        std::vector<double> ci(n), yield(n), abatement(n);
        fillUnits(11, ci.data(), n);
        fillUnits(12, yield.data(), n);
        fillUnits(13, abatement.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
            ci[i] = 365.0 + 335.0 * ci[i];
            yield[i] = 0.8 + 0.15 * yield[i];
            abatement[i] = 0.90 + 0.10 * abatement[i];
        }
        const double epa = 1.6, gpa = 120.0, mpa = 500.0;

        // Column/constant mixes for both plan shapes.
        RatioTerms plain;
        plain.ci = {ci.data(), true};
        plain.epa = {&epa, false};
        plain.gpa = {&gpa, false};
        plain.mpa = {&mpa, false};
        plain.yield = {yield.data(), true};
        plain.abatement = {abatement.data(), true};
        expectRatioMatchesScalar(plain, n);

        RatioTerms recompute = plain;
        recompute.gpa95 = 100.0;
        recompute.gpa99 = 150.0;
        recompute.recompute_gpa = true;
        expectRatioMatchesScalar(recompute, n);

        RatioTerms constants = plain;
        const double ci0 = 500.0, yield0 = 0.9;
        constants.ci = {&ci0, false};
        constants.yield = {&yield0, false};
        expectRatioMatchesScalar(constants, n);
    }
}

TEST(SimdKernelsTest, AllWithinAgreesAcrossLevels)
{
    constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t n : kLengths) {
            std::vector<double> values(n, 0.95);
            EXPECT_TRUE(
                table.all_within(values.data(), n, 0.9, 1.0, false));
            EXPECT_TRUE(
                table.all_within(values.data(), n, 0.0, 1.0, true));
            // A violation anywhere -- head, vector body, tail -- and
            // NaN must all be caught.
            for (std::size_t bad : {std::size_t{0}, n / 2,
                                    n > 0 ? n - 1 : 0}) {
                if (n == 0)
                    continue;
                for (double poison : {2.0, -1.0, kNan}) {
                    values[bad] = poison;
                    EXPECT_FALSE(table.all_within(values.data(), n,
                                                  0.9, 1.0, false))
                        << simdLevelName(level) << " n " << n
                        << " bad " << bad << " poison " << poison;
                    values[bad] = 0.95;
                }
            }
            // Exclusive vs inclusive lower bound at the boundary.
            if (n > 0) {
                values[n / 2] = 0.0;
                EXPECT_TRUE(table.all_within(values.data(), n, 0.0,
                                             1.0, false));
                EXPECT_FALSE(table.all_within(values.data(), n, 0.0,
                                              1.0, true));
            }
        }
    }
}

TEST(SimdKernelsTest, FleetKernelsRegisteredForEveryLevel)
{
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        EXPECT_NE(table.job_units, nullptr);
        EXPECT_NE(table.power_grid_kw, nullptr);
        EXPECT_NE(table.window_costs, nullptr);
        EXPECT_NE(table.argmin_first, nullptr);
    }
}

TEST(SimdKernelsTest, JobUnitsEmitsEachStatesScalarSequence)
{
    // Lanes are independent generators (one per job); every lane must
    // reproduce its own Xorshift64Star::nextUnit() stream exactly,
    // draw-major in the output.
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t jobs : kLengths) {
            for (std::size_t draws :
                 {std::size_t{1}, std::size_t{6}}) {
                std::vector<std::uint64_t> states(jobs);
                for (std::size_t j = 0; j < jobs; ++j)
                    states[j] = (1000 + j) | 1;

                std::vector<double> out(draws * jobs);
                table.job_units(states.data(), jobs, draws,
                                out.data());
                for (std::size_t j = 0; j < jobs; ++j) {
                    Xorshift64Star reference(1000 + j);
                    for (std::size_t d = 0; d < draws; ++d) {
                        ASSERT_EQ(out[d * jobs + j],
                                  reference.nextUnit())
                            << simdLevelName(level) << " jobs "
                            << jobs << " job " << j << " draw " << d;
                    }
                }
            }
        }
    }
}

TEST(SimdKernelsTest, PowerGridKwMatchesScalarReferenceBitwise)
{
    PowerTransform tr;
    tr.idle_w = 90.0;
    tr.span_w = 415.0 - 90.0;
    tr.pue = 1.3;
    const KernelTable &scalar = scalarKernels();
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t n : kLengths) {
            std::vector<double> u(n);
            fillUnits(31, u.data(), n);
            std::vector<double> expected(n), actual(n);
            scalar.power_grid_kw(u.data(), n, tr, expected.data());
            table.power_grid_kw(u.data(), n, tr, actual.data());
            for (std::size_t i = 0; i < n; ++i) {
                ASSERT_EQ(actual[i], expected[i])
                    << simdLevelName(level) << " n " << n
                    << " index " << i;
            }
        }
    }
}

TEST(SimdKernelsTest, WindowCostsMatchScalarReferenceBitwise)
{
    // A small cyclic series with irregular values so wrap and
    // non-wrap windows differ; prefix and doubled arrays as the
    // fleet's RegionSeries builds them.
    constexpr std::size_t kSamples = 24;
    std::vector<double> grams(kSamples);
    const KernelTable &scalar = scalarKernels();
    fillUnits(67, grams.data(), kSamples);
    for (double &g : grams)
        g = 100.0 + 500.0 * g;
    std::vector<double> prefix(kSamples + 1, 0.0);
    for (std::size_t i = 0; i < kSamples; ++i)
        prefix[i + 1] = prefix[i] + grams[i];
    std::vector<double> grams2x(grams);
    grams2x.insert(grams2x.end(), grams.begin(), grams.end());

    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t start0 : {std::size_t{0}, std::size_t{5},
                                   std::size_t{23}, std::size_t{70}}) {
            for (std::size_t rem :
                 {std::size_t{0}, std::size_t{1}, std::size_t{11},
                  std::size_t{23}}) {
                // Counts below, at, and far beyond the series length
                // exercise every segment split and the s0 rewrap.
                for (std::size_t count :
                     {std::size_t{1}, std::size_t{2}, std::size_t{13},
                      std::size_t{24}, std::size_t{57}}) {
                    for (double tail : {0.0, 0.37}) {
                        WindowCostProblem problem;
                        problem.prefix = prefix.data();
                        problem.grams2x = grams2x.data();
                        problem.n = kSamples;
                        problem.start0 = start0;
                        problem.count = count;
                        problem.rem = rem;
                        problem.base = 2.0 * prefix[kSamples];
                        problem.step = 1.0;
                        problem.tail_hours = tail;

                        std::vector<double> expected(count),
                            actual(count);
                        scalar.window_costs(problem, expected.data());
                        table.window_costs(problem, actual.data());
                        for (std::size_t k = 0; k < count; ++k) {
                            ASSERT_EQ(actual[k], expected[k])
                                << simdLevelName(level) << " start0 "
                                << start0 << " rem " << rem
                                << " count " << count << " tail "
                                << tail << " shift " << k;
                        }
                    }
                }
            }
        }
    }
}

TEST(SimdKernelsTest, ArgminFirstReturnsEarliestMinimum)
{
    const KernelTable &scalar = scalarKernels();
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t n : kLengths) {
            if (n == 0)
                continue;
            std::vector<double> values(n);
            fillUnits(123, values.data(), n);
            EXPECT_EQ(table.argmin_first(values.data(), n),
                      scalar.argmin_first(values.data(), n))
                << simdLevelName(level) << " n " << n;

            // Ties must resolve to the earliest index, wherever the
            // duplicates land relative to the vector lanes.
            std::vector<double> tied(n, 5.0);
            EXPECT_EQ(table.argmin_first(tied.data(), n), 0u)
                << simdLevelName(level) << " all-equal n " << n;
            for (std::size_t lo : {std::size_t{0}, n / 3, n - 1}) {
                std::fill(tied.begin(), tied.end(), 5.0);
                tied[lo] = 1.0;
                if (n - 1 > lo)
                    tied[n - 1] = 1.0;
                EXPECT_EQ(table.argmin_first(tied.data(), n), lo)
                    << simdLevelName(level) << " n " << n << " lo "
                    << lo;
            }
        }
    }
}

} // namespace
} // namespace act::util::simd
