/**
 * @file
 * Tests for the SIMD dispatch layer and its kernels. The contract
 * under test is bit-identity (DESIGN.md §11): every vector kernel
 * must reproduce the scalar reference kernel's outputs exactly --
 * EXPECT_EQ on doubles throughout, no tolerances -- for every length,
 * including the ragged tails, and the multi-lane RNG must emit the
 * scalar generator's sequence in the scalar order.
 */

#include <algorithm>
#include <cmath>
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

/** Lengths that exercise empty, sub-vector, tail, and segment-split
 *  paths of the 4-lane tier. */
const std::size_t kLengths[] = {0,  1,   2,   3,   4,    5,    7,
                                8,  15,  16,  17,  63,   64,   65,
                                96, 127, 128, 129, 255,  256,  257,
                                511, 1000, 4096, 6143};

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
        EXPECT_NE(table.fill_units, nullptr);
        EXPECT_NE(table.transform_uniform, nullptr);
        EXPECT_NE(table.transform_triangular, nullptr);
        EXPECT_NE(table.eval_ratio, nullptr);
        EXPECT_NE(table.all_within, nullptr);
    }
}

TEST(SimdKernelsTest, FillUnitsEmitsExactScalarSequence)
{
    const std::uint64_t seeds[] = {1, 42, 7, 0xDEADBEEFULL,
                                   ~std::uint64_t{0}};
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::uint64_t seed : seeds) {
            for (std::size_t n : kLengths) {
                Xorshift64Star reference(seed);
                std::vector<double> expected(n);
                for (std::size_t i = 0; i < n; ++i)
                    expected[i] = reference.nextUnit();

                std::vector<double> actual(n);
                const std::uint64_t end_state = table.fill_units(
                    Xorshift64Star(seed).state(), actual.data(), n);
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(actual[i], expected[i])
                        << simdLevelName(level) << " seed " << seed
                        << " n " << n << " index " << i;
                }
                // The returned state must continue the scalar stream.
                EXPECT_EQ(end_state, reference.state())
                    << simdLevelName(level) << " seed " << seed
                    << " n " << n;
            }
        }
    }
}

TEST(SimdKernelsTest, FillUnitsSplitsAreSeamless)
{
    // Filling 1000 values in ragged pieces must equal one shot: the
    // state handoff between calls is exact at every cut point.
    constexpr std::size_t kTotal = 1000;
    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        std::vector<double> whole(kTotal);
        table.fill_units(Xorshift64Star(99).state(), whole.data(),
                         kTotal);
        for (std::size_t cut : {std::size_t{1}, std::size_t{7},
                                std::size_t{128}, std::size_t{513}}) {
            std::vector<double> pieces(kTotal);
            std::uint64_t state = Xorshift64Star(99).state();
            state = table.fill_units(state, pieces.data(), cut);
            table.fill_units(state, pieces.data() + cut,
                             kTotal - cut);
            for (std::size_t i = 0; i < kTotal; ++i) {
                ASSERT_EQ(pieces[i], whole[i])
                    << simdLevelName(level) << " cut " << cut
                    << " index " << i;
            }
        }
    }
}

TEST(SimdKernelsTest, XorshiftJumpMatchesStepping)
{
    const std::uint64_t jumps[] = {0, 1, 2, 3, 63, 64, 65,
                                   384, 1536, 100'000};
    for (std::uint64_t steps : jumps) {
        std::uint64_t expected = Xorshift64Star(1234).state();
        for (std::uint64_t i = 0; i < steps; ++i) {
            expected ^= expected >> 12;
            expected ^= expected << 25;
            expected ^= expected >> 27;
        }
        // Twice: the second call exercises the per-thread cache hit.
        EXPECT_EQ(xorshiftJump(Xorshift64Star(1234).state(), steps),
                  expected)
            << steps;
        EXPECT_EQ(xorshiftJump(Xorshift64Star(1234).state(), steps),
                  expected)
            << steps;
    }
}

TEST(SimdKernelsTest, TransformsMatchScalarReferenceBitwise)
{
    const KernelTable &scalar = scalarKernels();
    UniformTransform uniform;
    uniform.a = 365.0;
    uniform.ba = 335.0;
    TriangularTransform triangular;
    triangular.a = 0.8;
    triangular.b = 0.95;
    triangular.ba = 0.95 - 0.8;
    triangular.ca = 0.875 - 0.8;
    triangular.bc = 0.95 - 0.875;
    triangular.pivot = (0.875 - 0.8) / (0.95 - 0.8);

    for (SimdLevel level : availableLevels()) {
        const KernelTable &table = kernels(level);
        for (std::size_t stride : {std::size_t{1}, std::size_t{3},
                                   std::size_t{7}}) {
            for (std::size_t n : kLengths) {
                std::vector<double> units(n * stride + 1);
                scalar.fill_units(Xorshift64Star(5).state(),
                                  units.data(), units.size());

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

                scalar.transform_triangular(units.data(), stride, n,
                                            triangular,
                                            expected.data());
                table.transform_triangular(units.data(), stride, n,
                                           triangular, actual.data());
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(actual[i], expected[i])
                        << "triangular " << simdLevelName(level)
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
        const KernelTable &scalar = scalarKernels();
        std::uint64_t state = Xorshift64Star(11).state();
        state = scalar.fill_units(state, ci.data(), n);
        state = scalar.fill_units(state, yield.data(), n);
        scalar.fill_units(state, abatement.data(), n);
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
                    states[j] = Xorshift64Star(1000 + j).state();

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
            scalar.fill_units(Xorshift64Star(31).state(), u.data(),
                              n);
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
    scalar.fill_units(Xorshift64Star(67).state(), grams.data(),
                      kSamples);
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
            scalar.fill_units(Xorshift64Star(123).state(),
                              values.data(), n);
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

TEST(XorshiftLanesTest, EmitsScalarSequenceAndHandsBackState)
{
    for (SimdLevel level : availableLevels()) {
        const SimdLevel restore = setSimdLevel(level);
        for (std::size_t n : {std::size_t{17}, std::size_t{300},
                              std::size_t{1536}}) {
            Xorshift64Star reference(2024);
            std::vector<double> expected(n);
            for (std::size_t i = 0; i < n; ++i)
                expected[i] = reference.nextUnit();

            Xorshift64Star rng(2024);
            XorshiftLanes lanes(rng);
            std::vector<double> actual(n);
            // Two ragged calls to exercise the internal state carry.
            lanes.fillUnits(actual.data(), n / 3);
            lanes.fillUnits(actual.data() + n / 3, n - n / 3);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(actual[i], expected[i]) << i;

            // The handed-back generator continues the scalar stream.
            Xorshift64Star resumed = lanes.scalar();
            for (int i = 0; i < 16; ++i)
                EXPECT_EQ(resumed.nextUnit(), reference.nextUnit());
        }
        setSimdLevel(restore);
    }
}

TEST(XorshiftLanesTest, ZeroSeedAndZeroStateAreRemapped)
{
    // Zero is the xorshift fixed point; both entry points must remap
    // it to 1 rather than emit zeros forever.
    Xorshift64Star from_zero(0);
    Xorshift64Star from_one(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(from_zero.next(), from_one.next());

    Xorshift64Star rebuilt = Xorshift64Star::fromState(0);
    EXPECT_EQ(rebuilt.state(), 1u);
    Xorshift64Star fresh(1);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(rebuilt.next(), fresh.next());

    // Round trip through state() is exact for nonzero states.
    Xorshift64Star original(77);
    original.nextUnit();
    Xorshift64Star copy = Xorshift64Star::fromState(original.state());
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(copy.next(), original.next());
}

} // namespace
} // namespace act::util::simd
