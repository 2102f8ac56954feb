/**
 * @file
 * Internal kernel table behind util/simd.h: the batch kernels of the
 * fleet replay hot path (multi-stream job draws, the uniform
 * transform, the grid-power transform, and the window-cost/argmin
 * pair), the Eq. 5 ratio kernel behind EvalPlan::evaluateBatch, and
 * the range scan EvalPlan validation runs, as per-level tables of
 * function pointers. Only the three window kernels (power_grid_kw,
 * window_costs, argmin_first) have an end-to-end measurement behind
 * them (fleet_year, ROADMAP item 3(c)); the ratio kernel, all_within,
 * job_units and transform_uniform are kept unmeasured. The
 * Monte Carlo sampling loops (unit fill, triangular transform) are
 * plain scalar code in their callers, because vectorizing them moved
 * the mc_sharded workload by less than its noise (DESIGN.md §11).
 * Problem descriptors are plain PODs so the per-level translation
 * units -- one of which is compiled with -mavx2 -- depend on nothing
 * above util.
 *
 * The scalar table is the semantic reference: each vector kernel must
 * reproduce its outputs bit-for-bit on every input (tested in
 * tests/util_simd_test.cc). Callers normally go through
 * activeKernels(); tests index a specific level with kernels().
 */

#ifndef ACT_UTIL_SIMD_KERNELS_H
#define ACT_UTIL_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

#include "util/simd.h"

namespace act::util::simd {

/** The xorshift64* output multiplier (Xorshift64Star::next()). */
inline constexpr std::uint64_t kXorshiftMultiplier =
    0x2545F4914F6CDD1DULL;

/** Uniform over [a, a + ba): value = a + ba * u. */
struct UniformTransform
{
    double a = 0.0;
    double ba = 0.0;
};

/** Grid-power transform: out = (idle_w + span_w * u) / 1000 * pue,
 *  i.e. server::powerAtUtilization in watts folded into grid kW. The
 *  span is precomputed (peak - idle) exactly as the scalar expression
 *  computes it, so the kernel keeps the scalar tree. */
struct PowerTransform
{
    double idle_w = 0.0;
    double span_w = 0.0;
    double pue = 1.0;
};

/**
 * One job's window-cost evaluation over a cyclic intensity series:
 * for each shift k in [0, count), the duration-weighted intensity of
 * the window starting at sample (start0 + k). Mirrors the fleet
 * replayer's weightAt()/sumSamples() pair exactly:
 *
 *   s0     = (start0 + k) % n
 *   sum    = base + (s0 + rem <= n
 *                      ? prefix[s0 + rem] - prefix[s0]
 *                      : (prefix[n] - prefix[s0]) + prefix[s0+rem-n])
 *   out[k] = sum * step  (+ grams2x[s0 + rem] * tail_hours if tail)
 *
 * base = double(full / n) * prefix[n] and rem = full % n are per-job
 * constants (full = whole samples covered); grams2x is the series
 * doubled back-to-back so grams2x[s0 + rem] == grams[(s0 + rem) % n]
 * without a per-lane modulo. The vector kernels split [0, count) into
 * segments of uniform branch (wrap vs non-wrap) so loads stay
 * contiguous and every lane keeps the scalar association.
 */
struct WindowCostProblem
{
    const double *prefix = nullptr;  ///< n + 1 cyclic prefix sums
    const double *grams2x = nullptr; ///< 2n samples (series doubled)
    std::size_t n = 0;               ///< series length
    std::size_t start0 = 0;          ///< window start of shift 0
    std::size_t count = 0;           ///< shifts evaluated
    std::size_t rem = 0;             ///< full % n
    double base = 0.0;               ///< double(full / n) * prefix[n]
    double step = 0.0;               ///< sample step, hours
    double tail_hours = 0.0;         ///< fractional tail; <= 0 -> none
};

/** One Eq. 5 term: a per-sample SoA column or a compiled constant
 *  (values[0]). */
struct RatioTerm
{
    const double *values = nullptr;
    bool column = false;
};

/** The full Eq. 5 evaluation problem, resolved by EvalPlan. */
struct RatioTerms
{
    RatioTerm ci;
    RatioTerm epa;
    RatioTerm gpa;
    RatioTerm mpa;
    RatioTerm yield;
    RatioTerm abatement;
    double gpa95 = 0.0;
    double gpa99 = 0.0;
    /** Recompute GPA from the abatement term via the Table 7 columns
     *  (the abatement-bound plan shape); else read the gpa term. */
    bool recompute_gpa = false;
};

/**
 * One dispatch level's kernels. All kernels are pure (no global
 * state) and safe to call concurrently from many threads.
 */
struct KernelTable
{
    /** out[s] = a + ba * units[s * stride] for s in [0, n). */
    void (*transform_uniform)(const double *units, std::size_t stride,
                              std::size_t n, const UniformTransform &tr,
                              double *out);

    /** The Eq. 5 ratio kernel over n samples into out. Performs no
     *  validation; callers run the range checks first. */
    void (*eval_ratio)(const RatioTerms &terms, std::size_t n,
                       double *out);

    /**
     * True when every p[s], s in [0, n), lies in (lo, hi] when
     * @p lo_exclusive, else in [lo, hi]; NaN is never within. A
     * validation fast path: callers that need a diagnostic re-scan
     * in their original order on failure, so which element failed
     * first is not reported here.
     */
    bool (*all_within)(const double *p, std::size_t n, double lo,
                       double hi, bool lo_exclusive);

    /**
     * Emit @p draws nextUnit() values for each of @p jobs independent
     * xorshift64* streams, draw-major: out[d * jobs + j] is draw d of
     * the stream whose raw state is states[j]. Lane = stream: each
     * lane steps its own state exactly like the scalar generator.
     * States must be nonzero (Xorshift64Star's constructor guarantees
     * this via `| 1`).
     */
    void (*job_units)(const std::uint64_t *states, std::size_t jobs,
                      std::size_t draws, double *out);

    /** out[s] = (idle_w + span_w * u[s]) / 1000.0 * pue. */
    void (*power_grid_kw)(const double *u, std::size_t n,
                          const PowerTransform &tr, double *out);

    /** Window costs for shifts [0, count) into out; see
     *  WindowCostProblem. */
    void (*window_costs)(const WindowCostProblem &problem, double *out);

    /**
     * Index of the minimum of p[0..n); ties resolve to the earliest
     * index (strict-< scan semantics), matching the fleet placement
     * scan's earliest-start tie-break. n must be >= 1.
     */
    std::size_t (*argmin_first)(const double *p, std::size_t n);
};

/** The scalar reference kernels (always available). */
const KernelTable &scalarKernels();

/** The 4-lane AVX2 tier; null when not compiled in. Only safe to call
 *  through when the CPU reports AVX2 (see simdLevelAvailable()). */
const KernelTable *avx2Kernels();

/** The table for @p level; fatal when that level is not compiled into
 *  this binary. Does not re-check CPU support. */
const KernelTable &kernels(SimdLevel level);

/** kernels(simdLevel()): the table the process dispatches to. */
const KernelTable &activeKernels();

} // namespace act::util::simd

#endif // ACT_UTIL_SIMD_KERNELS_H
