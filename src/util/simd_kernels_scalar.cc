/**
 * @file
 * The scalar kernel table: the semantic reference every vector level
 * must match bit-for-bit. These loops are verbatim transcriptions of
 * the code they replaced -- Xorshift64Star::nextUnit() consumption,
 * the fleet replayer's per-job transforms and window scans, and the
 * EvalPlan::evaluateBatch ratio and validation loops -- so "matches
 * the scalar kernel" continues to mean "matches the pre-SIMD tree".
 */

#include <cstddef>
#include <cstdint>

#include "util/simd_kernels.h"

namespace act::util::simd {

namespace {

void
transformUniformScalar(const double *units, std::size_t stride,
                       std::size_t n, const UniformTransform &tr,
                       double *out)
{
    for (std::size_t s = 0; s < n; ++s)
        out[s] = tr.a + tr.ba * units[s * stride];
}

void
evalRatioScalar(const RatioTerms &t, std::size_t n, double *out)
{
    const double *ci = t.ci.values;
    const double *epa = t.epa.values;
    const double *gpa = t.gpa.values;
    const double *mpa = t.mpa.values;
    const double *yield = t.yield.values;
    const double *abatement = t.abatement.values;
    const std::size_t ci_s = t.ci.column ? 1 : 0;
    const std::size_t epa_s = t.epa.column ? 1 : 0;
    const std::size_t gpa_s = t.gpa.column ? 1 : 0;
    const std::size_t mpa_s = t.mpa.column ? 1 : 0;
    const std::size_t yield_s = t.yield.column ? 1 : 0;
    const std::size_t ab_s = t.abatement.column ? 1 : 0;

    if (t.recompute_gpa) {
        for (std::size_t s = 0; s < n; ++s) {
            const double tt =
                (abatement[s * ab_s] - 0.95) / (0.99 - 0.95);
            // util::lerp then std::max(0.0, .), spelled out so this
            // translation unit stays dependency-free.
            const double raw = t.gpa95 + (t.gpa99 - t.gpa95) * tt;
            const double gpa_v = (0.0 < raw) ? raw : 0.0;
            out[s] = (ci[s * ci_s] * epa[s * epa_s] + gpa_v +
                      mpa[s * mpa_s]) /
                     yield[s * yield_s];
        }
        return;
    }
    for (std::size_t s = 0; s < n; ++s) {
        out[s] = (ci[s * ci_s] * epa[s * epa_s] + gpa[s * gpa_s] +
                  mpa[s * mpa_s]) /
                 yield[s * yield_s];
    }
}

void
jobUnitsScalar(const std::uint64_t *states, std::size_t jobs,
               std::size_t draws, double *out)
{
    // Per stream, exactly Xorshift64Star::nextUnit() `draws` times;
    // draw-major so each draw row is a contiguous column downstream.
    for (std::size_t j = 0; j < jobs; ++j) {
        std::uint64_t state = states[j];
        for (std::size_t d = 0; d < draws; ++d) {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            out[d * jobs + j] =
                static_cast<double>(
                    (state * kXorshiftMultiplier) >> 11) *
                0x1.0p-53;
        }
    }
}

void
powerGridKwScalar(const double *u, std::size_t n,
                  const PowerTransform &tr, double *out)
{
    // server::powerAtUtilization in watts folded into grid kW, the
    // fleet replayer's exact tree: idle + (peak - idle) * u, / 1000,
    // * pue, with span_w precomputed as the scalar sub.
    for (std::size_t s = 0; s < n; ++s)
        out[s] = (tr.idle_w + tr.span_w * u[s]) / 1000.0 * tr.pue;
}

void
windowCostsScalar(const WindowCostProblem &pr, double *out)
{
    // Verbatim transcription of the fleet replayer's per-shift
    // weightAt()/sumSamples() pair; see WindowCostProblem.
    const double *prefix = pr.prefix;
    const double *grams2x = pr.grams2x;
    const std::size_t n = pr.n;
    const bool tail = pr.tail_hours > 0.0;
    std::size_t s0 = pr.start0 % n;
    for (std::size_t k = 0; k < pr.count; ++k) {
        double sum = pr.base;
        if (s0 + pr.rem <= n)
            sum += prefix[s0 + pr.rem] - prefix[s0];
        else
            sum += (prefix[n] - prefix[s0]) + prefix[s0 + pr.rem - n];
        double weight = sum * pr.step;
        if (tail)
            weight += grams2x[s0 + pr.rem] * pr.tail_hours;
        out[k] = weight;
        if (++s0 == n)
            s0 = 0;
    }
}

std::size_t
argminFirstScalar(const double *p, std::size_t n)
{
    std::size_t best = 0;
    double best_value = p[0];
    for (std::size_t s = 1; s < n; ++s) {
        if (p[s] < best_value) {
            best_value = p[s];
            best = s;
        }
    }
    return best;
}

bool
allWithinScalar(const double *p, std::size_t n, double lo, double hi,
                bool lo_exclusive)
{
    for (std::size_t s = 0; s < n; ++s) {
        const bool above = lo_exclusive ? (p[s] > lo) : (p[s] >= lo);
        if (!(above && p[s] <= hi))
            return false;
    }
    return true;
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = {
        &transformUniformScalar,
        &evalRatioScalar,
        &allWithinScalar,
        &jobUnitsScalar,
        &powerGridKwScalar,
        &windowCostsScalar,
        &argminFirstScalar,
    };
    return table;
}

} // namespace act::util::simd
