/**
 * @file
 * The 4-lane AVX2 kernel tier. This is the only translation unit
 * compiled with -mavx2 (set in src/util/CMakeLists.txt when the
 * compiler supports it); everything here has internal linkage or is
 * reached through the table pointer, and avx2Kernels() is only
 * dereferenced after the runtime CPU check in util/simd.cc, so no
 * AVX2 instruction can leak onto a CPU without the feature. Compiled
 * without -mfma on purpose: contraction would break the bit-identity
 * contract (DESIGN.md §11), so every multiply and add stays a
 * separate, correctly rounded instruction.
 *
 * The kernels are width-generic templates over a lane-type policy
 * `L` (LanesAvx2 below). Bit-identity rules: every expression keeps
 * the scalar kernel's association and operation set -- no FMA, no
 * reassociation, no fast-math identities. Vector add/sub/mul/div are
 * IEEE-754 correctly rounded per lane, so equal expression shapes
 * give equal bits.
 *
 * The fiddly parts of the policy:
 *  - 64-bit multiply by the xorshift64* constant without a 64-bit
 *    vector multiply instruction (pre-AVX-512 x86 has none): three
 *    32x32->64 partial products, with the high-of-high product
 *    dropped because it shifts past bit 63.
 *  - Exact uint64 -> double for the 53-bit value v >> 11: split into
 *    a 21-bit high and 32-bit low half, convert each exactly via the
 *    2^52 magic-number trick, recombine as hi * 2^32 + lo (exact:
 *    hi * 2^32 needs <= 21 significand bits, the sum <= 53). The
 *    final * 2^-53 is a power-of-two scale, also exact.
 *  - std::max(0.0, x) and the argmin's strict `<` replicated with
 *    compare + blend so NaN and signed-zero lanes behave exactly like
 *    the scalar operators.
 *
 * Policy surface `L` must provide:
 *   kLanes                          lane count
 *   VF / VU                         double / uint64 vector types
 *   bcast(double) -> VF
 *   loadu(const double*) -> VF      unaligned load of kLanes doubles
 *   loadStride(const double*, s)    gather p[0], p[s], p[2s], ...
 *   storeu(double*, VF)
 *   add/sub/mul/div(VF, VF) -> VF
 *   max0(VF) -> VF                  per-lane std::max(0.0, x) semantics
 *   blendLess(u, pivot, lo, hi)     per-lane u < pivot ? lo : hi
 *   fromLanes(const uint64_t*) -> VU
 *   xorshiftStep(VU) -> VU          the three xor-shift state updates
 *   mulM(VU) -> VU                  lane-wise * kXorshiftMultiplier
 *   unitFromValue(VU) -> VF         exact double((v >> 11)) * 2^-53
 *   within(x, lo, hi, lo_excl)      all-ones mask per in-range lane
 *   allLanes(VF mask) -> bool       every lane of the mask set
 */

#include <cstddef>
#include <cstdint>

#include "util/simd_kernels.h"

#if defined(__AVX2__)

#include <immintrin.h>

namespace act::util::simd {

namespace {

/** One scalar xorshift64* state update: Xorshift64Star::next()
 *  without the output multiply. */
inline std::uint64_t
scalarXorshiftStep(std::uint64_t x)
{
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    return x;
}

/** Xorshift64Star::nextUnit() of the state scalarXorshiftStep() just
 *  produced: the 53-bit top of state * M, scaled into [0, 1). The
 *  cast is exact (the operand is < 2^53). */
inline double
scalarXorshiftUnit(std::uint64_t state)
{
    return static_cast<double>((state * kXorshiftMultiplier) >> 11) *
           0x1.0p-53;
}

/** Load kLanes consecutive samples of a unit column that is laid out
 *  at @p stride doubles per sample (1 = contiguous, otherwise the
 *  sample-major interleave the fused Monte Carlo chunk produces). */
template <class L>
typename L::VF
loadUnitsT(const double *units, std::size_t stride, std::size_t s)
{
    if (stride == 1)
        return L::loadu(units + s);
    return L::loadStride(units + s * stride, stride);
}

template <class L>
void
transformUniformT(const double *units, std::size_t stride,
                  std::size_t n, const UniformTransform &tr,
                  double *out)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF va = L::bcast(tr.a);
    const typename L::VF vba = L::bcast(tr.ba);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF u = loadUnitsT<L>(units, stride, s);
        L::storeu(out + s, L::add(va, L::mul(vba, u)));
    }
    for (; s < n; ++s)
        out[s] = tr.a + tr.ba * units[s * stride];
}

template <class L>
bool
allWithinT(const double *p, std::size_t n, double lo, double hi,
           bool lo_exclusive)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF vlo = L::bcast(lo);
    const typename L::VF vhi = L::bcast(hi);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF mask =
            L::within(L::loadu(p + s), vlo, vhi, lo_exclusive);
        // One predictable branch per vector: validation data is
        // overwhelmingly all-valid, and a failure is fatal anyway.
        if (!L::allLanes(mask))
            return false;
    }
    for (; s < n; ++s) {
        const bool above = lo_exclusive ? (p[s] > lo) : (p[s] >= lo);
        if (!(above && p[s] <= hi))
            return false;
    }
    return true;
}

/**
 * Multi-stream draw matrix: lane j of the state vector is stream j's
 * own xorshift64* state, stepped in place -- no jumps, no interleave
 * bookkeeping, because the streams are independent by construction
 * (deriveSeed per job index). Draw-major output keeps each draw row
 * contiguous for the downstream column transforms.
 */
template <class L>
void
jobUnitsT(const std::uint64_t *states, std::size_t jobs,
          std::size_t draws, double *out)
{
    constexpr std::size_t W = L::kLanes;
    std::size_t j = 0;
    for (; j + W <= jobs; j += W) {
        typename L::VU v = L::fromLanes(states + j);
        for (std::size_t d = 0; d < draws; ++d) {
            v = L::xorshiftStep(v);
            L::storeu(out + d * jobs + j,
                      L::unitFromValue(L::mulM(v)));
        }
    }
    for (; j < jobs; ++j) {
        std::uint64_t state = states[j];
        for (std::size_t d = 0; d < draws; ++d) {
            state = scalarXorshiftStep(state);
            out[d * jobs + j] = scalarXorshiftUnit(state);
        }
    }
}

template <class L>
void
powerGridKwT(const double *u, std::size_t n, const PowerTransform &tr,
             double *out)
{
    constexpr std::size_t W = L::kLanes;
    const typename L::VF vidle = L::bcast(tr.idle_w);
    const typename L::VF vspan = L::bcast(tr.span_w);
    const typename L::VF vkilo = L::bcast(1000.0);
    const typename L::VF vpue = L::bcast(tr.pue);
    std::size_t s = 0;
    for (; s + W <= n; s += W) {
        const typename L::VF watts =
            L::add(vidle, L::mul(vspan, L::loadu(u + s)));
        L::storeu(out + s, L::mul(L::div(watts, vkilo), vpue));
    }
    for (; s < n; ++s)
        out[s] = (tr.idle_w + tr.span_w * u[s]) / 1000.0 * tr.pue;
}

/**
 * Window costs, segmented: [0, count) is cut at the points where the
 * cyclic start wraps past n or the wrap/non-wrap branch flips, so
 * within a segment every lane takes the same branch and all loads are
 * contiguous. Both branch bodies keep the exact scalar association --
 * base + (hi - lo) vs base + ((prefix[n] - lo) + hi') -- which is what
 * makes the vector outputs bit-identical to the scalar scan.
 */
template <class L>
void
windowCostsT(const WindowCostProblem &pr, double *out)
{
    constexpr std::size_t W = L::kLanes;
    const std::size_t n = pr.n;
    const double *prefix = pr.prefix;
    const double *grams2x = pr.grams2x;
    const bool tail = pr.tail_hours > 0.0;
    const typename L::VF vbase = L::bcast(pr.base);
    const typename L::VF vstep = L::bcast(pr.step);
    const typename L::VF vtail = L::bcast(pr.tail_hours);
    const typename L::VF vpn = L::bcast(prefix[n]);
    std::size_t k = 0;
    std::size_t s0 = pr.start0 % n;
    while (k < pr.count) {
        const bool nonwrap = s0 + pr.rem <= n;
        // Last non-wrap start is n - rem, so that segment ends at
        // n - rem + 1 (clamped to n when rem == 0); a wrap segment
        // runs until s0 cycles back to 0.
        std::size_t seg_end = n;
        if (nonwrap && pr.rem > 0 && n - pr.rem + 1 < n)
            seg_end = n - pr.rem + 1;
        std::size_t len = seg_end - s0;
        if (len > pr.count - k)
            len = pr.count - k;
        std::size_t i = 0;
        if (nonwrap) {
            for (; i + W <= len; i += W) {
                const typename L::VF sum = L::add(
                    vbase,
                    L::sub(L::loadu(prefix + s0 + pr.rem + i),
                           L::loadu(prefix + s0 + i)));
                typename L::VF w = L::mul(sum, vstep);
                if (tail)
                    w = L::add(
                        w, L::mul(L::loadu(grams2x + s0 + pr.rem + i),
                                  vtail));
                L::storeu(out + k + i, w);
            }
            for (; i < len; ++i) {
                const double sum =
                    pr.base + (prefix[s0 + pr.rem + i] -
                               prefix[s0 + i]);
                double w = sum * pr.step;
                if (tail)
                    w += grams2x[s0 + pr.rem + i] * pr.tail_hours;
                out[k + i] = w;
            }
        } else {
            for (; i + W <= len; i += W) {
                const typename L::VF sum = L::add(
                    vbase,
                    L::add(L::sub(vpn, L::loadu(prefix + s0 + i)),
                           L::loadu(prefix + s0 + pr.rem - n + i)));
                typename L::VF w = L::mul(sum, vstep);
                if (tail)
                    w = L::add(
                        w, L::mul(L::loadu(grams2x + s0 + pr.rem + i),
                                  vtail));
                L::storeu(out + k + i, w);
            }
            for (; i < len; ++i) {
                const double sum =
                    pr.base + ((prefix[n] - prefix[s0 + i]) +
                               prefix[s0 + pr.rem - n + i]);
                double w = sum * pr.step;
                if (tail)
                    w += grams2x[s0 + pr.rem + i] * pr.tail_hours;
                out[k + i] = w;
            }
        }
        k += len;
        s0 += len;
        if (s0 >= n)
            s0 -= n;
    }
}

/**
 * First-index argmin with strict-< scan semantics. Lanes track the
 * running (value, index) of their index-stride-W subsequence -- the
 * per-lane strict < keeps each lane's earliest minimum -- then the
 * horizontal reduction picks the lexicographically smallest
 * (value, index) pair, which is exactly the scalar left-to-right
 * strict-< scan's answer. Scalar-tail indices all exceed every lane
 * index, so the plain strict < keeps ties with the vector part.
 */
template <class L>
std::size_t
argminFirstT(const double *p, std::size_t n)
{
    constexpr std::size_t W = L::kLanes;
    std::size_t best = 0;
    double best_value = p[0];
    std::size_t s = 1;
    if (n >= 2 * W) {
        double iota[W];
        for (std::size_t j = 0; j < W; ++j)
            iota[j] = static_cast<double>(j);
        typename L::VF vvalue = L::loadu(p);
        typename L::VF vindex = L::loadu(iota);
        typename L::VF vcursor = vindex;
        const typename L::VF vw =
            L::bcast(static_cast<double>(W));
        std::size_t k = W;
        for (; k + W <= n; k += W) {
            const typename L::VF v = L::loadu(p + k);
            vcursor = L::add(vcursor, vw);
            // Index blend first: both blends must see the same
            // pre-update running minimum.
            vindex = L::blendLess(v, vvalue, vcursor, vindex);
            vvalue = L::blendLess(v, vvalue, v, vvalue);
        }
        double values[W];
        double indices[W];
        L::storeu(values, vvalue);
        L::storeu(indices, vindex);
        best = static_cast<std::size_t>(indices[0]);
        best_value = values[0];
        for (std::size_t j = 1; j < W; ++j) {
            const auto index = static_cast<std::size_t>(indices[j]);
            if (values[j] < best_value ||
                (values[j] == best_value && index < best)) {
                best_value = values[j];
                best = index;
            }
        }
        s = k;
    }
    for (; s < n; ++s) {
        if (p[s] < best_value) {
            best_value = p[s];
            best = s;
        }
    }
    return best;
}

/**
 * An Eq. 5 term lowered for the kernel loop: a (pointer, step) pair
 * where a bound column reads p + s (step 1) and a compiled constant
 * reads a local W-wide splat at step 0 -- so the vector loop is a
 * branchless unaligned load either way, exactly like the scalar
 * kernel's `p[s * stride]`.
 */
template <class L>
struct SplatTerm
{
    const double *p = nullptr;
    std::size_t step = 0;
    double splat[L::kLanes] = {};

    void
    set(const RatioTerm &term)
    {
        if (term.column) {
            p = term.values;
            step = 1;
        } else {
            for (std::size_t k = 0; k < L::kLanes; ++k)
                splat[k] = term.values[0];
            p = splat;
            step = 0;
        }
    }
};

template <class L>
void
evalRatioT(const RatioTerms &t, std::size_t n, double *out)
{
    constexpr std::size_t W = L::kLanes;
    SplatTerm<L> ci, epa, gpa, mpa, yield, abatement;
    ci.set(t.ci);
    epa.set(t.epa);
    gpa.set(t.gpa);
    mpa.set(t.mpa);
    yield.set(t.yield);
    abatement.set(t.abatement);

    std::size_t s = 0;
    if (t.recompute_gpa) {
        // gpa95 + (gpa99 - gpa95) * t with t = (ab - 0.95) / 0.04...:
        // both the lerp difference and the denominator are loop
        // constants in the scalar kernel too (compile-time folded
        // there), so hoisting them changes no bits.
        const typename L::VF v095 = L::bcast(0.95);
        const typename L::VF vdenom = L::bcast(0.99 - 0.95);
        const typename L::VF vg95 = L::bcast(t.gpa95);
        const typename L::VF vdg = L::bcast(t.gpa99 - t.gpa95);
        for (; s + W <= n; s += W) {
            const typename L::VF ab =
                L::loadu(abatement.p + s * abatement.step);
            const typename L::VF tt =
                L::div(L::sub(ab, v095), vdenom);
            const typename L::VF gpa_s =
                L::max0(L::add(vg95, L::mul(vdg, tt)));
            const typename L::VF num = L::add(
                L::add(L::mul(L::loadu(ci.p + s * ci.step),
                              L::loadu(epa.p + s * epa.step)),
                       gpa_s),
                L::loadu(mpa.p + s * mpa.step));
            L::storeu(out + s,
                      L::div(num, L::loadu(yield.p + s * yield.step)));
        }
        for (; s < n; ++s) {
            const double ab = abatement.p[s * abatement.step];
            const double tt = (ab - 0.95) / (0.99 - 0.95);
            // util::lerp then std::max(0.0, .), spelled out.
            const double raw = t.gpa95 + (t.gpa99 - t.gpa95) * tt;
            const double gpa_s = (0.0 < raw) ? raw : 0.0;
            out[s] = (ci.p[s * ci.step] * epa.p[s * epa.step] + gpa_s +
                      mpa.p[s * mpa.step]) /
                     yield.p[s * yield.step];
        }
        return;
    }
    for (; s + W <= n; s += W) {
        const typename L::VF num =
            L::add(L::add(L::mul(L::loadu(ci.p + s * ci.step),
                                 L::loadu(epa.p + s * epa.step)),
                          L::loadu(gpa.p + s * gpa.step)),
                   L::loadu(mpa.p + s * mpa.step));
        L::storeu(out + s,
                  L::div(num, L::loadu(yield.p + s * yield.step)));
    }
    for (; s < n; ++s) {
        out[s] = (ci.p[s * ci.step] * epa.p[s * epa.step] +
                  gpa.p[s * gpa.step] + mpa.p[s * mpa.step]) /
                 yield.p[s * yield.step];
    }
}

struct LanesAvx2
{
    static constexpr std::size_t kLanes = 4;
    using VF = __m256d;
    using VU = __m256i;

    static VF
    bcast(double v)
    {
        return _mm256_set1_pd(v);
    }
    static VF
    loadu(const double *p)
    {
        return _mm256_loadu_pd(p);
    }
    static VF
    loadStride(const double *p, std::size_t stride)
    {
        return _mm256_set_pd(p[3 * stride], p[2 * stride], p[stride],
                             p[0]);
    }
    static void
    storeu(double *p, VF v)
    {
        _mm256_storeu_pd(p, v);
    }
    static VF
    add(VF a, VF b)
    {
        return _mm256_add_pd(a, b);
    }
    static VF
    sub(VF a, VF b)
    {
        return _mm256_sub_pd(a, b);
    }
    static VF
    mul(VF a, VF b)
    {
        return _mm256_mul_pd(a, b);
    }
    static VF
    div(VF a, VF b)
    {
        return _mm256_div_pd(a, b);
    }
    static VF
    max0(VF a)
    {
        // vmaxpd(a, 0): second operand on NaN and the (+0, -0) tie,
        // exactly std::max(0.0, x).
        return _mm256_max_pd(a, _mm256_setzero_pd());
    }
    static VF
    blendLess(VF u, VF pivot, VF lo, VF hi)
    {
        const VF mask = _mm256_cmp_pd(u, pivot, _CMP_LT_OQ);
        return _mm256_blendv_pd(hi, lo, mask);
    }
    static VF
    within(VF x, VF lo, VF hi, bool lo_exclusive)
    {
        const VF above =
            lo_exclusive ? _mm256_cmp_pd(x, lo, _CMP_GT_OQ)
                         : _mm256_cmp_pd(x, lo, _CMP_GE_OQ);
        return _mm256_and_pd(above, _mm256_cmp_pd(x, hi, _CMP_LE_OQ));
    }
    static bool
    allLanes(VF mask)
    {
        return _mm256_movemask_pd(mask) == 0xF;
    }
    static VU
    fromLanes(const std::uint64_t *lane)
    {
        return _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(lane));
    }
    static VU
    xorshiftStep(VU x)
    {
        x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 12));
        x = _mm256_xor_si256(x, _mm256_slli_epi64(x, 25));
        x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 27));
        return x;
    }
    static VU
    mulM(VU x)
    {
        const VU mlo = _mm256_set1_epi64x(
            static_cast<long long>(kXorshiftMultiplier & 0xFFFFFFFFULL));
        const VU mhi = _mm256_set1_epi64x(
            static_cast<long long>(kXorshiftMultiplier >> 32));
        const VU lolo = _mm256_mul_epu32(x, mlo);
        const VU hilo =
            _mm256_mul_epu32(_mm256_srli_epi64(x, 32), mlo);
        const VU lohi = _mm256_mul_epu32(x, mhi);
        return _mm256_add_epi64(
            lolo,
            _mm256_slli_epi64(_mm256_add_epi64(hilo, lohi), 32));
    }
    static VF
    u32InU64ToDouble(VU v)
    {
        const VU magic = _mm256_set1_epi64x(0x4330000000000000LL);
        return _mm256_sub_pd(
            _mm256_castsi256_pd(_mm256_or_si256(v, magic)),
            _mm256_set1_pd(0x1.0p52));
    }
    static VF
    unitFromValue(VU v)
    {
        const VU u = _mm256_srli_epi64(v, 11);
        const VU hi = _mm256_srli_epi64(u, 32);
        const VU lo =
            _mm256_and_si256(u, _mm256_set1_epi64x(0xFFFFFFFFLL));
        const VF recombined =
            _mm256_add_pd(_mm256_mul_pd(u32InU64ToDouble(hi),
                                        _mm256_set1_pd(0x1.0p32)),
                          u32InU64ToDouble(lo));
        return _mm256_mul_pd(recombined, _mm256_set1_pd(0x1.0p-53));
    }
};

} // namespace

const KernelTable *
avx2Kernels()
{
    static const KernelTable table = {
        &transformUniformT<LanesAvx2>,
        &evalRatioT<LanesAvx2>,
        &allWithinT<LanesAvx2>,
        &jobUnitsT<LanesAvx2>,
        &powerGridKwT<LanesAvx2>,
        &windowCostsT<LanesAvx2>,
        &argminFirstT<LanesAvx2>,
    };
    return &table;
}

} // namespace act::util::simd

#else

namespace act::util::simd {

const KernelTable *
avx2Kernels()
{
    return nullptr;
}

} // namespace act::util::simd

#endif
