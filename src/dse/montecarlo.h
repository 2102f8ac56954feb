/**
 * @file
 * Monte Carlo uncertainty propagation, complementing the tornado
 * analysis in sensitivity.h: sample the model inputs jointly from
 * per-parameter distributions and summarize the output distribution
 * (mean, standard deviation, percentiles).
 */

#ifndef ACT_DSE_MONTECARLO_H
#define ACT_DSE_MONTECARLO_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/eval_plan.h"
#include "util/parallel.h"
#include "util/random.h"

namespace act::dse {

/** Supported input distributions. */
enum class Distribution
{
    /** Uniform over [low, high]. */
    Uniform,
    /** Triangular over [low, high] with the mode at baseline. */
    Triangular,
};

/** One uncertain model input. */
struct UncertainParameter
{
    std::string name;
    Distribution distribution = Distribution::Uniform;
    double baseline = 0.0;
    double low = 0.0;
    double high = 0.0;
};

/** Output distribution summary. */
struct MonteCarloResult
{
    std::size_t samples = 0;
    double mean = 0.0;
    double stddev = 0.0;
    double p5 = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Samples per independent RNG stream: the sweep is split into fixed
 * chunks of this many samples, and chunk c draws from the stream
 * seeded util::deriveSeed(seed, c). Chunk layout depends only on the
 * sample count, so the sampled distribution -- and every statistic
 * below -- is bit-identical for any thread count.
 */
inline constexpr std::size_t kMonteCarloChunk = 2048;

/**
 * One chunk's contribution: the raw outputs in sampling order plus
 * running sums. Partials merge in chunk order (mergePartial) and
 * serialize through sweep/domains.h for multi-process sharding.
 */
struct MonteCarloPartial
{
    std::vector<double> outputs;
    double sum = 0.0;
    double sum_squares = 0.0;
};

/** Fatal on an empty parameter list, < 100 samples, or bad ranges. */
void validateMonteCarloInputs(
    const std::vector<UncertainParameter> &parameters,
    std::size_t samples);

/**
 * Evaluate one chunk of the sweep: draw each sample's parameter
 * vector from @p rng (the chunk's derived stream) and run @p model.
 * Pure given (parameters, model, range, rng state) -- the shared
 * kernel of the in-process and sharded execution paths.
 */
MonteCarloPartial
monteCarloChunk(const std::vector<UncertainParameter> &parameters,
                const std::function<double(const std::vector<double> &)>
                    &model,
                util::IndexRange range, util::Xorshift64Star &rng);

/** Fold @p part into @p accumulator (chunk order required). */
MonteCarloPartial mergePartial(MonteCarloPartial accumulator,
                               MonteCarloPartial part);

/** Summarize the merged outputs of all chunks of a @p samples sweep. */
MonteCarloResult finalizeMonteCarlo(std::size_t samples,
                                    MonteCarloPartial merged);

/**
 * Run @p samples joint evaluations of @p model, sampling each input
 * from its distribution. Chunks execute on the util/parallel.h pool
 * (honoring ACT_THREADS / util::setThreadCount), and @p model must be
 * thread-safe. Deterministic for a fixed seed and independent of the
 * thread count via per-chunk derived RNG streams with ordered
 * reduction. Fatal on an empty parameter list, fewer than 100 samples,
 * or inverted ranges.
 */
MonteCarloResult
monteCarlo(const std::vector<UncertainParameter> &parameters,
           const std::function<double(const std::vector<double> &)>
               &model,
           std::size_t samples = 10'000, std::uint64_t seed = 42);

/**
 * Reusable structure-of-arrays scratch for monteCarloPlanChunk(): one
 * contiguous column per parameter, grown once and reused, so
 * steady-state chunk evaluation's only allocation is the output
 * vector it hands back. Typically held thread_local by chunk
 * evaluators.
 */
class MonteCarloScratch
{
  public:
    /** Size for @p parameters columns of @p samples each. */
    void prepare(std::size_t parameters, std::size_t samples);

    /** Column i (valid after prepare()). */
    double *
    column(std::size_t i)
    {
        return values_.data() + i * samples_;
    }

    /** The SoA column-pointer table, as evaluateBatch() expects. */
    const double *const *
    columns() const
    {
        return columns_.data();
    }

    /** A reusable buffer of at least @p n doubles for the raw RNG
     *  unit stream (grown monotonically, like the columns). */
    double *
    unitScratch(std::size_t n)
    {
        if (units_.size() < n)
            units_.resize(n);
        return units_.data();
    }

  private:
    std::size_t samples_ = 0;
    std::vector<double> values_;
    std::vector<double> units_;
    std::vector<const double *> columns_;
};

/**
 * Fused chunk kernel for compiled plans: samples sub-blocks of the
 * chunk directly into SoA columns (one unit buffer filled from
 * @p rng, then per-column inverse-CDF transforms) and evaluates each
 * sub-block with EvalPlan::evaluateBatch while the columns are still
 * in L1, instead of materializing the whole chunk and re-reading it.
 * RNG consumption order, sampled values, and outputs are
 * bit-identical to monteCarloChunk() (the scalar oracle) at every
 * SIMD dispatch level.
 * The cpa_montecarlo sweep domain and monteCarloBatch() route through
 * this; it is the hottest loop in the tree.
 */
MonteCarloPartial
monteCarloPlanChunk(const std::vector<UncertainParameter> &parameters,
                    const core::EvalPlan &plan, util::IndexRange range,
                    util::Xorshift64Star &rng,
                    MonteCarloScratch &scratch);

/**
 * monteCarlo() over a compiled plan whose bindings line up with
 * @p parameters (fatal on a count mismatch): same chunk layout, same
 * per-chunk derived RNG streams, same ordered reduction -- results are
 * bit-identical to the scalar path for any thread or shard count --
 * but each chunk runs monteCarloPlanChunk() instead of
 * kMonteCarloChunk std::function invocations.
 */
MonteCarloResult
monteCarloBatch(const std::vector<UncertainParameter> &parameters,
                const core::EvalPlan &plan,
                std::size_t samples = 10'000, std::uint64_t seed = 42);

} // namespace act::dse

#endif // ACT_DSE_MONTECARLO_H
