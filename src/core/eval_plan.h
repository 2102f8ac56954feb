/**
 * @file
 * Compiled evaluation plans for the DSE hot path: resolve a model
 * configuration *once* -- node label or feature size to the Table 7
 * EPA/GPA curve values and Table 8 MPA, memory technology to its
 * Table 9-11 CPS, grid region to its Table 6 carbon intensity, plus
 * the FabParams baselines -- into a dense plan of plain doubles, then
 * evaluate millions of samples against it with no string lookups, no
 * hashing, and no heap traffic per sample.
 *
 * The plan computes exactly the Eq. 5 arithmetic of
 * core::carbonPerArea[Named]():
 *
 *   CPA = (CI_fab * EPA + GPA(abatement) + MPA) / yield
 *
 * with the same operation order and the same range checks, so for any
 * input the compiled result is bit-identical to the string-keyed,
 * database-resolving path (which stays available as the test oracle).
 * When `Abatement` is a bound input, the plan keeps the two resolved
 * abatement columns and replays data::FabDatabase::gpa()'s
 * interpolation per sample; otherwise GPA folds to a constant at
 * build time.
 *
 * Batched evaluation takes structure-of-arrays input columns
 * (`inputs[i][s]` is bound input i of sample s) and fills a dense
 * output array -- the kernel shape dse::monteCarloPlanChunk() and
 * dse::tornado() feed from reused buffers.
 */

#ifndef ACT_CORE_EVAL_PLAN_H
#define ACT_CORE_EVAL_PLAN_H

#include <array>
#include <cstddef>
#include <span>
#include <string_view>

#include "core/fab_params.h"
#include "util/units.h"

namespace act::core {

/** Model inputs a compiled plan can bind to per-sample values. */
enum class EvalInput
{
    /** Fab carbon intensity, g CO2/kWh. */
    CiFab,
    /** Fab energy per area, kWh/cm2 (raw-term plans only). */
    Epa,
    /** Gas emissions per area, g CO2/cm2 (raw-term plans only). */
    Gpa,
    /** Raw material procurement intensity, g CO2/cm2. */
    Mpa,
    /** Fab yield in (0, 1]. */
    Yield,
    /** Gaseous abatement fraction (node-resolved plans only). */
    Abatement,
};

/** Display name of an input ("ci_fab", "yield", ...). */
std::string_view evalInputName(EvalInput input);

/**
 * One compiled Eq. 5 evaluation: every database lookup resolved at
 * build time, every per-sample evaluation pure arithmetic over a
 * handful of doubles. Copyable and cheap to pass by value; safe to
 * share read-only across threads.
 */
class EvalPlan
{
  public:
    /** Most bound inputs a plan supports (Eq. 5 has six terms). */
    static constexpr std::size_t kMaxInputs = 6;

    /**
     * Compile for a feature size: EPA and the two GPA abatement
     * columns resolve through the Table 7 scaling curves (honoring
     * fab.lookup), MPA through Table 8, baselines from @p fab.
     * Fatal outside [3, 28] nm, on a bad yield, or on a binding the
     * plan cannot honor (duplicate inputs, Epa/Gpa with node-resolved
     * curves, more than kMaxInputs).
     */
    static EvalPlan forNode(const FabParams &fab, double nm,
                            std::span<const EvalInput> bindings = {});

    /**
     * Compile for a named Table 7 row ("7nm-EUV"): EPA and the GPA
     * columns pin to the row, like carbonPerAreaNamed(). Fatal on
     * unknown labels.
     */
    static EvalPlan forNodeNamed(const FabParams &fab,
                                 std::string_view node_label,
                                 std::span<const EvalInput> bindings = {});

    /** Baseline terms for a raw-formula plan (no database). */
    struct RawTerms
    {
        double ci_fab = 0.0;
        double epa = 0.0;
        double gpa = 0.0;
        double mpa = 0.0;
        double yield = 1.0;
    };

    /**
     * Compile the raw Eq. 5 formula over caller-supplied baseline
     * terms -- the shape of the generic uncertainty studies, where
     * EPA/GPA/MPA are themselves uncertain inputs rather than
     * database-resolved constants. `Abatement` cannot be bound (there
     * are no columns to interpolate).
     */
    static EvalPlan forRawCpa(const RawTerms &terms,
                              std::span<const EvalInput> bindings = {});

    /** Number of bound inputs (the expected values[] length). */
    std::size_t inputCount() const { return input_count_; }

    /** The bound inputs, in values[] order. */
    std::span<const EvalInput> bindings() const
    {
        return {bindings_.data(), input_count_};
    }

    /**
     * Evaluate one sample: values[i] feeds binding i, unbound terms
     * keep their compiled baselines. Fatal on a yield outside (0, 1]
     * and -- for curve-resolved plans -- an abatement outside
     * [0.90, 1.0], mirroring the uncompiled path.
     */
    double
    evaluate(const double *values) const
    {
        return evaluateOne(values);
    }

    /**
     * Batched evaluation over structure-of-arrays columns:
     * outputs[s] = evaluate({inputs[0][s], ..., inputs[k-1][s]}) for
     * s in [0, n). One call per chunk replaces n closure invocations.
     */
    void evaluateBatch(std::size_t n, const double *const *inputs,
                       double *outputs) const;

    /** The compiled baseline CPA (no inputs perturbed). */
    util::CarbonPerArea cpa() const;

    /**
     * Resolve a memory/storage technology name to its carbon per
     * capacity once (Tables 9-11); bit-identical to the per-call
     * data::storageOrDie() lookup. Fatal on unknown names.
     */
    static util::CarbonPerCapacity
    resolveTechnologyCps(std::string_view technology);

    /**
     * Resolve a grid region name to its Table 6 carbon intensity
     * once; bit-identical to data::regionIntensity(). Fatal on
     * unknown names.
     */
    static util::CarbonIntensity
    resolveRegionIntensity(std::string_view region);

  private:
    EvalPlan() = default;

    void bind(std::span<const EvalInput> bindings);
    double evaluateOne(const double *values) const;

    // Resolved baselines: Eq. 5 terms in their natural units.
    double ci_fab_ = 0.0;
    double epa_ = 0.0;
    double gpa_ = 0.0;
    double mpa_ = 0.0;
    double yield_ = 1.0;
    double abatement_ = 0.0;

    // GPA abatement columns at the resolved node, when available.
    double gpa95_ = 0.0;
    double gpa99_ = 0.0;
    bool has_gpa_columns_ = false;
    /** Curve-resolved plans re-check the abatement range per sample
     *  (FabDatabase::gpa() does); named-row plans do not
     *  (carbonPerAreaNamed() interpolates unchecked). */
    bool check_abatement_ = false;
    /** Abatement is bound, so GPA recomputes per sample. */
    bool abatement_bound_ = false;

    std::array<EvalInput, kMaxInputs> bindings_{};
    std::size_t input_count_ = 0;
};

} // namespace act::core

#endif // ACT_CORE_EVAL_PLAN_H
