#!/usr/bin/env python3
"""Compare a perf_microbench BENCH_results.json against the checked-in
baseline and fail on large regressions of the tracked benchmarks.

Raw nanosecond numbers are not comparable across machines, so the
comparison is *calibrated*: both files must contain a calibration
benchmark (default BM_CarbonPerArea, the pure-arithmetic Eq. 5 kernel
with no threading effects), and every baseline time is rescaled by
the calibration ratio before comparing. A tracked benchmark fails only
when its calibrated CPU time exceeds the baseline by more than the
tolerance factor (default 1.25, i.e. >25% slower).

Large *improvements* are reported too: a tracked benchmark running
faster than 1/tolerance of the calibrated baseline (>25% faster by
default) prints a "baseline stale -- refresh" notice. That still exits
0 -- speedups never break CI -- but it is the cue to re-run with
--update-baseline, which rewrites the baseline file from the results
file so future comparisons measure against the new floor.

Repeated entries of one benchmark (--benchmark_repetitions=N writes
one entry per repetition) count as their median, in the comparison
and in --update-baseline alike, so one outlier repetition -- of the
calibration kernel above all -- cannot flip the verdict.

Exit status: 0 = within tolerance, 1 = regression, 2 = bad input.
"""

import argparse
import json
import statistics
import sys

DEFAULT_CALIBRATE = "BM_CarbonPerArea"
DEFAULT_CHECKS = ["BM_MonteCarloCpaScalar", "BM_MonteCarloBatch"]


def load_document(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise SystemExit(f"error: cannot read {path}: {error}")


def load_times(document, path):
    """Map benchmark name -> median CPU ns/iteration over its entries
    in a results document."""
    samples = {}
    for entry in document.get("benchmarks", []):
        name = entry.get("name")
        cpu = entry.get("cpu_time_ns")
        if isinstance(name, str) and isinstance(cpu, (int, float)):
            samples.setdefault(name, []).append(float(cpu))
    if not samples:
        raise SystemExit(f"error: no benchmark entries in {path}")
    return {name: statistics.median(values)
            for name, values in samples.items()}


PROVENANCE_KEYS = ("git_sha", "simd_level", "act_threads", "hostname")


def warn_provenance_mismatch(baseline_doc, results_doc):
    """Warn (never fail) when the two runs' provenance stamps differ.

    The calibration benchmark absorbs uniform machine-speed deltas but
    not, e.g., a different SIMD dispatch level or thread setting -- a
    mismatch means the comparison is weaker than it looks.
    """
    baseline = baseline_doc.get("provenance")
    results = results_doc.get("provenance")
    if not isinstance(baseline, dict) or not isinstance(results, dict):
        return
    for key in PROVENANCE_KEYS:
        old, new = baseline.get(key), results.get(key)
        if old is not None and new is not None and old != new:
            print(f"warning: provenance mismatch on '{key}': baseline "
                  f"ran with {old!r}, results with {new!r} -- "
                  "calibrated comparison may be unreliable",
                  file=sys.stderr)


def require(times, name, path):
    if name not in times:
        raise SystemExit(f"error: benchmark '{name}' missing from {path}")
    if times[name] <= 0.0:
        raise SystemExit(f"error: benchmark '{name}' in {path} has a "
                         "non-positive CPU time")
    return times[name]


def median_entries(entries):
    """One entry per benchmark name: each numeric field is the median
    of that name's repeated entries."""
    grouped = {}
    for entry in entries:
        grouped.setdefault(entry["name"], []).append(entry)
    merged = []
    for name in sorted(grouped):
        group = grouped[name]
        entry = dict(group[0])
        for key in entry:
            values = [other.get(key) for other in group]
            if all(isinstance(v, (int, float)) and
                   not isinstance(v, bool) for v in values):
                entry[key] = statistics.median(values)
        merged.append(entry)
    return merged


def update_baseline(baseline_path, results_path):
    """Rewrite the baseline file from a fresh results file."""
    document = load_document(results_path)
    entries = median_entries(
        [entry for entry in document.get("benchmarks", [])
         if isinstance(entry.get("name"), str)])
    if not entries:
        raise SystemExit(
            f"error: no benchmark entries in {results_path}")
    baseline = {"benchmarks": entries}
    if isinstance(document.get("provenance"), dict):
        baseline["provenance"] = document["provenance"]
    try:
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        raise SystemExit(
            f"error: cannot write {baseline_path}: {error}")
    print(f"updated {baseline_path} from {results_path} "
          f"({len(entries)} benchmarks)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="checked-in BENCH_baseline.json")
    parser.add_argument("--results", required=True,
                        help="freshly produced BENCH_results.json")
    parser.add_argument("--tolerance", type=float, default=1.25,
                        help="fail when calibrated time exceeds "
                        "baseline by this factor (default 1.25)")
    parser.add_argument("--calibrate", default=DEFAULT_CALIBRATE,
                        help="benchmark used to rescale for machine "
                        f"speed (default {DEFAULT_CALIBRATE})")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME",
                        help="benchmark to compare (repeatable; "
                        f"default {' '.join(DEFAULT_CHECKS)})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline file from the "
                        "results file instead of comparing")
    args = parser.parse_args()
    checks = args.check if args.check else DEFAULT_CHECKS
    if args.tolerance <= 0.0:
        raise SystemExit("error: tolerance must be positive")

    if args.update_baseline:
        return update_baseline(args.baseline, args.results)

    baseline_doc = load_document(args.baseline)
    results_doc = load_document(args.results)
    warn_provenance_mismatch(baseline_doc, results_doc)
    baseline = load_times(baseline_doc, args.baseline)
    results = load_times(results_doc, args.results)

    scale = (require(results, args.calibrate, args.results) /
             require(baseline, args.calibrate, args.baseline))
    print(f"calibration ({args.calibrate}): this machine runs "
          f"{scale:.3f}x the baseline machine's time")

    failed = []
    stale = []
    for name in checks:
        expected = require(baseline, name, args.baseline) * scale
        actual = require(results, name, args.results)
        ratio = actual / expected
        if ratio > args.tolerance:
            verdict = "REGRESSION"
            failed.append(name)
        elif ratio < 1.0 / args.tolerance:
            verdict = "improved"
            stale.append(name)
        else:
            verdict = "ok"
        print(f"  {name}: {actual:.1f} ns vs calibrated baseline "
              f"{expected:.1f} ns ({ratio:.3f}x) -- {verdict}")

    if failed:
        print(f"FAIL: {', '.join(failed)} slower than "
              f"{args.tolerance:.2f}x the calibrated baseline")
        return 1
    if stale:
        print(f"NOTICE: {', '.join(stale)} more than "
              f"{args.tolerance:.2f}x faster than the calibrated "
              "baseline -- baseline stale, refresh it with "
              "--update-baseline")
    print(f"PASS: all {len(checks)} tracked benchmarks within "
          f"{args.tolerance:.2f}x of the calibrated baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
