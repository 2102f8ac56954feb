#!/usr/bin/env python3
"""Tests for tools/check_bench_regression.py: a benchmark repeated with
--benchmark_repetitions counts as its median, so one outlier repetition
cannot flip the verdict.

    python3 tests/check_bench_regression_test.py tools/check_bench_regression.py
"""

import json
import os
import subprocess
import sys
import tempfile

CALIBRATE = "BM_CarbonPerArea"
TRACKED = "BM_MonteCarloBatch"


def document(times):
    """A results document with one entry per (name, CPU ns) pair."""
    return {"benchmarks": [
        {"name": name, "iterations": 100, "cpu_time_ns": cpu,
         "real_time_ns": cpu * 1.01}
        for name, cpu in times]}


def write(directory, name, content):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(content, handle)
    return path


def run(script, *args):
    return subprocess.run([sys.executable, script, *args],
                          capture_output=True, text=True, check=False)


def check(script, directory, baseline, results):
    return run(script,
               "--baseline", write(directory, "baseline.json", baseline),
               "--results", write(directory, "results.json", results),
               "--check", TRACKED)


def main():
    script = sys.argv[1]
    failures = []
    baseline = document([(CALIBRATE, 100.0), (TRACKED, 1000.0)])
    steady = [(TRACKED, 1000.0)] * 5
    cases = {
        # The last calibration repetition ran at half time: taken
        # alone it would scale the baseline to 500 ns and call the
        # unchanged 1000 ns a 2x regression.
        "fast calibration outlier": document(
            [(CALIBRATE, cpu) for cpu in (100.0, 101.0, 99.0, 100.0,
                                          50.0)] + steady),
        # One slow repetition of the tracked benchmark itself.
        "slow tracked outlier": document(
            [(CALIBRATE, 100.0)] * 5 +
            [(TRACKED, cpu) for cpu in (1000.0, 990.0, 1010.0, 1000.0,
                                        2000.0)]),
    }
    with tempfile.TemporaryDirectory() as directory:
        for name, results in cases.items():
            result = check(script, directory, baseline, results)
            if result.returncode != 0 or "(1.000x) -- ok" not in result.stdout:
                failures.append(f"{name}: exit {result.returncode}\n"
                                f"{result.stdout}{result.stderr}")

        # --update-baseline writes one median entry per benchmark.
        results = write(directory, "repeated.json", cases[
            "fast calibration outlier"])
        updated = os.path.join(directory, "updated.json")
        result = run(script, "--baseline", updated, "--results", results,
                     "--update-baseline")
        if result.returncode != 0:
            failures.append(f"--update-baseline: exit {result.returncode}"
                            f"\n{result.stdout}{result.stderr}")
        else:
            with open(updated, encoding="utf-8") as handle:
                entries = json.load(handle)["benchmarks"]
            got = {entry["name"]: entry["cpu_time_ns"] for entry in entries}
            if len(entries) != 2 or got != {CALIBRATE: 100.0,
                                             TRACKED: 1000.0}:
                failures.append(f"--update-baseline wrote {entries}")

    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    print(f"ok   {len(cases) + 1} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
