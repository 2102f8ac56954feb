#!/usr/bin/env python3
"""Seeded mutation fuzz of the files `act merge`, `act status` and
`act trace-merge` read.

    python3 tests/cli_fuzz_test.py build/tools/act

The corpus is generated by the CLI itself: a 3-shard cpa_montecarlo
partial set whose partials carry an act.metrics.v1 document, the three
heartbeat sidecars those shards wrote, and two per-shard trace files.
Each case mutates one file of the corpus -- a byte flip, a truncation,
a JSON type swap, or an out-of-range number -- and runs the command
that reads it. Every case must exit 0 or 1, print a "fatal:" line
whenever it exits 1, and print neither "terminate called" nor a
sanitizer report. Plans are not fuzzed: a mutated plan can legitimately
ask for unbounded work. The seed fixes every mutation; the corpus's
timing fields (metrics, heartbeat rates, trace timestamps) differ from
run to run, so a failing case prints its mutation and stderr.
"""

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

CASES = 2000
SEED = 20221018
# Cases run a few at a time: each is one short act process.
JOBS = min(4, os.cpu_count() or 1)

PLAN = {
    "domain": "cpa_montecarlo",
    "items": 120,
    "grain": 40,
    "seed": 42,
    "config": {
        "node_nm": 14,
        "parameters": [
            {"name": "ci_fab_g_per_kwh", "distribution": "uniform",
             "low": 30, "high": 700},
            {"name": "yield", "distribution": "triangular",
             "low": 0.8, "baseline": 0.875, "high": 0.95},
        ],
    },
}

# Numbers that break narrowing casts and range assumptions.
BAD_NUMBERS = [-1, -0.0, 0, 1.5, 1e300, -1e300, 1e-320,
               2 ** 31, 2 ** 53 + 1, 2 ** 63, 2 ** 64, -(2 ** 63) - 1]
# One value of each JSON type; a swap picks one of another type.
TYPED_VALUES = ["x", 7, True, None, [], {}, [1, "a"], {"a": 1}]
# What a sanitizer or an uncaught exception leaves on stderr.
CRASH_MARKERS = ["terminate called", "runtime error:", "Sanitizer"]


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def pick_path(rng, doc):
    """A random path into @p doc: descend while a coin says so."""
    path = []
    node = doc
    while isinstance(node, (dict, list)) and node and rng.random() < 0.8:
        key = (rng.choice(sorted(node)) if isinstance(node, dict)
               else rng.randrange(len(node)))
        path.append(key)
        node = node[key]
    return path


def number_paths(doc, path=()):
    if isinstance(doc, bool):
        return []
    if isinstance(doc, (int, float)):
        return [list(path)]
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else [])
    found = []
    for key, child in children:
        found.extend(number_paths(child, path + (key,)))
    return found


def replace(doc, path, value):
    if not path:
        return value
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def mutate(rng, data):
    """Return (description, mutated bytes) for one case."""
    kind = rng.choice(["flip", "truncate", "swap", "number"])
    if kind == "flip":
        out = bytearray(data)
        offsets = [rng.randrange(len(out)) for _ in range(rng.randint(1, 4))]
        for offset in offsets:
            out[offset] ^= rng.randint(1, 255)
        return "flip bytes at %s" % offsets, bytes(out)
    if kind == "truncate":
        cut = rng.randrange(len(data))
        return "truncate to %d bytes" % cut, data[:cut]
    doc = json.loads(data)
    if kind == "swap":
        path = pick_path(rng, doc)
        old = doc
        for key in path:
            old = old[key]
        value = rng.choice([v for v in TYPED_VALUES
                            if json_type(v) != json_type(old)])
        description = "swap %s to %s" % (path, json.dumps(value))
    else:
        # Skew toward the short top-level fields: most numbers of a
        # partial are chunk payload values.
        paths = number_paths(doc)
        short = [p for p in paths if len(p) <= 2]
        path = rng.choice(short if short and rng.random() < 0.5
                          else paths)
        value = rng.choice(BAD_NUMBERS)
        description = "set %s to %s" % (path, json.dumps(value))
    return description, json.dumps(replace(doc, path, value)).encode()


def run(act, args, cwd, env):
    return subprocess.run([act] + args, cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)


def build_corpus(act, work, env):
    with open(os.path.join(work, "plan.json"), "w") as f:
        json.dump(PLAN, f)
    shard_env = dict(env, ACT_METRICS="1", ACT_HEARTBEAT_SECS="0")
    for i in range(3):
        shard_env["ACT_TRACE"] = "t%d.json" % i
        result = run(act, ["sweep", "--plan", "plan.json", "--shards", "3",
                           "--shard-index", str(i), "--out",
                           "p%d.json" % i], work, shard_env)
        if result.returncode != 0:
            sys.exit("cannot build the corpus: " + result.stderr.decode())
    corpus = {}
    for name in ["p0.json", "p1.json", "p2.json", "t0.json", "t1.json"] + [
            "p%d.heartbeat.json" % i for i in range(3)]:
        with open(os.path.join(work, name), "rb") as f:
            corpus[name] = f.read()
    return corpus


def command_for(name):
    """The command that reads corpus file @p name (relative to the
    case directory)."""
    if name.startswith("t"):
        return ["trace-merge", "merged.trace.json", "t0.json", "t1.json"]
    if name.endswith(".heartbeat.json"):
        return ["status", "."]
    return ["merge", "p0.json", "p1.json", "p2.json", "--out",
            "merged.json", "--metrics-out", "metrics.json",
            "--metrics-prom", "metrics.prom"]


def check(result):
    """Why a finished case violates the contract, or None."""
    stderr = result.stderr.decode(errors="replace")
    for marker in CRASH_MARKERS:
        if marker in stderr:
            return "stderr has '%s'" % marker
    if result.returncode not in (0, 1):
        return "exit %d" % result.returncode
    if result.returncode == 1 and not any(
            line.startswith("fatal: ") for line in stderr.splitlines()):
        return "exit 1 without a fatal: line"
    return None


def main():
    if len(sys.argv) != 2:
        sys.exit("usage: cli_fuzz_test.py <path to act>")
    act = os.path.abspath(sys.argv[1])

    env = dict(os.environ)
    for knob in ["ACT_METRICS", "ACT_TRACE", "ACT_HEARTBEAT",
                 "ACT_HEARTBEAT_SECS"]:
        env.pop(knob, None)
    work = tempfile.mkdtemp(prefix="act_fuzz_")
    try:
        corpus = build_corpus(act, work, env)
        rng = random.Random(SEED)
        names = sorted(corpus)
        cases = []
        for index in range(CASES):
            name = rng.choice(names)
            description, data = mutate(rng, corpus[name])
            cases.append((index, name, description, data))

        def run_case(case):
            index, name, description, data = case
            case_dir = os.path.join(work, "case%d" % index)
            os.mkdir(case_dir)
            for other, content in corpus.items():
                with open(os.path.join(case_dir, other), "wb") as f:
                    f.write(data if other == name else content)
            try:
                result = run(act, command_for(name), case_dir, env)
                rc, problem = result.returncode, check(result)
                stderr = result.stderr.decode(errors="replace")
            except subprocess.TimeoutExpired:
                rc, problem, stderr = None, "timed out", ""
            shutil.rmtree(case_dir)
            return case, rc, problem, stderr

        start = time.monotonic()
        failures = 0
        outcomes = {}
        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            for case, rc, problem, stderr in pool.map(run_case, cases):
                key = "%s exit %s" % (command_for(case[1])[0], rc)
                outcomes[key] = outcomes.get(key, 0) + 1
                if problem is None:
                    continue
                failures += 1
                if failures <= 10:
                    index, name, description, data = case
                    print("FAIL case %d (%s: %s): %s" %
                          (index, name, description, problem))
                    print("  stderr: " + stderr.strip()[-600:])
        elapsed = time.monotonic() - start
        print(", ".join("%s: %d" % item for item in sorted(outcomes.items())))
        print("%d cases (seed %d) in %.1f s, %d failed" %
              (CASES, SEED, elapsed, failures))
        return 1 if failures else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
