#!/usr/bin/env python3
"""Run one workload of the atalib benchmark and print its metrics.

    python3 perfbench/run.py --workload gram_square --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. The first run configures and builds the
library and the benchmark binary under .bench_build/perfbench (Release). With
--trace 0 the workload runs in PROCESSES fresh processes for an equal share
of --seconds each; every process sets up (tuning included) and measures,
and each end-to-end metric is the median over the processes. With
--trace 1 one process makes a traced run and reports the per-layer
metrics. The last line of standard output is the result as one JSON
object; the exit code is 0 only if every output checked correct.

    python3 perfbench/run.py --selftest   # the benchmark's own tests
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
# BENCHMARK.json gates the first two; perfbench/README.md says why the other
# two are run by hand only.
WORKLOADS = ("gram_square", "dist_ranks", "gram_tall", "serve_mixed")
# Fresh processes per measured run. Each one tunes anew, so the median over
# them is not decided by one process's tuner pick or one burst of the host.
PROCESSES = 3
# Time allowed on top of --seconds for the set-up of all processes (input
# generation, tuning, the reference SYRK, the traced run's probes): a child
# still running past --seconds plus this is killed.
SETUP_ALLOWANCE_S = 120
# fail_ratio is (failed + 1) / (NOMINAL_ATTEMPTS + 2), as in the binary
# (kNominalAttempts): a fixed denominator, so speed does not move it.
NOMINAL_ATTEMPTS = 1000


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(deadline):
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        log("perfbench: the atalib sources (src/, CMakeLists.txt) are not in", ROOT)
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4"])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("perfbench: build timed out")
            return False
        if r.returncode != 0:
            log("perfbench: build step failed:", " ".join(cmd))
            return False
    return True


def child_env():
    # The library reads ATALIB_* variables (tuning cache, forced kernels,
    # fault injection, fake NUMA); none may leak into a measurement.
    return {k: v for k, v in os.environ.items() if not k.startswith("ATALIB_")}


def run_child(args, deadline):
    """Run the benchmark binary; return (exit code, parsed result or None)."""
    cmd = [str(BUILD / "perfbench")] + args
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                           env=child_env(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: timed out:", " ".join(cmd))
        return 124, None
    result = None
    for line in r.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            log(line)
    return r.returncode, result


def aggregate(results):
    """One result from per-process ones: medians of the metrics, totals of
    the counts, fail_ratio recomputed from the total of failures."""
    out = dict(results[0])
    out["correct"] = all(r["correct"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["metrics"] = {}
    for name, m in results[0]["metrics"].items():
        value = statistics.median(r["metrics"][name]["value"] for r in results)
        out["metrics"][name] = {"value": value, "unit": m["unit"]}
    out["metrics"]["fail_ratio"]["value"] = (out["failed"] + 1) / (NOMINAL_ATTEMPTS + 2)
    for i, r in enumerate(results):
        info = r["info"]
        log("process {}: planner {} base {} ts_ratio {}; ".format(
            i, info.get("planner.engine"), info.get("planner.base_elements"),
            info.get("planner.ts_ratio"))
            + " ".join(f"{k}={m['value']:.6g}" for k, m in r["metrics"].items()))
    return out


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the benchmark's own tests")
    opts = ap.parse_args()

    if not build(time.monotonic() + 900):
        return 2
    deadline = time.monotonic() + opts.seconds + SETUP_ALLOWANCE_S
    if opts.selftest:
        return subprocess.run([str(BUILD / "perfbench_selftest")], env=child_env()).returncode
    if opts.workload is None:
        ap.error("--workload is required")

    base = [opts.workload, "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    correct = True
    if opts.trace:
        trace_dir = BUILD / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{opts.workload}-seed{opts.seed}.json"
        code, main_result = run_child(base + ["--mode", "trace", "--trace-out", str(trace_file)],
                                      deadline)
        if main_result is None:
            return code or 2
        log(f"spans written to {trace_file}")
    else:
        results = []
        for _ in range(PROCESSES):
            code, res = run_child([opts.workload, "--seed", str(opts.seed), "--seconds",
                                   str(opts.seconds / PROCESSES), "--mode", "run"], deadline)
            if res is None:
                return code or 2
            results.append(res)
        main_result = aggregate(results)
    correct = correct and main_result["correct"]
    info = main_result["info"]
    if info.get("host.build_type") != "Release":
        log("WARNING: not a Release build; these numbers are not comparable")
    log("host: {} x {}, isa {}, {}, build {}".format(
        info.get("host.nproc"), info.get("host.cpu"), info.get("host.isa"),
        info.get("host.compiler"), info.get("host.build_type")))

    metrics = main_result["metrics"]
    names = expected_names(opts.trace)
    if sorted(metrics) != sorted(names):
        log("perfbench: metric names differ from BENCHMARK.json:",
            sorted(set(metrics) ^ set(names)))
        return 2
    for name in names:
        m = metrics[name]
        log(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": main_result["attempted"],
        "failed": main_result["failed"],
        "metrics": {n: metrics[n] for n in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
