#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload seq-seir --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The first call configures and builds perfbench/ (which builds the epismc
library from src/ with its default options) into .bench_build/cmake; later
calls rebuild incrementally. The harness binary measures one workload and
prints its result as the last line of stdout: one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
--workload all runs every workload in BENCHMARK.json in turn and prints one
metric per line. See perfbench/README.md for what each number means.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = ".bench_build"
BUILD_DIR = os.path.join(SCRATCH, "cmake")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s at the benchmark's own run length; leave room
# for process start and exit.
TIMEOUT_MARGIN_S = 140
# The measured program is the default one.
REFUSED_ENV = ("EPISMC_FAULT", "EPISMC_SIMD", "EPISMC_POOL")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--scratch", SCRATCH]
    timeout = seconds + TIMEOUT_MARGIN_S
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {timeout:g} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: harness exited with {done.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: last line is not a JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: malformed result {lines[-1]}")
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for var in REFUSED_ENV:
        if os.environ.get(var):
            fail(f"refusing to run with {var} set")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no epismc sources beside perfbench/; run from a full checkout")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail(f"unknown workload {args.workload!r} (known: {', '.join(names)})")

    os.chdir(ROOT)
    build()
    if args.workload != "all":
        lines, _ = run_one(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        return

    results = {}
    for name in names:
        _, result = run_one(name, args.seed, args.seconds, args.trace)
        results[name] = result
        print(f"{name}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} fail_frac="
              f"{result['failed'] / result['attempted']:.4g}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(results), flush=True)
    if not all(r["correct"] for r in results.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
