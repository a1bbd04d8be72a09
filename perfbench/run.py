#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <rush_hour|fault_storm|name_churn> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first call configures and builds the
kernel sources under src/ together with the benchmark program in this
directory (an optimized CMake build in .bench_build/perfbench); later calls
only rebuild what changed.  Build output goes to stderr.  The program's
output is passed through, and its last line is one JSON object with the
keys correct, attempted, failed and metrics.  Before printing it, this
script checks that the metric names and units are exactly the ones
BENCHMARK.json declares for the mode (end_to_end with --trace 0, per_layer
with --trace 1).  Traced runs also write their spans as CSV next to the
build.  Exits nonzero when the build fails (without a result line), when
the program fails its correctness gate (after its "correct": false line), or
when the metrics do not match (without a result line).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "kernel", "kernel.h")):
        fail("no kernel sources under src/; run from a full checkout", 3)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step), 3)
    return os.path.join(BUILD, "perfbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", os.path.join(
            BUILD, "spans-%s-%d.csv" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 5)
    lines = done.stdout.splitlines()
    body, last = lines[:-1], (lines[-1] if lines else "")
    sys.stdout.write("".join(line + "\n" for line in body))
    sys.stdout.flush()
    if done.returncode != 0:
        print(last)
        fail("benchmark exited with %d (correctness gate failed)" % done.returncode, 4)
    result = json.loads(last)
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = declared_metrics(args.trace)
    if reported != declared:
        missing = sorted(set(declared) - set(reported))
        extra = sorted(set(reported) - set(declared))
        units = sorted(n for n in set(declared) & set(reported) if declared[n] != reported[n])
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s, unit mismatch %s"
             % (missing, extra, units), 4)
    print(last)


if __name__ == "__main__":
    main()
