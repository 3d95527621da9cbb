#!/usr/bin/env python3
"""Builds and runs the repository benchmark (querybench).

    python3 querybench/run.py --workload citation_count --seed 1 \
        --seconds 25 --trace 0

Run from the repository root. The first run configures and builds the
library and the benchmark program under .bench_build/querybench; later
runs only re-check the build. The program's human-readable lines are
passed through, then the result JSON is printed as the last line after
two more checks:

  * the metric names equal BENCHMARK.json's end_to_end list (--trace 0) or
    per_layer list (--trace 1);
  * with --trace 1, on a seed pinned in querybench/pins.json, the work
    counts equal the pinned ones.

A failed check sets "correct" to false and the exit code to 1. A failed
build or program error exits nonzero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "querybench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "querybench",
         "querybench_selftest"],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "querybench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def pin_mismatches(workload, seed, metrics):
    with open(os.path.join(HERE, "pins.json")) as f:
        pins = json.load(f)["workloads"].get(workload, {})
    pinned = pins.get("counts", {}).get(str(seed), {})
    return [f"{name}: pinned {want}, measured {metrics[name]['value']}"
            for name, want in pinned.items()
            if metrics.get(name, {}).get("value") != want]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"building querybench failed: {error}", file=sys.stderr)
        return 2
    work_dir = os.path.join(BUILD, f"work-{os.getpid()}")
    try:
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"querybench exited with code {proc.returncode}",
              file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    problems = []
    got = set(result["metrics"])
    want = set(expected_metrics(args.trace))
    if got != want:
        problems.append(f"metrics {sorted(got - want)} are not in "
                        f"BENCHMARK.json, {sorted(want - got)} are missing")
    if args.trace:
        problems += pin_mismatches(args.workload, args.seed,
                                   result["metrics"])
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
