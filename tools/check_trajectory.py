#!/usr/bin/env python3
"""Checks BENCH_query.json, the committed performance trajectory.

Each row records one performance change's alternating parent/change runs
of `querybench/run.py` on one workload: the change, the parent commit,
the answer digest, the number of pairs, and for each end-to-end metric
the parent's and the change's median and quartiles. This check fails
(exit status 1) unless every row names a workload and only metrics that
BENCHMARK.json declares, with the fields below present.

Usage (from the repository root):
  python3 tools/check_trajectory.py [--trajectory=BENCH_query.json]
"""

import argparse
import json
import sys

ROW_FIELDS = ("pr", "archetype", "claim", "workload", "seed", "parent",
              "digest", "pairs", "metrics")
SIDE_FIELDS = ("median", "q1", "q3")


def problems(trajectory, spec):
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"]}
    rows = trajectory.get("rows", [])
    if not rows:
        yield "no rows"
    for i, row in enumerate(rows):
        where = f"row {i}"
        missing = [f for f in ROW_FIELDS if f not in row]
        if missing:
            yield f"{where}: missing {', '.join(missing)}"
            continue
        where = f"row {i} (PR {row['pr']}, {row['workload']})"
        if row["workload"] not in workloads:
            yield f"{where}: workload not in BENCHMARK.json"
        for name, value in row["metrics"].items():
            if name not in metrics:
                yield f"{where}: metric {name} not in BENCHMARK.json"
            for side in ("parent", "change"):
                if any(f not in value.get(side, {}) for f in SIDE_FIELDS):
                    yield f"{where}: {name}.{side} needs {SIDE_FIELDS}"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trajectory", default="BENCH_query.json")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.trajectory) as f:
        trajectory = json.load(f)
    with open(args.benchmark) as f:
        spec = json.load(f)
    found = list(problems(trajectory, spec))
    for problem in found:
        print(f"{args.trajectory}: {problem}", file=sys.stderr)
    if not found:
        print(f"{args.trajectory}: {len(trajectory['rows'])} rows OK")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
