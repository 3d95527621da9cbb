#!/usr/bin/env python3
"""Perf-regression gate over the bench harness JSON dumps.

Compares a freshly produced BENCH_*.json (bench/bench_common.cc's
WriteBenchJson schema) against a committed baseline and fails — exit
status 1 with a readable report — when the fresh run regresses:

  * Deterministic keys must match the baseline EXACTLY. The pipeline's
    outputs are bit-identical at any thread count, so per-level `n`, `m`,
    `M`, `n_prime`, `records_collapsed`, and `groups_pruned` changing at
    all means the algorithm changed, not the machine.
  * Work counters (`cpn_growth_iterations`, `cpn_edges_examined`,
    `blocking_probes`, `predicate_evals`) may grow up to --work-threshold
    (fraction; default 0.5). They are deterministic per run configuration
    but legitimately shift with algorithmic tuning, so the gate only
    catches blow-ups.
  * Per-run wall time (`seconds`) may grow up to --time-threshold
    (fraction; default 0.15). CI runs cross-machine, so its workflow
    passes a much looser bound; the default suits same-machine use.
  * Scalars listed in --exact-scalars (comma-separated keys) must match
    the baseline EXACTLY. The serve load generator's closed-loop counters
    (answered / errors) are deterministic replays, so any drift means the
    admission logic changed.

Improvements (fewer seconds, less work) never fail the gate.

Usage:
  check_bench_regression.py --fresh=BENCH_fig2.json \
      --baseline=tools/baselines/BENCH_fig2_ci.json [--time-threshold=3.0]
  check_bench_regression.py --fresh=BENCH_serve.json \
      --baseline=tools/baselines/BENCH_serve_ci.json \
      --exact-scalars=closed.answered,closed.errors
  check_bench_regression.py --baseline=... --self-test

--self-test ignores --fresh: it synthesizes a 20% wall-time regression
from the baseline itself and asserts the gate rejects it (and that the
unmodified baseline passes), proving the gate can fire before CI trusts
it. Stdlib only.
"""

import argparse
import copy
import json
import sys

EXACT_LEVEL_KEYS = ("n", "m", "M", "n_prime", "records_collapsed",
                    "groups_pruned")
WORK_LEVEL_KEYS = ("cpn_growth_iterations", "cpn_edges_examined",
                   "blocking_probes", "predicate_evals",
                   "postings_scanned", "postings_decoded",
                   "blocks_decoded", "blocks_skipped")


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    for key in ("figure", "runs"):
        if key not in doc:
            raise ValueError(f"{path}: missing required key {key!r}")
    return doc


def runs_by_k(doc):
    return {run["k"]: run for run in doc["runs"]}


def compare(baseline, fresh, time_threshold, work_threshold,
            exact_scalars=()):
    """Returns a list of human-readable regression descriptions."""
    problems = []
    if baseline["figure"] != fresh["figure"]:
        problems.append(
            f"figure mismatch: baseline={baseline['figure']!r} "
            f"fresh={fresh['figure']!r}")
        return problems
    if baseline.get("params") != fresh.get("params"):
        problems.append(
            f"params mismatch (different run configuration): "
            f"baseline={baseline.get('params')} fresh={fresh.get('params')}")
        return problems

    base_scalars = baseline.get("scalars", {})
    fresh_scalars = fresh.get("scalars", {})
    for key in exact_scalars:
        if key not in base_scalars:
            problems.append(f"scalar {key!r}: missing from baseline")
        elif key not in fresh_scalars:
            problems.append(f"scalar {key!r}: missing from fresh run")
        elif base_scalars[key] != fresh_scalars[key]:
            problems.append(
                f"scalar {key!r}: deterministic value changed "
                f"{base_scalars[key]} -> {fresh_scalars[key]} "
                f"(must match exactly)")

    base_runs, fresh_runs = runs_by_k(baseline), runs_by_k(fresh)
    for k in sorted(base_runs):
        if k not in fresh_runs:
            problems.append(f"K={k}: present in baseline, missing from fresh run")
            continue
        base, new = base_runs[k], fresh_runs[k]

        base_s, new_s = base["seconds"], new["seconds"]
        if base_s > 0 and new_s > base_s * (1.0 + time_threshold):
            problems.append(
                f"K={k}: wall time regressed {base_s:.3f}s -> {new_s:.3f}s "
                f"(+{100.0 * (new_s / base_s - 1.0):.1f}%, "
                f"threshold +{100.0 * time_threshold:.0f}%)")

        if len(base["levels"]) != len(new["levels"]):
            problems.append(
                f"K={k}: level count changed "
                f"{len(base['levels'])} -> {len(new['levels'])}")
            continue
        for l, (bl, nl) in enumerate(zip(base["levels"], new["levels"])):
            for key in EXACT_LEVEL_KEYS:
                if bl[key] != nl[key]:
                    problems.append(
                        f"K={k} level {l + 1}: deterministic key {key!r} "
                        f"changed {bl[key]} -> {nl[key]} (must match exactly)")
            for key in WORK_LEVEL_KEYS:
                # Newer keys (the blocked-index decode counters) may be
                # absent from baselines captured before they existed.
                if key not in bl or key not in nl:
                    continue
                if bl[key] > 0 and nl[key] > bl[key] * (1.0 + work_threshold):
                    problems.append(
                        f"K={k} level {l + 1}: work counter {key!r} regressed "
                        f"{bl[key]} -> {nl[key]} "
                        f"(+{100.0 * (nl[key] / bl[key] - 1.0):.1f}%, "
                        f"threshold +{100.0 * work_threshold:.0f}%)")
    return problems


def self_test(baseline, time_threshold, work_threshold, exact_scalars):
    """The gate must accept the baseline vs itself and reject a synthetic
    20% wall-time regression of every run (plus a drifted deterministic
    scalar when --exact-scalars is in play)."""
    clean = compare(baseline, copy.deepcopy(baseline), time_threshold,
                    work_threshold, exact_scalars)
    if clean:
        print("SELF-TEST FAILED: baseline vs itself reported regressions:")
        for p in clean:
            print(f"  {p}")
        return 1

    regressed = copy.deepcopy(baseline)
    for run in regressed["runs"]:
        run["seconds"] *= 1.20
    if exact_scalars:
        regressed.setdefault("scalars", {})[exact_scalars[0]] = (
            baseline.get("scalars", {}).get(exact_scalars[0], 0) + 1)
    problems = compare(baseline, regressed, time_threshold, work_threshold,
                       exact_scalars)
    if not problems:
        print("SELF-TEST FAILED: synthetic +20% wall-time regression "
              f"passed the gate (time threshold {time_threshold})")
        return 1
    print(f"self-test OK: baseline passes against itself; synthetic +20% "
          f"wall-time regression rejected with {len(problems)} finding(s), "
          "e.g.:")
    print(f"  {problems[0]}")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--fresh", help="freshly produced BENCH_*.json")
    parser.add_argument("--time-threshold", type=float, default=0.15,
                        help="allowed fractional wall-time growth "
                             "(default 0.15; CI uses a loose cross-machine "
                             "bound)")
    parser.add_argument("--work-threshold", type=float, default=0.5,
                        help="allowed fractional work-counter growth "
                             "(default 0.5)")
    parser.add_argument("--exact-scalars", default="",
                        help="comma-separated scalar keys that must match "
                             "the baseline exactly (deterministic serve "
                             "counters)")
    parser.add_argument("--self-test", action="store_true",
                        help="synthesize a 20%% wall-time regression from "
                             "the baseline and assert the gate rejects it")
    args = parser.parse_args(argv)

    exact_scalars = [k for k in args.exact_scalars.split(",") if k]
    baseline = load(args.baseline)
    if args.self_test:
        # The synthetic regression is +20%; the check only proves the gate
        # fires when the threshold is below that.
        if args.time_threshold >= 0.20:
            print(f"SELF-TEST FAILED: --time-threshold={args.time_threshold} "
                  "is >= 0.20, the synthetic regression would pass")
            return 1
        return self_test(baseline, args.time_threshold, args.work_threshold,
                         exact_scalars)

    if not args.fresh:
        parser.error("--fresh is required unless --self-test is given")
    fresh = load(args.fresh)
    problems = compare(baseline, fresh, args.time_threshold,
                       args.work_threshold, exact_scalars)
    if problems:
        print(f"PERF REGRESSION: {args.fresh} vs {args.baseline} "
              f"({len(problems)} finding(s)):")
        for p in problems:
            print(f"  {p}")
        print("If the change is intentional, refresh the baseline "
              "(see EXPERIMENTS.md, 'Refreshing the CI perf baseline').")
        return 1
    print(f"OK: {args.fresh} within thresholds of {args.baseline} "
          f"(time +{100.0 * args.time_threshold:.0f}%, "
          f"work +{100.0 * args.work_threshold:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
