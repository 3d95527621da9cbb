#!/usr/bin/env python3
"""Deterministic ingest/query interleaving checker for epoch snapshots.

Drives `bench/load_serve --epoch-schedule=...` (the in-binary interleaving
driver) and validates every printed answer against a serial oracle that
recomputes the truth from the canonical mention sequence (mention i has
key i%keys and weight 1.0+(i%7)*0.5 — all sums are exact dyadic floats,
so comparisons are bit-meaningful). The soundness contract under test:

  * Every answer self-describes the stream prefix it was computed at
    (`schedule.q mentions=N`). Exact answers must equal the oracle at N
    bit-for-bit; an answer computed at *no* consistent prefix — a torn
    read of a half-applied ingest — cannot match any oracle and fails.
  * Stale cache hits are degraded but sound: every reported group's
    [count_lower, count_upper] interval must contain the truth at the
    *current* prefix, with count_upper widened by exactly the weight
    published since the cached epoch.
  * Readers never block on the writer: `online.reader_blocked` stays 0
    in every round, including the racing round (reader threads querying
    while the main thread ingests and publishes).
  * Crash recovery re-establishes the epoch counter: after an in-schedule
    `halt` (simulated crash, exit 7), a restart over the same WAL answers
    queries immediately — racing recovery-adjacent first reads — at an
    epoch strictly above the pre-crash epoch, with oracle-exact answers.

Rounds: serial (interleaved ingest/query/stale), racing (xA:B:C token),
recovery (halt + restart + verify), cache (miss/hit/stale_hit/miss
disposition sequence with a bit-identical hit).

Exit 0 when every round holds; exit 1 with a readable report otherwise.
Stdlib only.

Usage:
  epoch_harness.py --binary=build/bench/load_serve
      [--workdir=/tmp/topkdup-epochs]
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

KEYS = 5
K = 5
EPS = 1e-9


def weight(i):
    return 1.0 + (i % 7) * 0.5


def oracle_groups(prefix, keys=KEYS):
    """Top groups at canonical prefix [0, prefix): (rep, weight, members),
    sorted by weight desc, smallest-member asc — the pipeline's order."""
    groups = {}
    for i in range(prefix):
        g = groups.setdefault(i % keys, {"w": 0.0, "members": []})
        g["w"] += weight(i)
        g["members"].append(i)
    out = []
    for g in groups.values():
        rep = max(g["members"], key=weight)
        out.append((rep, g["w"], len(g["members"]), min(g["members"])))
    out.sort(key=lambda t: (-t[1], t[3]))
    return [(rep, w, n) for rep, w, n, _ in out]


def run(cmd, timeout=120, expect_rc=0):
    proc = subprocess.run(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=timeout,
    )
    if expect_rc is not None and proc.returncode != expect_rc:
        raise AssertionError(
            "command %s: exit %d (wanted %d)\n%s"
            % (" ".join(cmd), proc.returncode, expect_rc, proc.stdout)
        )
    return proc.stdout


def parse_queries(text):
    """All schedule.q events, each with its schedule.group lines attached."""
    queries = []
    for line in text.splitlines():
        if line.startswith("schedule.q "):
            q = {"groups": [], "raw": [line]}
            for token in line.split()[1:]:
                key, _, value = token.partition("=")
                q[key] = value
            q["epoch"] = int(q["epoch"])
            q["mentions"] = int(q["mentions"])
            q["staleness"] = float(q["staleness"])
            queries.append(q)
        elif line.startswith("schedule.group "):
            g = {}
            for token in line.split()[1:]:
                key, _, value = token.partition("=")
                g[key] = value
            queries[-1]["groups"].append(
                (int(g["rep"]), float(g["w"]), float(g["lo"]),
                 float(g["hi"]), int(g["n"]))
            )
            queries[-1]["raw"].append(line)
    return queries


def parse_marker(text, key):
    value = None
    for line in text.splitlines():
        for token in line.split():
            if token.startswith(key + "="):
                try:
                    value = int(token.split("=", 1)[1])
                except ValueError:
                    pass
    return value


def check_exact(q, label):
    """An exact answer must equal the oracle at its self-described prefix."""
    if q["outcome"] != "exact":
        raise AssertionError(
            "%s: expected an exact answer, got outcome=%s\n%s"
            % (label, q["outcome"], "\n".join(q["raw"]))
        )
    want = oracle_groups(q["mentions"])[:K]
    got = [(rep, w, n) for rep, w, lo, hi, n in q["groups"]]
    ok = len(got) == len(want) and all(
        gr == wr and gn == wn and abs(gw - ww) < EPS
        for (gr, gw, gn), (wr, ww, wn) in zip(got, want)
    )
    if not ok:
        raise AssertionError(
            "%s: exact answer at prefix %d diverges from the oracle\n"
            "got:  %s\nwant: %s" % (label, q["mentions"], got, want)
        )
    for rep, w, lo, hi, n in q["groups"]:
        if abs(lo - w) > EPS or abs(hi - w) > EPS:
            raise AssertionError(
                "%s: exact answer has non-tight bounds (rep %d: w=%g "
                "lo=%g hi=%g)" % (label, rep, w, lo, hi)
            )


def check_stale(q, current_prefix, label):
    """A stale hit's intervals must contain the truth at the current
    prefix, and its exact fields must match the oracle at the cached one."""
    if q["cache"] != "stale_hit" or q["outcome"] != "degraded":
        raise AssertionError(
            "%s: expected a degraded stale hit, got cache=%s outcome=%s\n%s"
            % (label, q["cache"], q["outcome"], "\n".join(q["raw"]))
        )
    cached_w = sum(weight(i) for i in range(q["mentions"]))
    current_w = sum(weight(i) for i in range(current_prefix))
    if abs(q["staleness"] - (current_w - cached_w)) > EPS:
        raise AssertionError(
            "%s: staleness_weight=%g != weight ingested since the cached "
            "epoch (%g)" % (label, q["staleness"], current_w - cached_w)
        )
    truth = {rep % KEYS: w for rep, w, n in oracle_groups(current_prefix)}
    for rep, w, lo, hi, n in q["groups"]:
        t = truth[rep % KEYS]
        if not (lo - EPS <= t <= hi + EPS):
            raise AssertionError(
                "%s: UNSOUND stale answer — truth %g for key %d outside "
                "[%g, %g]\n%s"
                % (label, t, rep % KEYS, lo, hi, "\n".join(q["raw"]))
            )
        if abs(hi - (lo + q["staleness"])) > EPS:
            raise AssertionError(
                "%s: upper bound not widened by the staleness weight "
                "(rep %d: lo=%g hi=%g staleness=%g)"
                % (label, rep, lo, hi, q["staleness"])
            )


def base_cmd(args, extra):
    return [
        args.binary,
        "--requests=0",
        "--rates=50",
        "--ingest-keys=%d" % KEYS,
        "--k=%d" % K,
    ] + extra


def check_reader_never_blocked(out, label):
    blocked = parse_marker(out, "online.reader_blocked")
    if blocked != 0:
        raise AssertionError(
            "%s: online.reader_blocked=%s — a reader waited on the writer "
            "lock\n%s" % (label, blocked, out)
        )


def serial_round(args):
    out = run(base_cmd(args, ["--epoch-schedule=i7,q,i3,s,q,i15,s,q"]))
    qs = parse_queries(out)
    if len(qs) != 5:
        raise AssertionError("serial: expected 5 queries\n%s" % out)
    check_exact(qs[0], "serial q@7")
    check_stale(qs[1], 10, "serial s@10")
    check_exact(qs[2], "serial q@10")
    check_stale(qs[3], 25, "serial s@25")
    check_exact(qs[4], "serial q@25")
    for q, prefix in zip(qs, (7, 7, 10, 10, 25)):
        if q["mentions"] != prefix:
            raise AssertionError(
                "serial: answer self-describes prefix %d, schedule says %d"
                % (q["mentions"], prefix)
            )
    check_reader_never_blocked(out, "serial")
    print("round serial: 5 answers validated against the oracle OK")


def racing_round(args):
    # 4 reader threads x 8 queries race the main thread ingesting 500
    # mentions on top of a 10-mention base. Every reader answer must match
    # the oracle at whatever prefix it self-describes — any torn read
    # matches no prefix and fails.
    # --cache=off so every reader query actually executes against a pinned
    # snapshot instead of repeatedly serving the same cached prefix.
    out = run(
        base_cmd(args, ["--cache=off", "--epoch-schedule=i10,x500:4:8,d,q"])
    )
    qs = parse_queries(out)
    if len(qs) != 4 * 8 + 1:
        raise AssertionError("racing: expected 33 queries\n%s" % out)
    prefixes = set()
    for i, q in enumerate(qs):
        if not 10 <= q["mentions"] <= 510:
            raise AssertionError(
                "racing q%d: impossible prefix %d" % (i, q["mentions"])
            )
        check_exact(q, "racing q%d" % i)
        prefixes.add(q["mentions"])
    if qs[-1]["mentions"] != 510:
        raise AssertionError(
            "racing: final serial query saw prefix %d, want 510"
            % qs[-1]["mentions"]
        )
    check_reader_never_blocked(out, "racing")
    print(
        "round racing: %d answers across %d distinct pinned prefixes OK"
        % (len(qs), len(prefixes))
    )


def recovery_round(args, base):
    wal_dir = os.path.join(base, "recovery")
    shutil.rmtree(wal_dir, ignore_errors=True)
    os.makedirs(wal_dir)
    wal = ["--wal-dir=%s" % wal_dir, "--wal-fsync=always"]
    # Crash mid-session: `halt` is _Exit(7) — no drain, no final sync.
    out = run(
        base_cmd(args, wal + ["--epoch-schedule=i12,q,halt"]), expect_rc=7
    )
    qs = parse_queries(out)
    check_exact(qs[0], "recovery pre-crash q@12")
    pre_epoch = qs[0]["epoch"]
    # Restart over the same WAL with queries *first* (x0:2:3 fires 6
    # concurrent reads before any new ingest), then verify the canonical
    # prefix survived and the epoch counter moved strictly forward.
    vout = run(
        base_cmd(args, wal + ["--verify=1", "--epoch-schedule=x0:2:3,i5,q"])
    )
    if parse_marker(vout, "verify.match") != 1:
        raise AssertionError("recovery: restart verify failed\n%s" % vout)
    if parse_marker(vout, "verify.recovered") != 12:
        raise AssertionError(
            "recovery: expected 12 recovered mentions\n%s" % vout
        )
    vqs = parse_queries(vout)
    if len(vqs) != 7:
        raise AssertionError("recovery: expected 7 restart queries\n%s" % vout)
    for i, q in enumerate(vqs[:-1]):
        check_exact(q, "recovery restart q%d" % i)
        if q["mentions"] != 12:
            raise AssertionError(
                "recovery restart q%d: prefix %d, want the recovered 12"
                % (i, q["mentions"])
            )
        if q["epoch"] <= pre_epoch:
            raise AssertionError(
                "recovery: post-restart epoch %d did not advance past the "
                "pre-crash epoch %d" % (q["epoch"], pre_epoch)
            )
    check_exact(vqs[-1], "recovery q@17")
    if vqs[-1]["mentions"] != 17:
        raise AssertionError(
            "recovery: post-ingest prefix %d, want 17" % vqs[-1]["mentions"]
        )
    check_reader_never_blocked(vout, "recovery")
    print(
        "round recovery: crash at epoch %d, restart answered at epoch %d OK"
        % (pre_epoch, vqs[0]["epoch"])
    )


def cache_round(args):
    out = run(base_cmd(args, ["--epoch-schedule=i8,q,q,i4,s,q"]))
    qs = parse_queries(out)
    if len(qs) != 4:
        raise AssertionError("cache: expected 4 queries\n%s" % out)
    dispositions = [q["cache"] for q in qs]
    if dispositions != ["miss", "hit", "stale_hit", "miss"]:
        raise AssertionError(
            "cache: disposition sequence %s, want miss/hit/stale_hit/miss"
            % dispositions
        )
    check_exact(qs[0], "cache miss@8")
    check_exact(qs[1], "cache hit@8")
    # The cache hit must be bit-identical to the uncached answer — same
    # marker lines except the disposition field.
    strip = [l.replace("cache=miss", "").replace("cache=hit", "")
             for l in qs[0]["raw"] + qs[1]["raw"]]
    if strip[: len(qs[0]["raw"])] != strip[len(qs[0]["raw"]):]:
        raise AssertionError(
            "cache: hit diverges from the uncached answer\n%s\nvs\n%s"
            % ("\n".join(qs[0]["raw"]), "\n".join(qs[1]["raw"]))
        )
    check_stale(qs[2], 12, "cache stale@12")
    check_exact(qs[3], "cache refreshed q@12")
    check_reader_never_blocked(out, "cache")
    print("round cache: miss/hit/stale_hit/miss, hit bit-identical OK")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--workdir", default="/tmp/topkdup-epochs")
    args = parser.parse_args()

    if not os.path.isfile(args.binary):
        print("no such binary: %s" % args.binary, file=sys.stderr)
        return 1
    pathlib.Path(args.workdir).mkdir(parents=True, exist_ok=True)

    rounds = [
        ("serial", lambda: serial_round(args)),
        ("racing", lambda: racing_round(args)),
        ("recovery", lambda: recovery_round(args, args.workdir)),
        ("cache", lambda: cache_round(args)),
    ]
    failures = []
    for name, fn in rounds:
        try:
            fn()
        except AssertionError as e:
            failures.append((name, str(e)))
            print("FAIL %s: %s" % (name, e), file=sys.stderr)

    if failures:
        print(
            "\nepoch harness: %d/%d rounds failed"
            % (len(failures), len(rounds)),
            file=sys.stderr,
        )
        return 1
    print("\nepoch harness: all %d rounds green" % len(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
