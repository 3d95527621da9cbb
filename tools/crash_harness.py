#!/usr/bin/env python3
"""Kill -9 chaos harness for the durable online-ingest path.

Each round starts `bench/load_serve` in its durable-ingest configuration
(--wal-dir + --ack-log, no query phases), SIGKILLs it at a random moment
mid-ingest, restarts it in --verify mode against the same wal_dir, and
asserts the recovery contract:

  * Zero acknowledged loss: every mention whose index made it into the
    ack log (written only *after* Ingest returned OK) is present after
    recovery — `verify.recovered >= last acked index`.
  * No duplicates, no divergence: the verifier inside load_serve checks
    the recovered stream is exactly the canonical prefix [0, recovered)
    and that its query answer is bit-identical to an uncrashed in-memory
    reference rebuilt from the same prefix (`verify.match=1`); the
    harness only has to trust its exit status and markers.
  * Recovery surfaces in the counters: `wal.recovered_mentions` on the
    restart equals the recovered count.

On top of the kill -9 rounds the harness runs three edge rounds:

  * clean round: SIGTERM instead of SIGKILL — the run must print
    `clean_shutdown=1` and leave the WAL as the only record (no `*.ckpt`
    file), and the next start must replay every acknowledged mention and
    verify (`verify.match=1`).
  * torn-tail round: append garbage bytes to the WAL after a kill; the
    restart must truncate the tail (`wal.truncated_tail_bytes > 0`) and
    still verify.
  * corruption round: flip a byte in the middle of a multi-frame WAL;
    the restart must fail with a typed InvalidArgument — never recover
    silently, never crash.

Exit 0 when every round holds; exit 1 with a readable report otherwise.
Stdlib only.

Usage:
  crash_harness.py --binary=build/bench/load_serve [--rounds=5]
      [--seed=20090324] [--workdir=/tmp/topkdup-chaos] [--fsync=never]
      [--wal-fault-prob=0.02]
"""

import argparse
import os
import pathlib
import random
import shutil
import signal
import subprocess
import sys
import time

INGEST = 500000  # Far more than any round completes; the kill decides.
KEYS = 20


def parse_marker(text, key):
    """Last `key=<int>` occurrence in `text`, or None."""
    value = None
    for line in text.splitlines():
        for token in line.split():
            if token.startswith(key + "="):
                try:
                    value = int(token.split("=", 1)[1])
                except ValueError:
                    pass
    return value


class Round:
    def __init__(self, args, wal_dir, ack_log):
        self.args = args
        self.wal_dir = wal_dir
        self.ack_log = ack_log

    def ingest_cmd(self):
        cmd = [
            self.args.binary,
            "--requests=0",
            "--rates=50",
            "--ingest=%d" % INGEST,
            "--ingest-keys=%d" % KEYS,
            "--wal-dir=%s" % self.wal_dir,
            "--ack-log=%s" % self.ack_log,
            "--wal-fsync=%s" % self.args.fsync,
            # Publishing an epoch snapshots the whole stream (O(mentions));
            # per-ingest publication would make a 500k-mention round
            # quadratic. Batching keeps the ingest loop linear while still
            # exercising epoch persistence across the kill.
            "--epoch-batch-ms=50",
        ]
        if self.args.wal_fault_prob > 0:
            cmd += ["--wal-fault-prob=%g" % self.args.wal_fault_prob]
        return cmd

    def verify_cmd(self):
        return [
            self.args.binary,
            "--requests=0",
            "--rates=50",
            "--verify=1",
            "--ingest-keys=%d" % KEYS,
            "--wal-dir=%s" % self.wal_dir,
            "--wal-fsync=%s" % self.args.fsync,
        ]

    def last_acked(self):
        try:
            with open(self.ack_log) as f:
                lines = f.read().splitlines()
        except FileNotFoundError:
            return 0
        # The final line can be torn by the kill; walk back to the last
        # complete integer.
        for line in reversed(lines):
            try:
                return int(line)
            except ValueError:
                continue
        return 0

    def run_ingest_and_kill(self, delay, sig):
        proc = subprocess.Popen(
            self.ingest_cmd(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        time.sleep(delay)
        proc.send_signal(sig)
        try:
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
            raise AssertionError("ingest run hung after signal %d" % sig)
        return out, proc.returncode

    def run_verify(self):
        proc = subprocess.run(
            self.verify_cmd(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=120,
        )
        return proc.stdout, proc.returncode


def wal_path(wal_dir):
    return os.path.join(wal_dir, "stream.wal")


def fresh_dir(base, name):
    d = os.path.join(base, name)
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    return d


def kill9_round(args, rng, base, index):
    wal_dir = fresh_dir(base, "kill9-%d" % index)
    r = Round(args, wal_dir, os.path.join(wal_dir, "ack.log"))
    delay = rng.uniform(0.1, 1.2)
    out, rc = r.run_ingest_and_kill(delay, signal.SIGKILL)
    if rc >= 0:
        raise AssertionError(
            "kill9 round %d: expected death by signal, exit=%d\n%s"
            % (index, rc, out)
        )
    acked = r.last_acked()
    vout, vrc = r.run_verify()
    if vrc != 0:
        raise AssertionError(
            "kill9 round %d: recovery failed (exit %d)\n%s" % (index, vrc, vout)
        )
    recovered = parse_marker(vout, "verify.recovered")
    match = parse_marker(vout, "verify.match")
    counter = parse_marker(vout, "wal.recovered_mentions")
    if recovered is None or match != 1:
        raise AssertionError(
            "kill9 round %d: missing verify markers\n%s" % (index, vout)
        )
    if recovered < acked:
        raise AssertionError(
            "kill9 round %d: ACKNOWLEDGED LOSS — acked %d, recovered %d\n%s"
            % (index, acked, recovered, vout)
        )
    if counter != recovered:
        raise AssertionError(
            "kill9 round %d: wal.recovered_mentions=%s != recovered=%d\n%s"
            % (index, counter, recovered, vout)
        )
    # Recovery must re-establish the epoch counter: a recovered non-empty
    # stream republishes at an epoch strictly above zero (every WAL frame
    # carries the epoch id its mention published under).
    epoch = parse_marker(vout, "online.epoch")
    if recovered > 0 and not epoch:
        raise AssertionError(
            "kill9 round %d: recovered %d mentions but online.epoch=%s — "
            "epoch counter lost across the crash\n%s"
            % (index, recovered, epoch, vout)
        )
    print(
        "round kill9-%d: killed after %.2fs, acked=%d recovered=%d "
        "epoch=%s OK" % (index, delay, acked, recovered, epoch)
    )


def clean_round(args, rng, base):
    wal_dir = fresh_dir(base, "clean")
    r = Round(args, wal_dir, os.path.join(wal_dir, "ack.log"))
    out, rc = r.run_ingest_and_kill(rng.uniform(0.2, 0.8), signal.SIGTERM)
    if rc != 0 or "clean_shutdown=1" not in out:
        raise AssertionError(
            "clean round: SIGTERM should shut down cleanly (exit %d)\n%s"
            % (rc, out)
        )
    acked = r.last_acked()
    # The WAL is the stream's only durable record: a clean shutdown syncs
    # it and writes no other file.
    stray = sorted(p.name for p in pathlib.Path(wal_dir).glob("*.ckpt"))
    if stray:
        raise AssertionError(
            "clean round: checkpoint files after clean shutdown: %s" % stray
        )
    vout, vrc = r.run_verify()
    recovered = parse_marker(vout, "verify.recovered")
    match = parse_marker(vout, "verify.match")
    if vrc != 0 or recovered is None or match != 1 or recovered < acked:
        raise AssertionError(
            "clean round: restart after clean shutdown failed "
            "(exit %d, acked %d)\n%s" % (vrc, acked, vout)
        )
    print(
        "round clean: clean_shutdown=1, wal only, acked=%d recovered=%d OK"
        % (acked, recovered)
    )


def torn_tail_round(args, rng, base):
    wal_dir = fresh_dir(base, "torn")
    r = Round(args, wal_dir, os.path.join(wal_dir, "ack.log"))
    out, rc = r.run_ingest_and_kill(rng.uniform(0.2, 0.8), signal.SIGKILL)
    if rc >= 0:
        raise AssertionError("torn round: expected death by signal\n%s" % out)
    # Simulate a torn sector write: garbage appended past the last frame.
    with open(wal_path(wal_dir), "ab") as f:
        f.write(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 15))))
    vout, vrc = r.run_verify()
    truncated = parse_marker(vout, "wal.truncated_tail_bytes")
    match = parse_marker(vout, "verify.match")
    if vrc != 0 or match != 1 or not truncated:
        raise AssertionError(
            "torn round: expected sound truncation + verify "
            "(exit %d, truncated=%s)\n%s" % (vrc, truncated, vout)
        )
    print("round torn: %d tail bytes truncated, verify OK" % truncated)


def corruption_round(args, rng, base):
    wal_dir = fresh_dir(base, "corrupt")
    r = Round(args, wal_dir, os.path.join(wal_dir, "ack.log"))
    out, rc = r.run_ingest_and_kill(rng.uniform(0.3, 0.9), signal.SIGKILL)
    if rc >= 0:
        raise AssertionError(
            "corrupt round: expected death by signal\n%s" % out
        )
    path = wal_path(wal_dir)
    size = os.path.getsize(path)
    if size < 200:
        # Too few frames survived to corrupt mid-file; count the round as
        # vacuous rather than flaky — the seeded RNG makes this stable.
        print("round corrupt: WAL too short (%d bytes), skipped" % size)
        return
    # Flip one byte well inside the frame stream, far from the tail, so
    # the damage cannot be mistaken for a torn tail.
    offset = rng.randrange(32, size // 2)
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0xFF]))
    vout, vrc = r.run_verify()
    if vrc == 0:
        raise AssertionError(
            "corrupt round: mid-file corruption at offset %d was silently "
            "accepted\n%s" % (offset, vout)
        )
    if "InvalidArgument" not in vout:
        raise AssertionError(
            "corrupt round: expected a typed InvalidArgument, got exit %d\n%s"
            % (vrc, vout)
        )
    print(
        "round corrupt: byte flip at %d rejected with InvalidArgument OK"
        % offset
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=20090324)
    parser.add_argument("--workdir", default="/tmp/topkdup-chaos")
    parser.add_argument(
        "--fsync",
        default="never",
        choices=["never", "interval", "every_n", "always"],
        help="WAL fsync policy under test. kill -9 must lose nothing under "
        "ANY policy (the data reached the page cache before the ack); "
        "'never' is the default because it is the fastest and the most "
        "adversarial for the recovery path.",
    )
    parser.add_argument(
        "--wal-fault-prob",
        type=float,
        default=0.002,
        help="Probability for the wal.append/wal.fsync injected faults "
        "during ingest rounds, so kills land on a workload that is also "
        "exercising the rollback/retry path.",
    )
    args = parser.parse_args()

    if not os.path.isfile(args.binary):
        print("no such binary: %s" % args.binary, file=sys.stderr)
        return 1
    rng = random.Random(args.seed)
    base = args.workdir
    pathlib.Path(base).mkdir(parents=True, exist_ok=True)

    failures = []
    rounds = [("clean", lambda: clean_round(args, rng, base)),
              ("torn", lambda: torn_tail_round(args, rng, base)),
              ("corrupt", lambda: corruption_round(args, rng, base))]
    rounds = [
        ("kill9-%d" % i, (lambda i=i: kill9_round(args, rng, base, i)))
        for i in range(args.rounds)
    ] + rounds
    for name, fn in rounds:
        try:
            fn()
        except AssertionError as e:
            failures.append((name, str(e)))
            print("FAIL %s: %s" % (name, e), file=sys.stderr)

    if failures:
        print(
            "\nchaos harness: %d/%d rounds failed"
            % (len(failures), len(rounds)),
            file=sys.stderr,
        )
        return 1
    print("\nchaos harness: all %d rounds green" % len(rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
