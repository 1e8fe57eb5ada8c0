#!/usr/bin/env python3
"""Crash-injection smoke test for checkpoint/resume.

SIGKILLs a checkpointed scale-2k run mid-flight at a random round, resumes it
from the last surviving checkpoint, and asserts the resumed run reproduces the
uninterrupted run exactly: the JSONL series byte-identical, and the
final accuracy / DAG size / store delta counts equal — at every requested
thread count. Also asserts the snapshot.writes / snapshot.bytes obs counters
are present in summary.obs, and that checkpointing every round costs at most
5% wall time (plus a small constant cushion) over the same run without
checkpoints — both sides timed as the median of several repetitions, because
single-shot wall time on a shared machine is too noisy to gate a 5% bound.

Usage:
  python3 scripts/crash_resume_smoke.py --binary build/specdag \
      [--clients 200] [--rounds 6] [--threads 1,4] [--seed 7]
"""

import argparse
import filecmp
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

def run_cmd(cmd, **kwargs):
    result = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    if result.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)}\nexit {result.returncode}\n{result.stderr[-2000:]}")
    return result


def base_cmd(args, threads):
    return [
        args.binary, "run", args.scenario,
        "--clients", str(args.clients),
        "--rounds", str(args.rounds),
        "--seed", str(args.seed),
        "--threads", str(threads),
        "--quiet",
    ]


def summary_of(stdout):
    return json.loads(stdout)["summary"]


def wait_for_checkpoint(ckpt_dir, proc, timeout=600.0):
    """Blocks until the first checkpoint file lands (or the process exits)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.isdir(ckpt_dir) and any(
                name.endswith(".ckpt") for name in os.listdir(ckpt_dir)):
            return True
        if proc.poll() is not None:
            return False
        time.sleep(0.05)
    return False


def latest_checkpoint(ckpt_dir, rounds):
    """The newest surviving checkpoint with work left to do (a resume from
    the final-round checkpoint would write no further checkpoints, which
    would defeat the snapshot.writes assertion below)."""
    names = sorted(n for n in os.listdir(ckpt_dir) if n.endswith(".ckpt"))
    mid = [n for n in names if int(n[len("checkpoint-"):-len(".ckpt")]) < rounds]
    if not mid:
        sys.exit(f"FAIL: no mid-run checkpoint survived in {ckpt_dir} ({names})")
    return os.path.join(ckpt_dir, mid[-1])


def check_threads(args, work, threads, reference_jsonl, reference_summary):
    print(f"--- threads {threads} ---")
    ckpt_dir = os.path.join(work, f"ckpt-t{threads}")
    crash_jsonl = os.path.join(work, f"crash-t{threads}.jsonl")
    resumed_jsonl = os.path.join(work, f"resumed-t{threads}.jsonl")

    # Crash run: SIGKILL after the first checkpoint plus a random delay.
    cmd = base_cmd(args, threads) + [
        "--checkpoint-dir", ckpt_dir, "--checkpoint-every", "1",
        "--jsonl", crash_jsonl,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if not wait_for_checkpoint(ckpt_dir, proc):
        sys.exit("FAIL: run exited before writing any checkpoint")
    time.sleep(random.uniform(0.0, args.kill_window))
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        print("killed mid-flight")
    else:
        print("run finished before the kill fired; resuming from a mid-run checkpoint anyway")

    # Resume from the last surviving mid-run checkpoint and compare.
    resume = run_cmd([
        args.binary, "run", "--resume", latest_checkpoint(ckpt_dir, args.rounds),
        "--threads", str(threads), "--jsonl", resumed_jsonl, "--quiet",
    ])
    if not filecmp.cmp(resumed_jsonl, reference_jsonl, shallow=False):
        sys.exit(f"FAIL: resumed JSONL differs from the uninterrupted run "
                 f"({resumed_jsonl} vs {reference_jsonl})")
    summary = summary_of(resume.stdout)
    for key in ("final_accuracy", "dag_size"):
        if summary[key] != reference_summary[key]:
            sys.exit(f"FAIL: resumed {key} {summary[key]} != {reference_summary[key]}")
    for key in ("anchors", "deltas", "delta_ratio"):
        if summary["store"][key] != reference_summary["store"][key]:
            sys.exit(f"FAIL: resumed store.{key} {summary['store'][key]} "
                     f"!= {reference_summary['store'][key]}")
    counters = summary.get("obs", {}).get("counters", {})
    for counter in ("snapshot.writes", "snapshot.bytes"):
        if counters.get(counter, 0) <= 0:
            sys.exit(f"FAIL: {counter} missing from the resumed run's summary.obs")
    print(f"resume OK: JSONL bit-identical, final_accuracy {summary['final_accuracy']}, "
          f"snapshot.writes {counters['snapshot.writes']}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary", default="build/specdag")
    parser.add_argument("--scenario", default="scale-2k")
    parser.add_argument("--clients", type=int, default=200)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threads", default="1,4")
    parser.add_argument("--kill-window", type=float, default=2.0,
                        help="max random delay (s) after the first checkpoint before SIGKILL")
    parser.add_argument("--overhead-factor", type=float, default=1.05)
    parser.add_argument("--overhead-cushion", type=float, default=0.5,
                        help="constant seconds added to the overhead bound (scheduler noise)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timing repetitions per variant (the median is compared)")
    args = parser.parse_args()
    random.seed(args.seed)

    work = tempfile.mkdtemp(prefix="specdag-crash-smoke-")
    try:
        # Baseline: no checkpoints, for the overhead bound. Median of several
        # reps — single-shot wall time on a shared CI box is far too noisy to
        # gate a 5% bound on (the first run after a build also pays one-time
        # cold-cache costs that have nothing to do with checkpointing).
        plain_times = []
        for _ in range(args.reps):
            t0 = time.monotonic()
            run_cmd(base_cmd(args, 0))
            plain_times.append(time.monotonic() - t0)
        plain_seconds = statistics.median(plain_times)

        # Reference: the uninterrupted checkpointed run every thread-count
        # variant is compared against (results are thread-count invariant).
        ref_jsonl = os.path.join(work, "reference.jsonl")
        ref_ckpts = os.path.join(work, "ckpt-reference")
        checkpointed_times = []
        reference = None
        for _ in range(args.reps):
            shutil.rmtree(ref_ckpts, ignore_errors=True)
            t0 = time.monotonic()
            reference = run_cmd(base_cmd(args, 0) + [
                "--checkpoint-dir", ref_ckpts, "--checkpoint-every", "1",
                "--jsonl", ref_jsonl,
            ])
            checkpointed_times.append(time.monotonic() - t0)
        checkpointed_seconds = statistics.median(checkpointed_times)
        reference_summary = summary_of(reference.stdout)
        counters = reference_summary.get("obs", {}).get("counters", {})
        for counter in ("snapshot.writes", "snapshot.bytes"):
            if counters.get(counter, 0) <= 0:
                sys.exit(f"FAIL: {counter} missing from summary.obs")
        if counters["snapshot.writes"] != args.rounds:
            sys.exit(f"FAIL: expected {args.rounds} checkpoint writes, "
                     f"got {counters['snapshot.writes']}")

        bound = plain_seconds * args.overhead_factor + args.overhead_cushion
        print(f"wall (median of {args.reps}): plain {plain_seconds:.2f}s "
              f"{[round(t, 2) for t in plain_times]}, "
              f"checkpointed {checkpointed_seconds:.2f}s "
              f"{[round(t, 2) for t in checkpointed_times]} (bound {bound:.2f}s)")
        if checkpointed_seconds > bound:
            sys.exit(f"FAIL: checkpointing every round costs too much "
                     f"({checkpointed_seconds:.2f}s > {bound:.2f}s)")

        for threads in (int(t) for t in args.threads.split(",")):
            check_threads(args, work, threads, ref_jsonl, reference_summary)
        print("PASS: crash/resume smoke")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
