#!/usr/bin/env python3
"""Checks that the benchmark harness computes the same results as the CLI.

For every workload and each seed below, the harness's output fingerprint must
equal the one derived from `specdag run` of the same scenario, horizon, seed
and thread count; for the default seed both must also equal the committed
perfbench/reference.json. Run from the repository root:

    python3 perfbench/test_fingerprint.py

Exits 0 when every comparison holds.
"""
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SEEDS = (run.DEFAULT_SEED, 7)


def main():
    if not run.build():
        return 1
    failures = 0
    for seed in SEEDS:
        for name, workload in run.WORKLOADS.items():
            cli = run.cli_fingerprint_for(workload, seed)
            out, diag = run.run_harness(workload, seed, run.THREADS)
            checks = {"harness == specdag run": run.matches(out, cli)}
            if seed == run.DEFAULT_SEED:
                checks["specdag run == reference.json"] = run.matches(
                    {"fingerprint": cli} if cli else None, run.reference(name, workload, seed))
            for label, ok in checks.items():
                print(f"{'ok  ' if ok else 'FAIL'} {name} seed {seed}: {label}")
                if not ok:
                    failures += 1
                    print(f"     harness {out and out['fingerprint']} {diag.get('error', '')}")
                    print(f"     cli    {cli}")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
