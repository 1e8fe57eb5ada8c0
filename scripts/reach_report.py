#!/usr/bin/env python3
"""List the src/ functions that no scenario, grid axis or CLI path executes.

Needs a build of `specdag` compiled with `--coverage` (gcc), for example:

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=None \
        -DCMAKE_CXX_FLAGS="--coverage -O1" \
        -DSPECDAG_BUILD_TESTS=OFF -DSPECDAG_BUILD_EXAMPLES=OFF
    cmake --build build-cov -j --target specdag_cli
    python3 scripts/reach_report.py --build-dir build-cov --out reach.txt

The script resets the build's .gcda counters and then runs, one process at a
time:

* every registry scenario for `UNITS` rounds (or async time units), with
  its churn, partition and attack windows moved to rounds 1-2;
* every grid axis value that changes the code path: each algorithm, the
  cifar and poets datasets, dynamic normalization, the random and weighted
  selectors, the publish gate off, `freeze_prefix_params`, visibility delay,
  community metrics, consensus and per-client accuracies; gossip under a
  label flip, and the async simulator under churn, a partition and a label
  flip, checkpointed and resumed;
* every CLI path: checkpoint, resume, replay, export, `sweep` with
  `--dry-run` and `--resume`, `--trace`, `--metrics-out`, `--csv`/`--jsonl`,
  `--sync-encode`, `--no-batch-exec`, `--delta off`, `--attack`,
  `--obs off` and `--threads 4`.

It then reads the counters with `gcov --json-format` and prints each src/
function whose execution count is zero in every translation unit, demangled,
with the number of lines gcov instruments in it. A function that is not
listed ran at least once. It is a report, not a gate: it exits 0 whatever
the list holds, and non-zero only when a run itself fails.
"""

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Rounds (or async time units) per run. The event windows below sit at rounds
# 1-2 and the replay runs the last round from the oldest kept checkpoint, so
# both need three.
UNITS = 3


def shrink(spec):
    """`spec` cut to `UNITS` units, with every event window inside them."""
    spec = copy.deepcopy(spec)
    spec["rounds"] = UNITS
    spec["threads"] = 2
    dynamics = spec.get("dynamics", {})
    if "churn" in dynamics:
        dynamics["churn"].update(leave_round=1, rejoin_round=2)
    if "partition" in dynamics:
        dynamics["partition"].update(start_round=1, heal_round=2)
    for attack in ("random_weights", "label_flip"):
        if attack in spec.get("attacks", {}):
            spec["attacks"][attack].update(start_round=1, stop_round=2)
    if spec.get("visibility_delay_rounds", 0) > 0:
        spec["visibility_delay_rounds"] = 1
    if spec.get("community_metrics_every", 0) > 0:
        spec["community_metrics_every"] = 1
    if spec.get("num_clients", 0) > 200:
        spec["num_clients"] = 200
    return spec


def with_path(spec, path, value):
    spec = copy.deepcopy(spec)
    node = spec
    keys = path.split(".")
    for key in keys[:-1]:
        node = node.setdefault(key, {})
    node[keys[-1]] = value
    return spec


class Runner:
    def __init__(self, binary, workdir):
        self.binary = binary
        self.workdir = Path(workdir)
        self.count = 0

    def specdag(self, *args):
        cmd = [str(self.binary), "--log-level", "error", *map(str, args)]
        proc = subprocess.run(cmd, cwd=self.workdir, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
        self.count += 1
        if proc.returncode != 0:
            sys.exit("reach_report: failed ({}): {}\n{}".format(
                proc.returncode, " ".join(cmd), proc.stderr[-2000:]))
        return proc.stdout

    def spec_file(self, spec, name):
        path = self.workdir / (name + ".json")
        path.write_text(json.dumps(spec, indent=1))
        return path

    def run_spec(self, spec, name, *flags):
        return self.specdag("run", self.spec_file(spec, name), "--quiet", *flags)


def run_everything(runner):
    names = [line.split()[0] for line in runner.specdag("list").splitlines()
             if line.startswith("  ")]
    specs = {name: json.loads(runner.specdag("show", name)) for name in names}
    runner.specdag("help")

    # Every registry scenario, windows inside the run.
    for name in names:
        runner.run_spec(shrink(specs[name]), name)

    # Every grid axis value that changes the code path.
    base = shrink(specs["fmnist-clustered"])
    variants = {
        "algo-fedavg": with_path(base, "algorithm", "fedavg"),
        "algo-fedprox": with_path(base, "algorithm", "fedprox"),
        "algo-gossip": with_path(base, "algorithm", "gossip"),
        "norm-dynamic": with_path(base, "client.normalization", "dynamic"),
        "sel-random": with_path(base, "client.selector", "random"),
        "sel-weighted": with_path(base, "client.selector", "weighted"),
        "gate-off": with_path(base, "client.publish_gate", False),
        "freeze-prefix": with_path(base, "client.train.freeze_prefix_params", 2),
        "delay": with_path(base, "visibility_delay_rounds", 1),
        "walk-depth": with_path(base, "client.walk_start", "depth"),
        "no-eval-cache": with_path(base, "client.persistent_accuracy_cache", False),
        "reference-walks": with_path(base, "client.reference_walks", 3),
        "metrics": with_path(with_path(with_path(
            base, "community_metrics_every", 1), "evaluate_consensus", True),
            "record_client_accuracies", True),
    }
    fig9 = shrink(specs["fig9-fedavg-vs-dag"])
    for dataset in ("cifar", "poets"):
        for algorithm in ("dag", "fedavg"):
            variants["{}-{}".format(dataset, algorithm)] = with_path(
                with_path(fig9, "dataset", dataset), "algorithm", algorithm)
    poisoned = shrink(specs["fig12-14-poisoning"])
    variants["flip-fedavg"] = with_path(poisoned, "algorithm", "fedavg")
    variants["flip-gossip"] = with_path(poisoned, "algorithm", "gossip")
    variants["gossip-consensus"] = with_path(variants["algo-gossip"], "evaluate_consensus", True)
    variants["masked-weighted"] = with_path(shrink(specs["partition"]),
                                            "client.selector", "weighted")
    for name, spec in variants.items():
        runner.run_spec(spec, name)

    # The async simulator under churn, a partition and a label flip, with a
    # checkpoint to resume from.
    windows = {"churn": {"fraction": 0.3, "leave_round": 1, "rejoin_round": 2},
               "partition": {"num_groups": 2, "start_round": 1, "heal_round": 2}}
    flip = {"fraction": 0.2, "class_a": 3, "class_b": 8, "start_round": 1, "stop_round": 2}
    async_spec = with_path(with_path(shrink(specs["stragglers"]),
                                     "dynamics", dict(specs["stragglers"]["dynamics"],
                                                      **windows)),
                           "attacks", {"metrics_every": 1, "label_flip": flip})
    runner.run_spec(async_spec, "async-dynamics", "--checkpoint-dir", "async-ckpt",
                    "--checkpoint-every", 1)
    runner.specdag("run", "--resume", runner.workdir / "async-ckpt" / "checkpoint-000001.ckpt",
                   "--quiet")

    # Every CLI path. A \u escape in the spec reaches the parser's escapes.
    spec = runner.spec_file(with_path(base, "description", "caf\u00e9"), "cli")
    runner.specdag("run", spec, "--quiet", "--series", "--csv", "out.csv",
                   "--jsonl", "out.jsonl", "--trace", "trace.json",
                   "--metrics-out", "metrics.prom", "--threads", "4")
    runner.specdag("run", spec, "--quiet", "--sync-encode", "--no-batch-exec",
                   "--delta", "off", "--obs", "off", "--threads", "1")
    runner.specdag("run", "fmnist-clustered", "--quiet", "--rounds", UNITS,
                   "--clients", 12, "--seed", 7, "--attack", "random_weights=0.5")
    runner.specdag("run", "fmnist-clustered", "--quiet", "--rounds", UNITS,
                   "--clients", 12, "--attack", "label_flip=0.2",
                   "--algorithm", "fedavg")
    runner.specdag("run", spec, "--quiet", "--checkpoint-dir", "ckpt",
                   "--checkpoint-every", 1, "--checkpoint-keep", 2,
                   "--jsonl", "full.jsonl", "--trace", "ckpt-trace.json")
    checkpoint = sorted((runner.workdir / "ckpt").glob("checkpoint-*.ckpt"))[0]
    runner.specdag("run", "--resume", checkpoint, "--quiet", "--series",
                   "--jsonl", "resumed.jsonl", "--csv", "resumed.csv",
                   "--threads", 2)
    runner.specdag("replay", checkpoint, "--rounds", "{}..{}".format(UNITS, UNITS),
                   "--jsonl", "replay.jsonl", "--threads", 2, "--quiet")
    runner.specdag("export", spec, "--dot", "dag.dot", "--jsonl", "dag.jsonl",
                   "--quiet")
    grid = {"base": base, "out": "sweep.jsonl", "threads": 2,
            "trace_dir": "sweep-traces", "metrics_out": "sweep.prom",
            "axes": {"client.alpha": [1, 10]}}
    grid_path = runner.workdir / "grid.json"
    grid_path.write_text(json.dumps(grid))
    runner.specdag("sweep", grid_path, "--dry-run")
    runner.specdag("sweep", grid_path)
    # A resumed sweep skips the runs its manifest holds and runs the rest.
    lines = (runner.workdir / "sweep.jsonl").read_text().splitlines()
    (runner.workdir / "sweep.jsonl.partial").write_text(lines[0] + "\n")
    (runner.workdir / "sweep.jsonl").unlink()
    runner.specdag("sweep", grid_path, "--resume", "--threads", 1)


def unreached(build_dir, source_dir):
    """(file, line, name, lines) of every src/ function gcov saw at count 0."""
    notes = sorted(p for p in build_dir.rglob("*.gcno") if "CompilerId" not in str(p))
    functions = {}  # mangled name -> [file, line, demangled, lines, count]
    src = str(source_dir / "src") + os.sep
    with tempfile.TemporaryDirectory() as gcov_dir:
        proc = subprocess.run(["gcov", "--json-format", "--stdout", *map(str, notes)],
                              cwd=gcov_dir, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True)
    for record in proc.stdout.splitlines():
        for entry in json.loads(record)["files"]:
            path = os.path.realpath(entry["file"])
            if not path.startswith(src):
                continue
            lines = {}
            for line in entry["lines"]:
                if "function_name" in line:
                    name = line["function_name"]
                    lines[name] = lines.get(name, 0) + 1
            for fn in entry["functions"]:
                info = functions.setdefault(
                    fn["name"], [os.path.relpath(path, source_dir), fn["start_line"],
                                 fn["demangled_name"], 0, 0])
                info[3] = max(info[3], lines.get(fn["name"], 0))
                info[4] += fn["execution_count"]
    return sorted((f, line, name, n) for f, line, name, n, count in functions.values()
                  if count == 0)


def main():
    repo = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--build-dir", required=True, type=Path,
                        help="a --coverage build holding the specdag binary")
    parser.add_argument("--source-dir", type=Path, default=repo,
                        help="the source tree the build was made from")
    parser.add_argument("--out", type=Path, help="also write the list here")
    args = parser.parse_args()

    build_dir = args.build_dir.resolve()
    binary = build_dir / "specdag"
    if not binary.exists():
        sys.exit("reach_report: no specdag binary in {}".format(build_dir))
    for counters in build_dir.rglob("*.gcda"):
        counters.unlink()

    with tempfile.TemporaryDirectory(prefix="reach-") as workdir:
        runner = Runner(binary, workdir)
        run_everything(runner)

    rows = unreached(build_dir, args.source_dir.resolve())
    report = ["# src/ functions that no run executed: {} functions, {} lines, "
              "after {} specdag runs".format(len(rows), sum(r[3] for r in rows),
                                             runner.count)]
    report += ["{}:{}\t{} lines\t{}".format(f, line, n, name) for f, line, name, n in rows]
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if args.out:
        args.out.write_text(text)


if __name__ == "__main__":
    main()
