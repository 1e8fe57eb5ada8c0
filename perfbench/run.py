#!/usr/bin/env python3
"""specdag benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload scale-2k --seed 42 --seconds 20 --trace 0

Run from the repository root. The first call configures and builds the
library, CLI, kernel microbench and harness into .bench_build/ (Release).

--trace 0  repeats the workload in fresh harness processes until --seconds
           would be exceeded (at least MIN_REPS times) and reports the
           median of each end-to-end metric over the runs that passed the
           output check.
--trace 1  runs the workload traced at 2 threads, untraced, and traced at
           1 thread, then the micro_core kernel ladder, and reports every
           per-layer metric named in BENCHMARK.json.

Every harness run's output fingerprint is compared with the reference for its
seed: perfbench/reference.json for seed 42, otherwise one `specdag run` of
the same workload (cached per seed under .bench_build/refs/). A mismatch,
crash or timeout counts as a failed run and contributes no timing.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds host facts and per-run steadiness diagnostics.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
CLI = os.path.join(BUILD, "specdag")
MICRO = os.path.join(BUILD, "micro_core")

# Registry scenario and horizon (--rounds) of each workload.
# Horizons are sized so one harness run takes a few seconds on a 4-vCPU host,
# which leaves room for several runs (and their median) in one --seconds window.
# End-to-end runs use one prepare thread: on a shared VM host every pool
# handoff that wakes an idle vCPU waits for the hypervisor, and at two threads
# that wait made scale-2k's simulate phase both slower and 3x as variable.
# Thread scaling is measured by the traced 2-thread run instead.
WORKLOADS = {
    "scale-2k": {"scenario": "scale-2k", "rounds": 3},
    "fig15-walks": {"scenario": "fig15-scalability", "rounds": 50},
    "poets-lstm": {"scenario": "poets", "rounds": 12},
}
THREADS = 1
DEFAULT_SEED = 42
MIN_REPS = 3
REP_TIMEOUT_S = 60
FINGERPRINT = ("dag_size", "final_accuracy", "pureness", "modularity", "communities", "tips",
               "delta_ratio", "sim.steps", "sim.commits")

# micro_core rows folded into the kernel ladder: tensor -> nn -> fl/tipsel
# -> store/dag. Values are real time per benchmark iteration in ns.
LADDER = {
    "BM_MatmulMultiRhs/1": "tensor.matmul_multi_rhs_ns.k1",
    "BM_MatmulMultiRhs/4": "tensor.matmul_multi_rhs_ns.k4",
    "BM_MatmulMultiRhs/16": "tensor.matmul_multi_rhs_ns.k16",
    "BM_DenseForwardBackward": "nn.dense_fwd_bwd_ns",
    "BM_LstmForwardBackward": "nn.lstm_fwd_bwd_ns",
    "BM_BatchedTrainStep/1": "nn.batched_train_step_ns.k1",
    "BM_BatchedTrainStep/16": "nn.batched_train_step_ns.k16",
    "BM_WalkStepEvaluation": "tipsel.walk_step_eval_ns",
    "BM_EncodeDelta/100000": "store.codec_encode_ns",
    "BM_DecodeDelta/100000": "store.codec_decode_ns",
    "BM_DagAppend/1000": "dag.append_bench_ns",
}
LADDER_FILTER = ("^BM_(MatmulMultiRhs|DenseForwardBackward|LstmForwardBackward|BatchedTrainStep"
                 "|WalkStepEvaluation|EncodeDelta|DecodeDelta|DagAppend)(/[0-9]+)?$")
LADDER_MIN_TIME = "0.05"
TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Accounting tolerance: a parent span's self time (and wall minus the three
# phases) may hold only the harness's own bookkeeping between calls.
SELF_TIME_TOLERANCE = (0.02, 0.005)  # share of the parent, plus seconds


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures and builds incrementally; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_harness",
              "specdag_cli", "micro_core"]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(step))
            return False
    return True


def cpu_steal_seconds():
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def source_hash():
    """Content hash of the sources the benchmark builds (the checkout is not
    necessarily a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_harness(workload, seed, threads, traced=False):
    """One fresh harness process; returns (parsed output or None, diagnostics)."""
    cmd = [HARNESS, "--scenario", workload["scenario"], "--rounds", str(workload["rounds"]),
           "--seed", str(seed), "--threads", str(threads)]
    if traced:
        cmd += ["--traced", "--scratch", os.path.join(BUILD, "tmp")]
    steal = cpu_steal_seconds()
    start = time.monotonic()
    diag = {"threads": threads, "traced": traced}
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        diag["error"] = "timeout"
        return None, diag
    finally:
        diag["process_s"] = time.monotonic() - start
        diag["steal_s"] = cpu_steal_seconds() - steal
    if proc.returncode != 0:
        diag["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        return None, diag
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    diag["calibration_s"] = out["host"]["calibration_s"]
    diag["simd"] = f'tensor={out["host"]["tensor_backend"]} codec={out["host"]["codec_backend"]}'
    diag["wall_s"] = out["phases"]["wall_s"]
    diag["voluntary_switches"] = out["host"]["voluntary_switches"]
    diag["involuntary_switches"] = out["host"]["involuntary_switches"]
    return out, diag


def cli_fingerprint(summary):
    store, perf = summary["store"], summary["perf"]
    return {"dag_size": summary["dag_size"], "final_accuracy": summary["final_accuracy"],
            "pureness": summary["pureness"], "modularity": summary["modularity"],
            "communities": summary["communities"], "tips": summary["tips"],
            "delta_ratio": store["delta_ratio"], "sim.steps": perf["prepares"],
            "sim.commits": perf["commits"]}


def cli_fingerprint_for(workload, seed):
    """Fingerprint of one `specdag run` of the workload, or None on failure."""
    cmd = [CLI, "run", workload["scenario"], "--rounds", str(workload["rounds"]), "--seed",
           str(seed), "--threads", str(THREADS), "--quiet"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"reference run timed out: {' '.join(cmd)}")
        return None
    if proc.returncode != 0:
        log(f"reference run failed: {proc.stderr.strip()[-300:]}")
        return None
    return cli_fingerprint(json.loads(proc.stdout)["summary"])


def reference(name, workload, seed):
    """Expected fingerprint for (workload, seed), or None if unobtainable."""
    if seed == DEFAULT_SEED:
        with open(os.path.join(BENCH, "reference.json")) as handle:
            return json.load(handle)[name]
    cache = os.path.join(BUILD, "refs", f"{name}-{seed}.json")
    if os.path.exists(cache):
        with open(cache) as handle:
            return json.load(handle)
    fingerprint = cli_fingerprint_for(workload, seed)
    if fingerprint is not None:
        os.makedirs(os.path.dirname(cache), exist_ok=True)
        with open(cache, "w") as handle:
            json.dump(fingerprint, handle)
    return fingerprint


def matches(out, expected):
    if out is None or expected is None:
        return False
    got = out["fingerprint"]
    return all(float(got[key]) == float(expected[key]) for key in FINGERPRINT)


def ladder():
    cmd = [MICRO, f"--benchmark_filter={LADDER_FILTER}",
           f"--benchmark_min_time={LADDER_MIN_TIME}", "--benchmark_format=json"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"micro_core failed: {proc.stderr.strip()[-300:]}")
    rows = {}
    for row in json.loads(proc.stdout)["benchmarks"]:
        if row["name"] in LADDER:
            rows[LADDER[row["name"]]] = row["real_time"] * TIME_UNIT_NS[row["time_unit"]]
    return rows


def accounting_errors(layers, wall_s):
    """Checks that each level's spans sum to the level above."""
    errors = []
    parents = {"setup.self_s": layers["data.generate_s"] + layers["core.construct_s"],
               "simulate.self_s": layers["sim.simulate_s"],
               "finalize.self_s": layers["metrics.pureness_s"] + layers["metrics.louvain_s"]
               + layers["metrics.weight_summary_s"],
               "unaccounted_s": wall_s}
    share, slack = SELF_TIME_TOLERANCE
    for name, parent in parents.items():
        if not -1e-6 <= layers[name] <= share * parent + slack:
            errors.append(f"{name}={layers[name]:.6f}s against {parent:.6f}s")
    return errors


def measure_end_to_end(name, workload, seed, seconds, expected, diagnostics):
    runs, attempted, failed, durations = [], 0, 0, []
    deadline = time.monotonic() + seconds
    while True:
        out, diag = run_harness(workload, seed, THREADS)
        attempted += 1
        durations.append(diag["process_s"])
        diagnostics.append(diag)
        if matches(out, expected):
            runs.append(out["phases"])
        else:
            failed += 1
            diag.setdefault("error", "fingerprint mismatch")
            log(f"{name} seed {seed}: failed run ({diag['error']})")
        if attempted >= MIN_REPS and time.monotonic() + statistics.mean(durations) > deadline:
            break
    metrics = {}
    if runs:
        for metric in ("wall_s", "setup_s", "steps_per_s", "peak_rss_mb"):
            metrics[metric] = statistics.median(run[metric] for run in runs)
    return metrics, attempted, failed


def measure_layers(name, workload, seed, expected, diagnostics):
    # The 2-thread run comes first, so it also warms the page cache.
    plan = [("two", 2, True), ("untraced", THREADS, False), ("traced", THREADS, True)]
    outs, attempted, failed = {}, 0, 0
    for label, threads, traced in plan:
        out, diag = run_harness(workload, seed, threads, traced)
        attempted += 1
        diagnostics.append(diag)
        if matches(out, expected):
            outs[label] = out
        else:
            failed += 1
            log(f"{name} seed {seed}: failed {label} run ({diag.get('error', 'mismatch')})")
    if failed:
        return {}, attempted, failed
    layers = dict(outs["traced"]["layers"])
    # The prepare pool exists only at two or more threads, so the pool layer
    # is read from the 2-thread run.
    two = outs["two"]["layers"]
    layers.update({key: value for key, value in two.items() if key.startswith("util.")})
    layers["sim.speedup_2t"] = layers["sim.simulate_s"] / two["sim.simulate_s"]
    layers["obs.trace_overhead"] = (outs["traced"]["phases"]["wall_s"]
                                    / outs["untraced"]["phases"]["wall_s"] - 1.0)
    for label in ("traced", "two"):
        errors = accounting_errors(outs[label]["layers"], outs[label]["phases"]["wall_s"])
        if errors:
            failed += 1
            log(f"{name}: {label} run accounting does not add up: " + "; ".join(errors))
    layers.update(ladder())
    return layers, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not build():
        return 1
    workload = WORKLOADS[args.workload]
    expected = reference(args.workload, workload, args.seed)
    if expected is None:
        return 1

    diagnostics = []
    if args.trace:
        values, attempted, failed = measure_layers(args.workload, workload, args.seed, expected,
                                                   diagnostics)
    else:
        values, attempted, failed = measure_end_to_end(args.workload, workload, args.seed,
                                                       args.seconds, expected, diagnostics)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and failed == 0:
        log("metrics missing from the run: " + ", ".join(missing))
        return 1

    host = {"nproc": len(os.sched_getaffinity(0)), "build_type": "Release",
            "commit": git_commit(), "source_hash": source_hash(),
            "workload": args.workload, "seed": args.seed, "runs": diagnostics}
    print(json.dumps({"host": host}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    print(json.dumps({"correct": failed == 0 and not missing, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
