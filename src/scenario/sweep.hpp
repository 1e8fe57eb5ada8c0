// Sweep executor: fans a grid of scenario specs across the thread pool and
// streams one JSONL line per completed run — its params, seed, summary and
// per-round series (the data behind every committed figure grid under
// examples/figures/).
//
// Grid JSON:
//   {
//     "base": "churn" | { ...inline scenario spec... },
//     "axes": { "client.alpha": [1, 10, 100], "rounds": [20, 40] },
//     "repeats": 1,
//     "out": "results/sweep.jsonl",
//     "threads": 0,           // 0 = hardware concurrency
//     "trace_dir": "traces",  // optional: per-run Perfetto trace files
//     "metrics_out": "sweep.prom"  // optional: aggregate Prometheus export
//   }
//
// Axis keys are dotted paths into the scenario-spec JSON; the grid is the
// cartesian product of all axes times `repeats`. Every run gets a seed
// derived deterministically from the base spec's seed and its run index
// (recorded in the output), and runs with parallel_prepare disabled — the
// sweep parallelizes across runs, not inside them.
//
// Each run owns an obs::Context (see src/obs/context.hpp), so every JSONL
// line carries that run's own summary.obs even at threads > 1, and
// trace_dir gives each run its own trace file. After the last run, a footer
// line {"sweep": {"runs": N, "obs": {...}, "axes": {...}}} records the
// merged aggregate (counters summed, histograms merged bucket-wise) plus
// per-axis-value totals.
#pragma once

#include "scenario/runner.hpp"

namespace specdag::scenario {

struct SweepAxis {
  std::string path;          // dotted path into the spec JSON
  std::vector<Json> values;  // one grid dimension
};

struct SweepSpec {
  Json base;  // scenario-spec JSON (already resolved if it named a built-in)
  std::vector<SweepAxis> axes;
  std::size_t repeats = 1;
  std::string out_path = "results/sweep.jsonl";
  std::size_t threads = 0;  // 0 = hardware concurrency
  // Per-run derived seeds (default) give decorrelated repeats; disable to
  // run every grid point with the base seed — an ablation where the axis is
  // the only difference between runs.
  bool derive_seeds = true;
  // Non-empty: every run writes a Perfetto trace to
  // <trace_dir>/run-<index>.trace.json (per-run obs contexts make this safe
  // at any thread count).
  std::string trace_dir;
  // Non-empty: the sweep-level obs aggregate (all runs merged) is exported
  // as Prometheus text exposition to this path.
  std::string metrics_out;
  // Reuse finished runs recorded in <out_path>.partial by an interrupted
  // invocation of the same grid and execute only the rest (the `--resume`
  // CLI flag). The manifest is validated against this grid — a changed
  // base/axes/seed derivation is rejected rather than silently mixed.
  bool resume = false;

  // Total number of runs in the grid.
  std::size_t num_runs() const;
};

// Parses a grid document, resolves a string "base" through the registry,
// and validates the scenario spec of every grid point.
SweepSpec sweep_from_json(const Json& json);

struct SweepRun {
  std::size_t run_index = 0;
  std::uint64_t seed = 0;
  Json params;  // the axis values of this grid point
  ScenarioResult result;
};

// Expands the grid without running it (what `specdag sweep --dry-run`
// prints): per run the resolved params and derived seed.
std::vector<std::pair<Json, std::uint64_t>> expand_grid(const SweepSpec& sweep);

// Runs the whole grid. Every point is validated before the first file is
// touched, so a rejected grid leaves nothing behind. Completed runs stream
// to `<out_path>.partial` (one JSON object per line, flushed per run — the
// crash-safe manifest `resume` reads); on success the final `out_path` is
// written in run-index order and the manifest is removed. The returned
// vector is ordered by run index. `progress`, when non-null, receives one
// line per completed run. After a resume, reused runs keep their recorded
// JSONL lines verbatim; the footer's merged sweep.obs aggregate covers only
// the runs executed by this invocation (histogram state is not
// reconstructible from JSON).
std::vector<SweepRun> run_sweep(const SweepSpec& sweep, std::ostream* progress = nullptr);

}  // namespace specdag::scenario
