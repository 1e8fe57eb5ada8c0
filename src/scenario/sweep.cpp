#include "scenario/sweep.hpp"

#include <filesystem>
#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "scenario/registry.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace specdag::scenario {
namespace {

// The scenario spec of one grid point: the base with the point's axis values
// applied, its seed, one simulator thread, and per-run trace and checkpoint
// paths. Parsing it validates the point.
ScenarioSpec point_spec(const SweepSpec& sweep, std::size_t run_index, const Json& params,
                        std::uint64_t seed) {
  Json spec_json = sweep.base;
  for (const auto& [path, value] : params.as_object()) spec_json.set_path(path, value);
  spec_json.set("seed", seed);
  // One simulator thread per run; the sweep already saturates the pool.
  spec_json.set("parallel_prepare", false);
  if (!sweep.trace_dir.empty()) {
    const std::filesystem::path trace_path =
        std::filesystem::path(sweep.trace_dir) /
        ("run-" + std::to_string(run_index) + ".trace.json");
    spec_json.set_path("obs.trace", Json(trace_path.string()));
  }
  // When the base spec checkpoints, every run gets its own checkpoint
  // directory — per-run checkpoints make an interrupted run inside a sweep
  // resumable without colliding with its siblings.
  if (const Json* checkpoint = spec_json.find("checkpoint")) {
    const std::string dir = checkpoint->string_or("dir", "");
    if (!dir.empty()) {
      const std::filesystem::path run_dir =
          std::filesystem::path(dir) / ("run-" + std::to_string(run_index));
      spec_json.set_path("checkpoint.dir", Json(run_dir.string()));
    }
  }
  return spec_from_json(spec_json);
}

}  // namespace

std::size_t SweepSpec::num_runs() const {
  std::size_t runs = repeats;
  for (const SweepAxis& axis : axes) runs *= axis.values.size();
  return runs;
}

SweepSpec sweep_from_json(const Json& json) {
  for (const auto& [key, value] : json.as_object()) {
    if (key != "base" && key != "axes" && key != "repeats" && key != "out" &&
        key != "threads" && key != "derive_seeds" && key != "trace_dir" &&
        key != "metrics_out") {
      throw JsonError("unknown key \"" + key + "\" in sweep grid");
    }
  }
  SweepSpec sweep;
  const Json* base = json.find("base");
  if (base == nullptr) throw JsonError("sweep grid needs a \"base\" spec");
  sweep.base = base->is_string() ? spec_to_json(get_scenario(base->as_string())) : *base;
  if (const Json* axes = json.find("axes")) {
    for (const auto& [path, values] : axes->as_object()) {
      if (values.as_array().empty()) {
        throw JsonError("sweep axis \"" + path + "\" has no values");
      }
      sweep.axes.push_back({path, values.as_array()});
    }
  }
  sweep.repeats = static_cast<std::size_t>(json.uint_or("repeats", 1));
  if (sweep.repeats == 0) throw JsonError("sweep repeats must be > 0");
  sweep.out_path = json.string_or("out", sweep.out_path);
  sweep.threads = static_cast<std::size_t>(json.uint_or("threads", 0));
  sweep.derive_seeds = json.bool_or("derive_seeds", true);
  sweep.trace_dir = json.string_or("trace_dir", sweep.trace_dir);
  sweep.metrics_out = json.string_or("metrics_out", sweep.metrics_out);
  if (sweep.num_runs() == 0) throw JsonError("sweep grid is empty");
  // Validate every grid point eagerly: a broken base or a typo in an axis
  // path fails here (and in `specdag sweep --dry-run`), before any run.
  const auto grid = expand_grid(sweep);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    (void)point_spec(sweep, i, grid[i].first, grid[i].second);
  }
  return sweep;
}

std::vector<std::pair<Json, std::uint64_t>> expand_grid(const SweepSpec& sweep) {
  const std::uint64_t base_seed = sweep.base.uint_or("seed", 42);
  std::vector<std::pair<Json, std::uint64_t>> runs;
  std::vector<std::size_t> index(sweep.axes.size(), 0);
  for (std::size_t run = 0; run < sweep.num_runs(); ++run) {
    Json params = Json::make_object();
    for (std::size_t axis = 0; axis < sweep.axes.size(); ++axis) {
      params.set(sweep.axes[axis].path, sweep.axes[axis].values[index[axis]]);
    }
    // Derived per-run seed: decorrelated runs, reproducible from the base
    // seed alone, recorded in every output line. Confined to 53 bits so the
    // value round-trips exactly through JSON numbers.
    const std::uint64_t seed =
        sweep.derive_seeds
            ? splitmix64(base_seed + 0x5EED0000ULL + run) & ((std::uint64_t{1} << 53) - 1)
            : base_seed;
    runs.emplace_back(std::move(params), seed);
    // Odometer increment over the axes (repeats spin the whole grid again).
    for (std::size_t axis = sweep.axes.size(); axis-- > 0;) {
      if (++index[axis] < sweep.axes[axis].values.size()) break;
      index[axis] = 0;
    }
  }
  return runs;
}

namespace {

// The sweep-level obs aggregate: all per-run totals merged (counters sum,
// histograms merge bucket-wise — exact because every context uses the same
// fixed bucket layout), plus the same merge restricted to each axis value.
// Written as the JSONL footer line {"sweep": {...}} and, when requested,
// exported as Prometheus text.
Json build_sweep_footer(const SweepSpec& sweep, const std::vector<SweepRun>& results,
                        std::size_t reused, obs::MetricsSnapshot& aggregate, bool& any_obs) {
  aggregate = obs::MetricsSnapshot{};
  any_obs = false;
  std::size_t obs_runs = 0;
  for (const SweepRun& run : results) {
    if (!run.result.obs_enabled) continue;
    any_obs = true;
    ++obs_runs;
    aggregate.merge(run.result.obs_totals);
  }

  Json footer = Json::make_object();
  footer.set("runs", results.size());
  if (reused > 0) footer.set("reused", reused);
  if (any_obs) {
    footer.set("obs_runs", obs_runs);
    footer.set("obs", metrics_snapshot_to_json(aggregate));
    // Per-axis totals: for each axis value, the merge over the runs that
    // used it — the "how does obs load scale along this axis" view without
    // re-reading every line.
    Json axes = Json::make_object();
    for (const SweepAxis& axis : sweep.axes) {
      std::map<std::string, obs::MetricsSnapshot> by_value;
      for (const SweepRun& run : results) {
        if (!run.result.obs_enabled) continue;
        const Json* value = run.params.find(axis.path);
        if (value == nullptr) continue;
        by_value[value->dump()].merge(run.result.obs_totals);
      }
      Json axis_json = Json::make_object();
      for (const auto& [value, snapshot] : by_value) {
        axis_json.set(value, metrics_snapshot_to_json(snapshot));
      }
      axes.set(axis.path, std::move(axis_json));
    }
    footer.set("axes", std::move(axes));
  }
  Json line = Json::make_object();
  line.set("sweep", std::move(footer));
  return line;
}

// Reads a crash-interrupted sweep's manifest: per-run JSONL lines written by
// the previous invocation. Lines are validated against the expanded grid
// (index range, seed, params) so a changed grid is rejected instead of
// silently mixing results; unparsable lines (the torn tail of a crashed
// write) are skipped. Returns the number of reused runs.
std::size_t read_manifest(const std::string& manifest_path,
                          const std::vector<std::pair<Json, std::uint64_t>>& grid,
                          std::vector<std::string>& lines) {
  std::ifstream in(manifest_path);
  if (!in) return 0;
  std::size_t reused = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    Json parsed;
    try {
      parsed = Json::parse(line);
    } catch (const std::exception&) {
      continue;  // torn line from a crash mid-write
    }
    const Json* run = parsed.find("run");
    const Json* seed = parsed.find("seed");
    const Json* params = parsed.find("params");
    if (run == nullptr || seed == nullptr || params == nullptr) continue;
    const std::uint64_t index = run->as_uint();
    if (index >= grid.size() || seed->as_uint() != grid[index].second ||
        params->dump() != grid[index].first.dump()) {
      throw std::invalid_argument("sweep: " + manifest_path +
                                  " does not match this grid (run " + std::to_string(index) +
                                  " differs); delete it or fix the grid to resume");
    }
    if (lines[index].empty()) ++reused;
    lines[index] = line;
  }
  return reused;
}

}  // namespace

std::vector<SweepRun> run_sweep(const SweepSpec& sweep, std::ostream* progress) {
  // Checked here rather than in sweep_from_json so that `--threads` is too.
  if (sweep.threads > kMaxThreads) {
    throw std::invalid_argument("sweep threads must be <= " + std::to_string(kMaxThreads));
  }
  const std::vector<std::pair<Json, std::uint64_t>> grid = expand_grid(sweep);
  std::size_t threads = sweep.threads > 0 ? sweep.threads : std::thread::hardware_concurrency();
  threads = std::max<std::size_t>(1, std::min(threads, grid.size()));
  const bool parallel = threads > 1;

  // Everything that can reject the sweep runs before its first side effect
  // (directories, the manifest), so a rejected sweep leaves no files behind
  // and never truncates the manifest of an earlier interrupted run.
  std::vector<ScenarioSpec> specs;
  specs.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    specs.push_back(point_spec(sweep, i, grid[i].first, grid[i].second));
    // Per-run obs contexts attribute metrics and traces correctly at any
    // thread count; the only remaining hazard is several runs writing the
    // SAME trace file concurrently via a fixed obs.trace path. trace_dir is
    // the supported spelling (one file per run index).
    if (parallel && sweep.trace_dir.empty() && !specs.back().obs.trace.empty()) {
      throw std::invalid_argument(
          "sweep: a fixed obs.trace path with threads>1 would have concurrent runs "
          "overwrite one file; set \"trace_dir\" instead (per-run run-<idx>.trace.json)");
    }
  }

  // Crash-safe orchestration: completed runs append to the manifest as they
  // finish; the final out file is only assembled (in run-index order) once
  // every run is in. An interrupted sweep restarts with `resume=true` and
  // re-executes only the runs missing from the manifest.
  const std::string manifest_path = sweep.out_path + ".partial";
  std::vector<std::string> lines(grid.size());
  std::size_t reused = 0;
  if (sweep.resume) {
    reused = read_manifest(manifest_path, grid, lines);
    if (reused > 0) {
      SPECDAG_LOG(Info) << "sweep: resuming, " << reused << "/" << grid.size()
                        << " runs reused from " << manifest_path;
    }
  }

  const std::filesystem::path out_path(sweep.out_path);
  if (out_path.has_parent_path()) std::filesystem::create_directories(out_path.parent_path());
  if (!sweep.trace_dir.empty()) std::filesystem::create_directories(sweep.trace_dir);
  std::ofstream manifest(manifest_path, sweep.resume ? std::ios::app : std::ios::trunc);
  if (!manifest) throw std::runtime_error("sweep: cannot open " + manifest_path);

  std::vector<SweepRun> results(grid.size());
  std::mutex sink_mutex;

  auto run_one = [&](std::size_t run_index) {
    results[run_index].run_index = run_index;
    results[run_index].seed = grid[run_index].second;
    results[run_index].params = grid[run_index].first;
    if (!lines[run_index].empty()) return;  // reused from the manifest

    const ScenarioSpec& spec = specs[run_index];
    ScenarioResult result = run_scenario(spec);

    Json line = Json::make_object();
    line.set("run", run_index);
    line.set("seed", grid[run_index].second);
    line.set("params", grid[run_index].first);
    line.set("result", result_to_json(result, /*include_series=*/true));

    {
      std::lock_guard<std::mutex> lock(sink_mutex);
      lines[run_index] = line.dump();
      manifest << lines[run_index] << '\n';
      manifest.flush();
      if (progress != nullptr) {
        *progress << "[" << (run_index + 1) << "/" << grid.size() << "] " << spec.name
                  << " params=" << grid[run_index].first.dump()
                  << " final_accuracy=" << result.final_accuracy << "\n";
      }
    }
    results[run_index].result = std::move(result);
  };

  if (!parallel) {
    for (std::size_t i = 0; i < grid.size(); ++i) run_one(i);
  } else {
    ThreadPool pool(threads);
    pool.parallel_for(grid.size(), run_one);
  }

  // Every run is in: assemble the final out file in run-index order, append
  // the footer (the merged sweep.obs aggregate plus per-axis totals; readers
  // distinguish it from run lines by the "sweep" key), then drop the
  // manifest — its job is done.
  std::ofstream out(sweep.out_path);
  if (!out) throw std::runtime_error("sweep: cannot open " + sweep.out_path);
  for (const std::string& line : lines) out << line << '\n';
  obs::MetricsSnapshot aggregate;
  bool any_obs = false;
  const Json footer = build_sweep_footer(sweep, results, reused, aggregate, any_obs);
  out << footer.dump() << '\n';
  out.flush();
  manifest.close();
  {
    std::error_code ec;
    std::filesystem::remove(manifest_path, ec);
  }
  if (!sweep.metrics_out.empty()) {
    if (any_obs) {
      if (!obs::write_prometheus_file(sweep.metrics_out, aggregate)) {
        SPECDAG_LOG(Warn) << "sweep: failed to write metrics file: " << sweep.metrics_out;
      }
    } else {
      SPECDAG_LOG(Warn) << "sweep: metrics_out requested but no run collected obs "
                           "metrics; skipping " << sweep.metrics_out;
    }
  }
  return results;
}

}  // namespace specdag::scenario
