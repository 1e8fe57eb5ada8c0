// Executes a ScenarioSpec: builds the dataset/model from the preset, runs
// the requested simulator (round-based or event-driven), applies the
// dynamics schedule (churn / stragglers / partition) at the configured
// times, and returns a structured result — a per-round series plus final
// DAG/learning metrics. Results serialize to JSON for the sweep executor's
// JSONL sink and to CSV for plotting.
#pragma once

#include <iosfwd>

#include "obs/metrics.hpp"
#include "scenario/spec.hpp"
#include "sim/perf.hpp"
#include "store/eval_cache.hpp"

namespace specdag::scenario {

// One series point: a round (round simulator) or one unit of virtual time
// (async simulator).
struct ScenarioPoint {
  std::size_t round = 0;
  double mean_accuracy = 0.0;   // trained-model accuracy of the active clients
  double mean_loss = 0.0;
  std::size_t publishes = 0;    // transactions that entered the DAG
  std::size_t dag_size = 0;
  std::size_t active_clients = 0;
  bool partitioned = false;
  // Candidate evaluations per walk (DAG algorithm only; the Figure 15 cost
  // data). Walk latency is timing, so it lives in obs (tipsel.walk_us).
  double mean_walk_evaluations = 0.0;
  // Junk transactions the random-weights attacker published this unit.
  std::size_t attacker_transactions = 0;
  // Label-flip probes, filled every spec.attacks.metrics_every-th unit from
  // the attack start (Figures 12/13). approved_poisoned is -1 for the
  // baseline backends (no DAG to count approvals in).
  bool has_attack_metrics = false;
  double flip_rate = 0.0;
  double approved_poisoned = -1.0;
  // Per-active-client accuracies (spec.record_client_accuracies — Figure 9
  // distribution data).
  std::vector<double> client_accuracies;
  // Filled on every spec.community_metrics_every-th point (Figure 5 curves).
  bool has_community_metrics = false;
  double modularity = 0.0;
  std::size_t communities = 0;
  double misclassification = 0.0;  // Louvain partition vs ground-truth clusters
};

// Payload-store residency sampled at one series point: how much of the
// store still sits raw (anchors + payloads awaiting their async encode)
// versus delta-encoded, and how deep the encode queue is. With synchronous
// encoding pending_encodes is always 0. Reported under summary.store as
// `residency` — deliberately kept out of the per-point series/JSONL, which
// stays bit-identical between sync and async encoding.
struct StoreResidencyPoint {
  std::size_t round = 0;
  std::size_t pending_encodes = 0;
  std::size_t raw_payloads = 0;    // anchors + pending entries
  std::size_t delta_payloads = 0;
  std::size_t resident_bytes = 0;
};

// Per-round delta of the obs metrics registry (walk counts, cache hit/miss,
// store interns, pool busy time — see src/obs/metrics.hpp). Like store
// residency, these are timing-dependent and live under summary.obs.rounds,
// never in the per-point series/JSONL (which must stay bit-identical with
// obs on or off at any thread count).
struct ObsRoundPoint {
  std::size_t round = 0;
  obs::MetricsSnapshot delta;
};

struct ScenarioResult {
  std::string scenario;
  std::uint64_t seed = 0;
  std::string simulator;
  std::string algorithm;  // dag | fedavg | fedprox | gossip
  std::size_t rounds = 0;
  std::size_t clients = 0;

  // Final metrics.
  std::size_t dag_size = 0;
  double final_accuracy = 0.0;  // mean over the last 10% of rounds
  double pureness = 0.0;
  double base_pureness = 0.0;   // random-approval baseline (1/k for equal clusters)
  double modularity = 0.0;
  std::size_t communities = 0;
  double mean_cumulative_weight = 0.0;
  std::size_t tips = 0;
  double consensus_accuracy = -1.0;  // -1 unless spec.evaluate_consensus
  double wall_seconds = 0.0;

  // Attack outcome summary (meaningful only when spec.attacks.any()).
  bool attacked = false;
  std::size_t attacker_transactions = 0;   // total junk published
  double junk_reference_fraction = -1.0;   // clients whose consensus ref is junk
  std::size_t poisoned_clients = 0;
  // Means over the probes inside the label-flip window [start, stop) only;
  // post-heal probes remain in the series but are excluded here.
  double mean_flip_rate = -1.0;
  double mean_approved_poisoned = -1.0;
  // (benign, poisoned) client counts per Louvain community — the Figure 14
  // distribution. Filled when clients are still poisoned at the end.
  std::vector<std::pair<std::size_t, std::size_t>> poison_communities;

  // Model-store and evaluation-cache statistics of the run (delta encoding
  // effectiveness, materialization LRU, sharded cache hit rates). Sampled
  // after the runner's drain() barrier, so pending_encodes is 0 and
  // delta_ratio matches a synchronous run of the same spec.
  store::StoreStats store_stats;
  store::EvalCacheStats eval_cache_stats;
  // Raw-vs-delta residency and encode-queue depth over time (one sample per
  // unit this run executed — checkpoints do not carry it; DAG algorithm
  // only).
  std::vector<StoreResidencyPoint> store_series;

  // Per-phase timing breakdown (tipsel / train / eval / commit) and the
  // worker count the prepare phase ran with (DAG algorithm only; the
  // baselines have no walk/commit phases to break down).
  sim::PhaseTimings perf;
  std::size_t prepare_threads = 0;

  // Obs metrics attributed to this run: whole-run registry delta plus the
  // per-round samples (DAG algorithm only; empty when spec.obs.metrics is
  // off). Serialized as summary.obs.
  bool obs_enabled = false;
  obs::MetricsSnapshot obs_totals;
  std::vector<ObsRoundPoint> obs_series;

  std::vector<ScenarioPoint> series;
};

// Side outputs of a run (empty string = skip).
struct RunOptions {
  std::string export_dot;    // write the final DAG as Graphviz DOT
  std::string export_jsonl;  // write the final DAG as a JSONL transaction log
};

ScenarioResult run_scenario(const ScenarioSpec& spec);
ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& options);

// Safe overrides when resuming/replaying a checkpoint: only knobs that are
// bit-identical by construction (thread counts) may deviate from the spec
// embedded in the checkpoint — everything semantic comes from the file.
struct ResumeOverrides {
  bool has_threads = false;
  std::size_t threads = 0;
};

// Continues a run from a checkpoint written by the `checkpoint` spec block:
// rebuilds the simulator from the embedded spec, replays the pre-checkpoint
// label-flip schedule into the dataset, restores the saved state, and runs
// the remaining units. The returned result (series, JSONL, final accuracies,
// delta_ratio) is bit-identical to the uninterrupted run at any thread
// count. Checkpointing itself continues per the embedded spec, so a resumed
// run stays crash-safe.
ScenarioResult resume_scenario(const std::string& checkpoint_path,
                               const ResumeOverrides& overrides = {});
ScenarioResult resume_scenario(const std::string& checkpoint_path, const RunOptions& options,
                               const ResumeOverrides& overrides);

// Deterministically re-executes the window [first_round, last_round] (1-based
// series rounds, inclusive) from a checkpoint covering rounds up to
// first_round - 1 or earlier. Returns only the window's series points —
// bit-identical to the same rounds of the original run. Computes no final
// metrics and writes no checkpoints or obs files.
ScenarioResult replay_scenario(const std::string& checkpoint_path, std::size_t first_round,
                               std::size_t last_round, const ResumeOverrides& overrides = {});

// {"scenario": ..., "summary": {...}} plus a "series" array when requested.
Json result_to_json(const ScenarioResult& result, bool include_series = false);

// Obs snapshot serialization, shared by summary.obs and the sweep
// aggregator's sweep.obs footer: {"counters": {...}, "histograms":
// {name: {count,sum,mean,p50,p99,max}, ...}}.
Json metrics_snapshot_to_json(const obs::MetricsSnapshot& snapshot);
Json histogram_to_json(const obs::HistogramSnapshot& snapshot);

// Writes the series as CSV (round, mean_accuracy, mean_loss, publishes,
// dag_size, active_clients, partitioned, attacker_transactions, flip_rate,
// approved_poisoned).
void write_series_csv(const ScenarioResult& result, const std::string& path);

// Streams the series as JSONL: one self-contained line per point carrying
// the scenario/algorithm/seed context plus every per-round metric (incl.
// the attack fields) — the format the CI smoke runs assert and archive.
// The stream is bit-identical across store.async_encode / thread settings
// (volatile store sampling lives in summary.store, not here).
void write_series_jsonl(const ScenarioResult& result, const std::string& path);
void write_series_jsonl(const ScenarioResult& result, std::ostream& out);

}  // namespace specdag::scenario
