#include "scenario/runner.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>

#include "dag/export.hpp"
#include "fl/baselines.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "snapshot/checkpoint.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace specdag::scenario {

sim::ExperimentPreset make_preset(const ScenarioSpec& spec) {
  obs::ScopedSpan span(obs::Phase::kSetup);
  const sim::PresetOptions options{spec.seed, spec.paper_scale, spec.num_clients,
                                   spec.samples_per_client};
  switch (spec.dataset) {
    case DatasetPreset::kFmnistClustered: return sim::fmnist_clustered_preset(options);
    case DatasetPreset::kFmnistRelaxed: return sim::fmnist_relaxed_preset(options);
    case DatasetPreset::kFmnistByAuthor: return sim::fmnist_by_author_preset(options);
    case DatasetPreset::kPoets: return sim::poets_preset(options);
    case DatasetPreset::kCifar: return sim::cifar_preset(options);
    case DatasetPreset::kFedproxSynthetic: return sim::fedprox_synthetic_preset(options);
  }
  throw std::invalid_argument("scenario: unknown dataset preset");
}

sim::SimulatorConfig simulator_config(const ScenarioSpec& spec, std::size_t num_clients) {
  sim::SimulatorConfig config;
  config.client = spec.client;
  config.clients_per_round = std::min(spec.clients_per_round, num_clients);
  config.parallel_prepare = spec.parallel_prepare;
  config.threads = spec.threads;
  config.visibility_delay_rounds = spec.visibility_delay_rounds;
  config.seed = spec.seed;
  config.store = spec.store;
  // Callers consume run_round()'s return value; keeping every round's
  // trained payloads alive would defeat the payload store.
  config.keep_history = false;
  return config;
}

namespace {

// Deterministic fork tags for the dynamics schedules. Distinct from every
// tag used inside the simulators so dynamics never perturb the training
// streams.
constexpr std::uint64_t kChurnTag = 0xC4DA;
constexpr std::uint64_t kStragglerTag = 0x57A6;

// The seed-derived set of clients that churns out of the network.
std::vector<int> churn_targets(const ScenarioSpec& spec, std::size_t num_clients) {
  const auto count = static_cast<std::size_t>(
      std::floor(spec.dynamics.churn.fraction * static_cast<double>(num_clients)));
  if (count == 0) return {};
  Rng rng = Rng(spec.seed).fork(kChurnTag);
  std::vector<int> targets;
  for (std::size_t idx : rng.sample_without_replacement(num_clients, count)) {
    targets.push_back(static_cast<int>(idx));
  }
  return targets;
}

std::vector<int> partition_groups(const ScenarioSpec& spec,
                                  const data::FederatedDataset& dataset) {
  const std::size_t num_groups = spec.dynamics.partition.num_groups;
  std::vector<int> groups(dataset.clients.size());
  for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
    if (spec.dynamics.partition.by_cluster && dataset.clients[i].true_cluster >= 0) {
      groups[i] = dataset.clients[i].true_cluster % static_cast<int>(num_groups);
    } else {
      groups[i] = static_cast<int>(i % num_groups);
    }
  }
  return groups;
}

// Heavy-tailed training clocks for the straggler workload.
std::vector<sim::AsyncClientProfile> straggler_profiles(const ScenarioSpec& spec,
                                                        std::size_t num_clients) {
  std::vector<sim::AsyncClientProfile> profiles(num_clients);
  if (!spec.dynamics.stragglers.enabled()) return profiles;
  const auto count = static_cast<std::size_t>(
      std::ceil(spec.dynamics.stragglers.fraction * static_cast<double>(num_clients)));
  Rng rng = Rng(spec.seed).fork(kStragglerTag);
  for (std::size_t idx : rng.sample_without_replacement(num_clients, count)) {
    // Pareto(shape) with scale 1: x = (1 - u)^(-1/shape) >= 1. Shape <= 2
    // gives the infinite-variance tails that model real devices dropping in
    // and out of charge/connectivity.
    const double u = rng.uniform();
    const double pareto = std::pow(1.0 - u, -1.0 / spec.dynamics.stragglers.pareto_shape);
    profiles[idx].mean_step_interval = spec.dynamics.stragglers.slowdown * pareto;
  }
  return profiles;
}

// Fires the churn/partition events scheduled for `unit` (a round index or a
// virtual-time boundary — both simulators expose the same hook API).
template <typename Simulator>
void apply_dynamics_at(const ScenarioSpec& spec, const std::vector<int>& churned,
                       std::size_t unit, Simulator& simulator) {
  const ChurnSpec& churn = spec.dynamics.churn;
  if (churn.enabled()) {
    if (unit == churn.leave_round) {
      for (int id : churned) simulator.set_client_active(id, false);
    }
    if (churn.rejoin_round != 0 && unit == churn.rejoin_round) {
      for (int id : churned) simulator.set_client_active(id, true);
    }
  }
  const PartitionSpec& partition = spec.dynamics.partition;
  if (partition.enabled()) {
    if (unit == partition.start_round) {
      simulator.begin_partition(partition_groups(spec, simulator.dataset()));
    }
    if (partition.heal_round != 0 && unit == partition.heal_round) {
      simulator.heal_partition();
    }
  }
}

// Fires the label-flip schedule for `unit`. `target` is either simulator or
// an fl::Baseline — all three expose the same poisoning hooks.
template <typename Target>
void apply_label_flip_at(const ScenarioSpec& spec, std::size_t unit, Target& target,
                         ScenarioResult& result) {
  const LabelFlipAttackSpec& flip = spec.attacks.label_flip;
  if (!flip.enabled()) return;
  if (unit == flip.start_round) {
    result.poisoned_clients =
        target.apply_poisoning(flip.fraction, flip.class_a, flip.class_b).size();
  }
  if (flip.stop_round != 0 && unit == flip.stop_round) target.revert_poisoning();
}

// Checkpoint/resume/replay plumbing of the DAG loop. `restore` (when set)
// seeds the run from a loaded checkpoint instead of unit 0; `stop_unit` lets
// replay_scenario stop before the spec horizon (0 = run to spec.rounds);
// `finalize` is off for replays, which only need the series.
struct RunControl {
  const snapshot::LoadedCheckpoint* restore = nullptr;
  std::size_t stop_unit = 0;
  bool finalize = true;
};

// Replays the label-flip schedule for every unit before `resume_unit`, so
// the dataset (flipped labels, poisoned flags) matches what the checkpointed
// run saw. Pure: the victim set derives from the seed alone. Runs BEFORE
// restore_state — the flips invalidate eval-cache entries, and the restore
// then installs the checkpoint's cache wholesale.
template <typename Simulator>
void replay_label_flips(const ScenarioSpec& spec, std::size_t resume_unit, Simulator& simulator,
                        ScenarioResult& result) {
  for (std::size_t unit = 0; unit < resume_unit; ++unit) {
    apply_label_flip_at(spec, unit, simulator, result);
  }
}

// Writes the periodic checkpoint due after `completed` units (no-op unless
// the spec schedules one there).
template <typename Simulator>
void maybe_write_checkpoint(const ScenarioSpec& spec, std::size_t completed,
                            const ScenarioResult& result, Simulator& simulator,
                            AttackController& attacks) {
  const CheckpointSpec& checkpoint = spec.checkpoint;
  if (!checkpoint.enabled() || completed % checkpoint.every_n_rounds != 0) return;
  std::filesystem::create_directories(checkpoint.dir);
  snapshot::write_checkpoint(snapshot::checkpoint_path(checkpoint.dir, completed), spec,
                             completed, result, simulator, attacks);
  snapshot::prune_checkpoints(checkpoint.dir, checkpoint.keep_last);
}

// The DAG loop's attack step: publish the junk transactions due this unit,
// then run the label-flip probes when scheduled.
void run_attack_step(std::size_t unit, AttackController& attacks, core::SpecializingDag& net,
                     const data::FederatedDataset& dataset, ScenarioPoint& point) {
  point.attacker_transactions = attacks.run_random_weights(unit, net.dag());
  if (!attacks.measure_at(unit)) return;
  const LabelFlipProbe measured = attacks.probe_label_flip(net, dataset);
  point.has_attack_metrics = true;
  point.flip_rate = measured.flip_rate;
  point.approved_poisoned = measured.approved_poisoned;
}

// One raw-vs-delta residency sample for the store time series (queue depth
// of the async encode pipeline, raw/delta entry split, resident bytes).
StoreResidencyPoint sample_store_residency(std::size_t round, const dag::Dag& dag) {
  const store::StoreStats stats = dag.store().stats();
  StoreResidencyPoint point;
  point.round = round;
  point.pending_encodes = stats.pending_encodes;
  point.raw_payloads = stats.anchors + stats.pending_encodes;
  point.delta_payloads = stats.deltas;
  point.resident_bytes = stats.resident_payload_bytes;
  return point;
}

// Per-round obs sampling on the run's own context (installed by ObsSession
// before the simulator is built, so Registry::snapshot() resolves to it).
// The context starts from zero; snapshot deltas still attribute per round,
// and stay correct even with other runs executing concurrently — each run
// only ever sees its own context's cells. Snapshots happen outside the
// simulators' timed sections, so summary.perf stays comparable.
class ObsRoundSampler {
 public:
  ObsRoundSampler() : enabled_(obs::metrics_enabled()) {
    if (enabled_) {
      begin_ = obs::Registry::snapshot();
      previous_ = begin_;
    }
  }

  void sample_round(std::size_t round, ScenarioResult& result) {
    if (!enabled_) return;
    obs::MetricsSnapshot now = obs::Registry::snapshot();
    result.obs_series.push_back({round, now.delta_from(previous_)});
    previous_ = std::move(now);
  }

  // Whole-run totals; call after the store's drain barrier so background
  // encode work between the last round sample and quiescence is included.
  void finish(ScenarioResult& result) {
    if (!enabled_) return;
    result.obs_enabled = true;
    result.obs_totals = obs::Registry::snapshot().delta_from(begin_);
  }

 private:
  bool enabled_;
  obs::MetricsSnapshot begin_;
  obs::MetricsSnapshot previous_;
};

double tail_mean_accuracy(const std::vector<ScenarioPoint>& series) {
  if (series.empty()) return 0.0;
  const std::size_t tail = std::max<std::size_t>(1, series.size() / 10);
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t i = series.size() - tail; i < series.size(); ++i) {
    sum += series[i].mean_accuracy;
    ++counted;
  }
  return counted > 0 ? sum / static_cast<double>(counted) : 0.0;
}

// The accuracy fields of one series point, from the evaluations of the
// clients that ran this unit: mean accuracy and loss, and each client's
// accuracy when the spec records them. `eval_of` projects an element of
// `runs` onto its fl::EvalResult.
template <typename Runs, typename Projection>
void fill_accuracy(const ScenarioSpec& spec, const Runs& runs, Projection eval_of,
                   ScenarioPoint& point) {
  if (runs.empty()) return;
  double acc = 0.0, loss = 0.0;
  for (const auto& run : runs) {
    const fl::EvalResult& eval = std::invoke(eval_of, run);
    acc += eval.accuracy;
    loss += eval.loss;
    if (spec.record_client_accuracies) point.client_accuracies.push_back(eval.accuracy);
  }
  const auto count = static_cast<double>(runs.size());
  point.mean_accuracy = acc / count;
  point.mean_loss = loss / count;
}

std::vector<std::size_t> cluster_sizes(const data::FederatedDataset& dataset) {
  std::map<int, std::size_t> sizes;
  for (const auto& client : dataset.clients) {
    if (client.true_cluster >= 0) ++sizes[client.true_cluster];
  }
  std::vector<std::size_t> result;
  for (const auto& [cluster, size] : sizes) result.push_back(size);
  return result;
}

// Louvain community metrics for one series point (Figure 5 curves).
void fill_community_metrics(const ScenarioSpec& spec, const data::FederatedDataset& dataset,
                            const dag::Dag& dag, std::size_t unit, ScenarioPoint& point) {
  const std::size_t every = spec.community_metrics_every;
  if (every == 0 || point.round % every != 0) return;
  const metrics::ClientGraph graph = metrics::build_client_graph(dag, dataset.clients.size());
  Rng rng = Rng(spec.seed).fork(0x10CA0000ULL + unit);
  const metrics::LouvainResult louvain = metrics::louvain(graph, rng);
  point.has_community_metrics = true;
  point.modularity = louvain.modularity;
  point.communities = louvain.num_communities;
  point.misclassification =
      metrics::misclassification_fraction(louvain.partition, dataset.true_clusters());
}

// Shared final-metrics computation over the (finished) DAG network.
void finalize_result(const ScenarioSpec& spec, const data::FederatedDataset& dataset,
                     core::SpecializingDag& net, AttackController& attacks,
                     const RunOptions& options, ScenarioResult& result) {
  const std::vector<int> true_clusters = dataset.true_clusters();
  result.clients = dataset.clients.size();
  result.dag_size = net.dag().size();
  result.final_accuracy = tail_mean_accuracy(result.series);
  result.pureness = metrics::approval_pureness(net.dag(), true_clusters).pureness;
  const std::vector<std::size_t> sizes = cluster_sizes(dataset);
  result.base_pureness = sizes.empty() ? 0.0 : metrics::base_pureness(sizes);

  const metrics::ClientGraph graph = metrics::build_client_graph(net.dag(), dataset.clients.size());
  Rng louvain_rng = Rng(spec.seed).fork(0x10CA);
  const metrics::LouvainResult louvain = metrics::louvain(graph, louvain_rng);
  result.modularity = louvain.modularity;
  result.communities = louvain.num_communities;

  result.attacker_transactions = attacks.total_published();
  if (spec.attacks.random_weights.enabled()) {
    result.junk_reference_fraction =
        attacks.junk_reference_fraction(net, dataset.clients.size());
  }
  if (spec.attacks.label_flip.enabled()) {
    // Figure 14: how the (still-)poisoned clients distribute over the
    // Louvain-inferred communities. Empty when the attack was reverted.
    std::map<int, std::pair<std::size_t, std::size_t>> per_community;
    bool any_poisoned = false;
    for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
      auto& [benign, poisoned] = per_community[louvain.partition[i]];
      if (dataset.clients[i].poisoned) {
        ++poisoned;
        any_poisoned = true;
      } else {
        ++benign;
      }
    }
    if (any_poisoned) {
      for (const auto& [community, counts] : per_community) {
        result.poison_communities.push_back(counts);
      }
    }
  }

  const metrics::DagWeightSummary weights = metrics::dag_weight_summary(net.dag());
  result.mean_cumulative_weight = weights.mean_cumulative_weight;
  result.tips = weights.tips;

  if (spec.evaluate_consensus) {
    double sum = 0.0;
    for (const fl::EvalResult& eval : net.evaluate_consensus_all()) sum += eval.accuracy;
    result.consensus_accuracy = sum / static_cast<double>(dataset.clients.size());
  }

  result.store_stats = net.dag().store().stats();
  result.eval_cache_stats = net.eval_cache()->stats();

  if (!options.export_dot.empty()) {
    dag::DotOptions dot;
    dot.client_clusters = true_clusters;
    dag::save_dot(options.export_dot, net.dag(), dot);
  }
  if (!options.export_jsonl.empty()) {
    dag::save_jsonl(options.export_jsonl, net.dag());
  }
}

// Per-simulator pieces of the DAG run loop: building the simulator from the
// spec, and running one unit (a round, or one unit of virtual time).
template <typename Simulator>
Simulator make_simulator(const ScenarioSpec& spec, sim::ExperimentPreset& preset);

template <>
sim::DagSimulator make_simulator(const ScenarioSpec& spec, sim::ExperimentPreset& preset) {
  obs::ScopedSpan span(obs::Phase::kSetup);
  const sim::SimulatorConfig config = simulator_config(spec, preset.dataset.clients.size());
  return sim::DagSimulator(std::move(preset.dataset), preset.factory, config);
}

template <>
sim::AsyncDagSimulator make_simulator(const ScenarioSpec& spec, sim::ExperimentPreset& preset) {
  obs::ScopedSpan span(obs::Phase::kSetup);
  sim::AsyncSimulatorConfig config;
  config.client = spec.client;
  config.broadcast_latency = spec.broadcast_latency;
  config.seed = spec.seed;
  config.threads = spec.parallel_prepare ? spec.threads : 1;
  config.store = spec.store;
  const std::size_t num_clients = preset.dataset.clients.size();
  return sim::AsyncDagSimulator(std::move(preset.dataset), preset.factory, config,
                                straggler_profiles(spec, num_clients));
}

// The client results of one unit, and how many honest transactions it
// published (the attacker's junk is counted separately).
struct UnitRun {
  std::vector<fl::RoundOutcome> results;
  std::size_t publishes = 0;
};

UnitRun run_unit(sim::DagSimulator& simulator, std::size_t /*unit*/) {
  const sim::RoundRecord& record = simulator.run_round();
  return {record.results, record.publish_count()};
}

// Dynamics and attacks fire at virtual-time boundaries, mirroring the
// round-based schedule ("round" == one unit of virtual time).
UnitRun run_unit(sim::AsyncDagSimulator& simulator, std::size_t unit) {
  const std::size_t dag_size_before = simulator.dag().size();
  std::vector<sim::AsyncStepRecord> records =
      simulator.run_until(static_cast<double>(unit + 1));
  UnitRun run;
  run.results.reserve(records.size());
  for (auto& record : records) run.results.push_back(std::move(record.result));
  run.publishes = simulator.dag().size() - dag_size_before;
  return run;
}

// The DAG run loop shared by the round and async simulators.
template <typename Simulator>
ScenarioResult run_dag_scenario(const ScenarioSpec& spec, sim::ExperimentPreset preset,
                                const RunOptions& options, const RunControl& control) {
  ScenarioResult result;
  const std::size_t num_clients = preset.dataset.clients.size();
  Simulator simulator = make_simulator<Simulator>(spec, preset);

  const std::vector<int> churned = churn_targets(spec, num_clients);
  AttackController attacks(spec.attacks, spec.seed, num_clients);
  ObsRoundSampler obs_sampler;

  std::size_t start_unit = 0;
  if (control.restore != nullptr) {
    obs::ScopedSpan span(obs::Phase::kSetup);
    result = control.restore->partial;
    replay_label_flips(spec, control.restore->completed_units, simulator, result);
    snapshot::restore_state(*control.restore, simulator, attacks);
    start_unit = control.restore->completed_units;
  }
  const std::size_t stop_unit = control.stop_unit == 0 ? spec.rounds : control.stop_unit;

  for (std::size_t unit = start_unit; unit < stop_unit; ++unit) {
    apply_dynamics_at(spec, churned, unit, simulator);
    apply_label_flip_at(spec, unit, simulator, result);

    const UnitRun run = run_unit(simulator, unit);
    ScenarioPoint point;
    point.round = unit + 1;
    point.publishes = run.publishes;
    fill_accuracy(spec, run.results, &fl::RoundOutcome::trained_eval, point);
    if (!run.results.empty()) {
      double walk_evals = 0.0;
      for (const auto& r : run.results) walk_evals += static_cast<double>(r.walk_stats.evaluations);
      point.mean_walk_evaluations = walk_evals / static_cast<double>(run.results.size());
    }
    run_attack_step(unit, attacks, simulator.network(), simulator.dataset(), point);
    point.dag_size = simulator.dag().size();
    point.active_clients = simulator.active_client_count();
    point.partitioned = simulator.partitioned();
    fill_community_metrics(spec, simulator.dataset(), simulator.dag(), unit + 1, point);
    result.series.push_back(std::move(point));
    result.store_series.push_back(sample_store_residency(unit + 1, simulator.dag()));
    obs_sampler.sample_round(unit + 1, result);
    maybe_write_checkpoint(spec, unit + 1, result, simulator, attacks);
  }

  // Barrier: let queued async encodes settle so the final store stats (and
  // delta_ratio) match a synchronous run of the same spec.
  simulator.dag().store().drain();
  obs_sampler.finish(result);
  result.prepare_threads = simulator.prepare_threads();
  if (control.finalize) {
    obs::ScopedSpan span(obs::Phase::kFinalize);
    finalize_result(spec, simulator.dataset(), simulator.network(), attacks, options, result);
  }
  result.perf = simulator.perf();
  return result;
}

// FedAvg/FedProx/gossip behind the same series/summary surface: identical
// dataset preset, rounds, and seed as a DAG run of the same spec, so one
// sweep axis flips the algorithm.
ScenarioResult run_baseline_scenario(const ScenarioSpec& spec, sim::ExperimentPreset preset,
                                     const RunOptions& options) {
  if (!options.export_dot.empty() || !options.export_jsonl.empty()) {
    throw std::invalid_argument("scenario: the " + to_string(spec.algorithm) +
                                " baseline builds no DAG to export");
  }
  ScenarioResult result;
  const std::size_t num_clients = preset.dataset.clients.size();
  const std::size_t per_round = std::min(spec.clients_per_round, num_clients);

  std::unique_ptr<fl::Baseline> baseline;
  if (spec.algorithm == AlgorithmKind::kGossip) {
    baseline = std::make_unique<fl::Gossip>(std::move(preset.dataset), preset.factory,
                                            spec.client.train, per_round, spec.seed);
  } else {
    const double mu = spec.algorithm == AlgorithmKind::kFedProx ? spec.proximal_mu : 0.0;
    baseline = std::make_unique<fl::FedAvg>(std::move(preset.dataset), preset.factory,
                                            spec.client.train, mu, per_round, spec.seed);
  }

  const LabelFlipAttackSpec& flip = spec.attacks.label_flip;
  for (std::size_t round = 0; round < spec.rounds; ++round) {
    apply_label_flip_at(spec, round, *baseline, result);

    ScenarioPoint point;
    point.round = round + 1;
    fill_accuracy(spec, baseline->run_round(), std::identity{}, point);
    point.active_clients = num_clients;
    if (spec.attacks.measure_at(round)) {
      point.has_attack_metrics = true;
      point.flip_rate = baseline->mean_benign_flip_rate(flip.class_a, flip.class_b);
    }
    result.series.push_back(std::move(point));
  }

  result.clients = num_clients;
  result.final_accuracy = tail_mean_accuracy(result.series);
  if (spec.evaluate_consensus) {
    result.consensus_accuracy = baseline->mean_inference_accuracy();
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) { return run_scenario(spec, RunOptions{}); }

namespace {

// Scopes an obs context to one run: the session OWNS a fresh obs::Context
// (metrics flag from the spec, its own trace buffer) and installs it as the
// calling thread's active context for the whole run. ThreadPool propagates
// it into posted tasks, so pool workers attribute to this run too — which
// is what lets a parallel sweep run many sessions concurrently, each with
// correct summary.obs and its own trace file.
//
// The destructor runs after the dispatched scenario returned — by then the
// simulators (and their worker pools) are destroyed, so no span is left
// open in the trace file — and then *closes* the context: any straggler
// task still recording into it is counted and warned about (see
// Context::note_late_record) instead of silently skewing reported numbers.
class ObsSession {
 public:
  explicit ObsSession(const ObsSpec& spec)
      : context_(spec.metrics), scope_(&context_), tracing_(!spec.trace.empty()) {
    if (tracing_) context_.start_trace(spec.trace);
  }

  ~ObsSession() {
    if (tracing_) context_.stop_trace();
    context_.close();
  }

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  obs::Context& context() { return context_; }

 private:
  obs::Context context_;
  obs::ContextScope scope_;
  bool tracing_;
};

// Shared body of run_scenario / resume_scenario / replay_scenario: the only
// difference between a fresh run and a resumed one is the RunControl carrying
// the restored state and loop bounds.
ScenarioResult run_scenario_impl(const ScenarioSpec& spec, const RunOptions& options,
                                 const RunControl& control) {
  spec.validate();
  const std::uint64_t start_ns = obs::now_ns();
  ObsSession obs_session(spec.obs);
  sim::ExperimentPreset preset = make_preset(spec);

  ScenarioResult result;
  if (spec.algorithm != AlgorithmKind::kDag) {
    result = run_baseline_scenario(spec, std::move(preset), options);
  } else {
    result = spec.simulator == SimKind::kRound
                 ? run_dag_scenario<sim::DagSimulator>(spec, std::move(preset), options, control)
                 : run_dag_scenario<sim::AsyncDagSimulator>(spec, std::move(preset), options,
                                                            control);
  }
  result.scenario = spec.name;
  result.seed = spec.seed;
  result.simulator = to_string(spec.simulator);
  result.algorithm = to_string(spec.algorithm);
  result.rounds = spec.rounds;
  result.attacked = spec.attacks.any();
  // Attack-phase means over the measured points (Figures 12/13 headline
  // numbers, independent of the backend). Probes taken after the label-flip
  // window healed stay in the series (recovery data) but are excluded here.
  const std::size_t flip_stop = spec.attacks.label_flip.stop_round;
  double flip_sum = 0.0, poison_sum = 0.0;
  std::size_t measured = 0, poison_measured = 0;
  for (const ScenarioPoint& point : result.series) {
    if (!point.has_attack_metrics) continue;
    if (flip_stop != 0 && point.round - 1 >= flip_stop) continue;
    flip_sum += point.flip_rate;
    ++measured;
    if (point.approved_poisoned >= 0.0) {
      poison_sum += point.approved_poisoned;
      ++poison_measured;
    }
  }
  if (measured > 0) result.mean_flip_rate = flip_sum / static_cast<double>(measured);
  if (poison_measured > 0) {
    result.mean_approved_poisoned = poison_sum / static_cast<double>(poison_measured);
  }
  result.wall_seconds = static_cast<double>(obs::now_ns() - start_ns) * 1e-9;
  if (!spec.obs.metrics_out.empty()) {
    if (result.obs_enabled) {
      if (!obs::write_prometheus_file(spec.obs.metrics_out, result.obs_totals)) {
        SPECDAG_LOG(Warn) << "failed to write metrics file: " << spec.obs.metrics_out;
      }
    } else {
      SPECDAG_LOG(Warn) << "obs.metrics_out requested but no metrics were collected "
                           "(metrics disabled or baseline algorithm); "
                           "skipping " << spec.obs.metrics_out;
    }
  }
  return result;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec, const RunOptions& options) {
  return run_scenario_impl(spec, options, RunControl{});
}

ScenarioResult resume_scenario(const std::string& checkpoint_path,
                               const ResumeOverrides& overrides) {
  return resume_scenario(checkpoint_path, RunOptions{}, overrides);
}

ScenarioResult resume_scenario(const std::string& checkpoint_path, const RunOptions& options,
                               const ResumeOverrides& overrides) {
  snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(checkpoint_path);
  ScenarioSpec spec = loaded.spec;
  if (overrides.has_threads) spec.threads = overrides.threads;
  if (loaded.completed_units > spec.rounds) {
    throw snapshot::SnapshotError("snapshot: checkpoint covers " +
                                  std::to_string(loaded.completed_units) +
                                  " units but the spec runs only " +
                                  std::to_string(spec.rounds));
  }
  RunControl control;
  control.restore = &loaded;
  return run_scenario_impl(spec, options, control);
}

ScenarioResult replay_scenario(const std::string& checkpoint_path, std::size_t first_round,
                               std::size_t last_round, const ResumeOverrides& overrides) {
  snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(checkpoint_path);
  ScenarioSpec spec = loaded.spec;
  if (overrides.has_threads) spec.threads = overrides.threads;
  // A replay is a read-only re-execution: never write new checkpoints or obs
  // files from it.
  spec.checkpoint = CheckpointSpec{};
  spec.obs.trace.clear();
  spec.obs.metrics_out.clear();
  if (first_round == 0 || first_round > last_round) {
    throw std::invalid_argument("replay: rounds window must be 1-based and non-empty");
  }
  if (last_round > spec.rounds) {
    throw std::invalid_argument("replay: window ends at round " + std::to_string(last_round) +
                                " but the scenario has only " + std::to_string(spec.rounds) +
                                " rounds");
  }
  if (first_round <= loaded.completed_units) {
    throw std::invalid_argument("replay: checkpoint already covers round " +
                                std::to_string(first_round) +
                                "; pick an earlier checkpoint to replay it");
  }
  RunControl control;
  control.restore = &loaded;
  control.stop_unit = last_round;
  control.finalize = false;
  ScenarioResult result = run_scenario_impl(spec, RunOptions{}, control);
  // Keep only the requested window (the checkpoint's partial series covers
  // everything before first_round).
  const auto outside = [&](std::size_t round) {
    return round < first_round || round > last_round;
  };
  std::erase_if(result.series, [&](const ScenarioPoint& p) { return outside(p.round); });
  std::erase_if(result.store_series,
                [&](const StoreResidencyPoint& p) { return outside(p.round); });
  return result;
}

// Compact JSON for one histogram snapshot: count/sum/mean plus bucket-upper-
// bound quantiles (exact bucket counts stay in memory only — the exponential
// bounds make p50/p99/max readable without shipping 65 buckets per metric).
Json histogram_to_json(const obs::HistogramSnapshot& snapshot) {
  Json json = Json::make_object();
  json.set("count", snapshot.count);
  json.set("sum", snapshot.sum);
  json.set("mean", snapshot.mean());
  json.set("p50", snapshot.quantile_upper_bound(0.5));
  json.set("p99", snapshot.quantile_upper_bound(0.99));
  json.set("max", snapshot.max_upper_bound());
  return json;
}

Json metrics_snapshot_to_json(const obs::MetricsSnapshot& snapshot) {
  Json json = Json::make_object();
  Json counters = Json::make_object();
  for (const auto& [name, value] : snapshot.counters) counters.set(name, value);
  json.set("counters", std::move(counters));
  Json histograms = Json::make_object();
  for (const auto& [name, hist] : snapshot.histograms) {
    histograms.set(name, histogram_to_json(hist));
  }
  json.set("histograms", std::move(histograms));
  return json;
}

namespace {

// One series point as a JSON object (shared by the summary's series array
// and the JSONL stream).
Json point_to_json(const ScenarioPoint& point) {
  Json row = Json::make_object();
  row.set("round", point.round);
  row.set("mean_accuracy", point.mean_accuracy);
  row.set("mean_loss", point.mean_loss);
  row.set("publishes", point.publishes);
  row.set("dag_size", point.dag_size);
  row.set("active_clients", point.active_clients);
  if (point.partitioned) row.set("partitioned", true);
  if (point.mean_walk_evaluations > 0.0) {
    row.set("mean_walk_evaluations", point.mean_walk_evaluations);
  }
  if (point.attacker_transactions > 0) {
    row.set("attacker_transactions", point.attacker_transactions);
  }
  if (point.has_attack_metrics) {
    row.set("flip_rate", point.flip_rate);
    if (point.approved_poisoned >= 0.0) row.set("approved_poisoned", point.approved_poisoned);
  }
  if (!point.client_accuracies.empty()) {
    Json accuracies = Json::make_array();
    for (double accuracy : point.client_accuracies) {
      accuracies.as_array().push_back(Json(accuracy));
    }
    row.set("client_accuracies", std::move(accuracies));
  }
  if (point.has_community_metrics) {
    row.set("modularity", point.modularity);
    row.set("communities", point.communities);
    row.set("misclassification", point.misclassification);
  }
  return row;
}

}  // namespace

Json result_to_json(const ScenarioResult& result, bool include_series) {
  Json json = Json::make_object();
  json.set("scenario", result.scenario);
  json.set("seed", result.seed);
  json.set("simulator", result.simulator);
  json.set("algorithm", result.algorithm);
  json.set("rounds", result.rounds);
  json.set("clients", result.clients);

  Json summary = Json::make_object();
  summary.set("final_accuracy", result.final_accuracy);
  if (result.consensus_accuracy >= 0.0) {
    summary.set("consensus_accuracy", result.consensus_accuracy);
  }
  summary.set("wall_seconds", result.wall_seconds);

  // DAG-structure metrics only exist for the dag algorithm (every DAG run
  // holds at least the genesis transaction).
  if (result.dag_size > 0) {
    summary.set("dag_size", result.dag_size);
    summary.set("pureness", result.pureness);
    summary.set("base_pureness", result.base_pureness);
    summary.set("modularity", result.modularity);
    summary.set("communities", result.communities);
    summary.set("mean_cumulative_weight", result.mean_cumulative_weight);
    summary.set("tips", result.tips);

    Json store = Json::make_object();
    store.set("payloads", result.store_stats.payloads);
    store.set("anchors", result.store_stats.anchors);
    store.set("deltas", result.store_stats.deltas);
    store.set("dedup_hits", result.store_stats.dedup_hits);
    store.set("resident_payload_bytes", result.store_stats.resident_payload_bytes);
    store.set("full_payload_bytes", result.store_stats.full_payload_bytes);
    store.set("delta_ratio", result.store_stats.delta_ratio());
    store.set("lru_bytes", result.store_stats.lru_bytes);
    store.set("lru_entries", result.store_stats.lru_entries);
    store.set("lru_hit_rate", result.store_stats.lru_hit_rate());
    store.set("decoded_payloads", result.store_stats.decoded_payloads);
    // Async encode pipeline: pending_encodes is 0 after the runner's drain
    // barrier; the peak and the per-point residency array show how deep the
    // queue ran and how the raw-vs-delta split evolved during the units this
    // run executed (a resumed run starts both afresh).
    store.set("pending_encodes", result.store_stats.pending_encodes);
    store.set("peak_pending_encodes", result.store_stats.peak_pending_encodes);
    if (!result.store_series.empty()) {
      Json residency = Json::make_array();
      for (const StoreResidencyPoint& sample : result.store_series) {
        Json row = Json::make_object();
        row.set("round", sample.round);
        row.set("pending_encodes", sample.pending_encodes);
        row.set("raw_payloads", sample.raw_payloads);
        row.set("delta_payloads", sample.delta_payloads);
        row.set("resident_bytes", sample.resident_bytes);
        residency.as_array().push_back(std::move(row));
      }
      store.set("residency", std::move(residency));
    }
    summary.set("store", std::move(store));

    Json eval_cache = Json::make_object();
    eval_cache.set("hits", result.eval_cache_stats.hits);
    eval_cache.set("misses", result.eval_cache_stats.misses);
    eval_cache.set("entries", result.eval_cache_stats.entries);
    eval_cache.set("hit_rate", result.eval_cache_stats.hit_rate());
    eval_cache.set("invalidations", result.eval_cache_stats.invalidations);
    summary.set("eval_cache", std::move(eval_cache));

    // Per-phase timing breakdown, a view over the obs phase spans (see
    // sim/perf.hpp); setup, finalize and unaccounted split the rest of
    // wall_seconds. With metrics off only the counts stay.
    if (result.perf.prepares > 0) {
      Json perf = Json::make_object();
      perf.set("prepares", result.perf.prepares);
      perf.set("commits", result.perf.commits);
      perf.set("threads", result.prepare_threads);
      if (result.obs_enabled) {
        perf.set("encode_seconds", result.store_stats.encode_seconds);
        perf.set("tipsel_seconds", result.perf.tipsel_seconds);
        perf.set("train_seconds", result.perf.train_seconds);
        perf.set("eval_seconds", result.perf.eval_seconds);
        perf.set("commit_seconds", result.perf.commit_seconds);
        perf.set("total_seconds", result.perf.total_seconds);
        perf.set("setup_seconds", result.perf.setup_seconds);
        perf.set("finalize_seconds", result.perf.finalize_seconds);
        perf.set("unaccounted_seconds", result.wall_seconds - result.perf.setup_seconds -
                                            result.perf.total_seconds -
                                            result.perf.finalize_seconds);
        // Busy-time sum over (wall x threads): normalizes the busy/wall
        // bucket mix into one comparable number across thread counts.
        perf.set("utilization",
                 result.perf.utilization(std::max<std::size_t>(1, result.prepare_threads)));
      }
      summary.set("perf", std::move(perf));
    }

    // Obs metrics rollup (src/obs): whole-run registry deltas plus the
    // per-round samples. Timing-dependent, so it lives here in the summary
    // (like store.residency), never in the per-point series/JSONL.
    if (result.obs_enabled) {
      Json obs = metrics_snapshot_to_json(result.obs_totals);
      if (!result.obs_series.empty()) {
        Json rounds = Json::make_array();
        for (const ObsRoundPoint& sample : result.obs_series) {
          Json row = Json::make_object();
          row.set("round", sample.round);
          Json counters = Json::make_object();
          for (const auto& [name, value] : sample.delta.counters) {
            if (value > 0) counters.set(name, value);
          }
          row.set("counters", std::move(counters));
          rounds.as_array().push_back(std::move(row));
        }
        obs.set("rounds", std::move(rounds));
      }
      summary.set("obs", std::move(obs));
    }
  }

  if (result.attacked) {
    Json attack = Json::make_object();
    attack.set("attacker_transactions", result.attacker_transactions);
    if (result.junk_reference_fraction >= 0.0) {
      attack.set("junk_reference_fraction", result.junk_reference_fraction);
    }
    attack.set("poisoned_clients", result.poisoned_clients);
    if (result.mean_flip_rate >= 0.0) attack.set("mean_flip_rate", result.mean_flip_rate);
    if (result.mean_approved_poisoned >= 0.0) {
      attack.set("mean_approved_poisoned", result.mean_approved_poisoned);
    }
    if (!result.poison_communities.empty()) {
      Json communities = Json::make_array();
      for (const auto& [benign, poisoned] : result.poison_communities) {
        Json row = Json::make_object();
        row.set("benign", benign);
        row.set("poisoned", poisoned);
        communities.as_array().push_back(std::move(row));
      }
      attack.set("poison_communities", std::move(communities));
    }
    summary.set("attack", std::move(attack));
  }

  json.set("summary", std::move(summary));

  if (include_series) {
    Json series = Json::make_array();
    for (const ScenarioPoint& point : result.series) {
      series.as_array().push_back(point_to_json(point));
    }
    json.set("series", std::move(series));
  }
  return json;
}

void write_series_csv(const ScenarioResult& result, const std::string& path) {
  CsvWriter csv(path, {"round", "mean_accuracy", "mean_loss", "publishes", "dag_size",
                       "active_clients", "partitioned", "attacker_transactions", "flip_rate",
                       "approved_poisoned"});
  for (const ScenarioPoint& point : result.series) {
    csv.row({std::to_string(point.round), std::to_string(point.mean_accuracy),
             std::to_string(point.mean_loss), std::to_string(point.publishes),
             std::to_string(point.dag_size), std::to_string(point.active_clients),
             point.partitioned ? "1" : "0", std::to_string(point.attacker_transactions),
             point.has_attack_metrics ? std::to_string(point.flip_rate) : "",
             point.has_attack_metrics && point.approved_poisoned >= 0.0
                 ? std::to_string(point.approved_poisoned)
                 : ""});
  }
}

void write_series_jsonl(const ScenarioResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_series_jsonl: cannot open " + path);
  write_series_jsonl(result, out);
}

void write_series_jsonl(const ScenarioResult& result, std::ostream& out) {
  for (const ScenarioPoint& point : result.series) {
    Json row = point_to_json(point);
    row.set("scenario", result.scenario);
    row.set("algorithm", result.algorithm);
    row.set("seed", result.seed);
    out << row.dump() << "\n";
  }
}

}  // namespace specdag::scenario
