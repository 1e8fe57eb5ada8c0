#include "scenario/registry.hpp"

#include <stdexcept>

namespace specdag::scenario {
namespace {

// The specs (and the figure grids under examples/figures/) are the one
// source of training hyperparameters; the dataset presets carry only data
// and model. Table 1 (paper §5.2) fixes, per dataset:
//            FMNIST-clustered   Poets   CIFAR-100
//   rounds         100           100       100
//   clients/round   10            10        10
//   local epochs     1             1         5
//   local batches   10            35        45
//   batch size      10            10        10
//   optimizer   SGD(0.05)     SGD(0.8)  SGD(0.01)
//
// The specs keep the per-client training column verbatim as `client.train`
// ({epochs, batches, batch size, learning rate}; the CIFAR column lives in
// fig9_cifar.json and table2_cifar.json) and shorten the horizon and the
// data scale so the suite completes on CPU.
std::vector<ScenarioSpec> make_builtins() {
  std::vector<ScenarioSpec> scenarios;

  {
    // The Figure 5/6 baseline: three class-group clusters, accuracy-biased
    // walks with the paper's alpha = 10 sweet spot.
    ScenarioSpec spec;
    spec.name = "fmnist-clustered";
    spec.description = "FMNIST-clustered baseline (paper Figures 5/6 regime)";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 40;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fmnist-relaxed";
    spec.description = "Relaxed clustering: 15-20% foreign-cluster data (Figure 8)";
    spec.dataset = DatasetPreset::kFmnistRelaxed;
    spec.rounds = 40;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "poets";
    spec.description = "Poets next-char LSTM, two language clusters (paper SS5.1.2)";
    spec.dataset = DatasetPreset::kPoets;
    spec.rounds = 30;
    spec.client.train = {1, 35, 10, 0.8};
    scenarios.push_back(spec);
  }
  {
    ScenarioSpec spec;
    spec.name = "fedprox-async";
    spec.description = "FedProx synthetic(0.5,0.5) on the event-driven simulator";
    spec.dataset = DatasetPreset::kFedproxSynthetic;
    spec.simulator = SimKind::kAsync;
    spec.rounds = 30;  // virtual-time horizon
    spec.broadcast_latency = 0.5;
    spec.client.train = {2, 20, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // New workload: delayed broadcast on the round simulator (SS5.3.5
    // network caveat; examples/figures/ablation_visibility_delay.json sweeps
    // the delay).
    ScenarioSpec spec;
    spec.name = "visibility-delay";
    spec.description = "Slow broadcast: transactions become visible 3 rounds late";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 40;
    spec.visibility_delay_rounds = 3;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // New workload: client churn. A third of the network leaves at round 10
    // and rejoins at round 25; specialization must survive the gap.
    ScenarioSpec spec;
    spec.name = "churn";
    spec.description = "Client churn: 30% leave at round 10, rejoin at round 25";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 40;
    spec.client.train = {1, 10, 10, 0.05};
    spec.dynamics.churn = {0.3, 10, 25};
    scenarios.push_back(spec);
  }
  {
    // New workload: heavy-tailed device speeds on the async simulator. The
    // fast majority keeps publishing while stragglers contribute stale
    // updates at Pareto-distributed intervals.
    ScenarioSpec spec;
    spec.name = "stragglers";
    spec.description = "Stragglers: 30% of clients on 6x Pareto(1.5) training clocks";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.simulator = SimKind::kAsync;
    spec.rounds = 30;
    spec.broadcast_latency = 0.5;
    spec.client.train = {1, 10, 10, 0.05};
    spec.dynamics.stragglers = {0.3, 6.0, 1.5};
    scenarios.push_back(spec);
  }
  {
    // New workload: the §5.3.5 / Figure 15 scalability regime at paper
    // scale — 2000 concurrently training clients on the event-driven
    // simulator. Depth-sampled walk starts bound the walk cost (Popov's
    // 15-25 window) and the payload store keeps memory sub-linear: deltas
    // against the averaged parents plus a small materialization LRU.
    // Run with store.delta=false to measure the full-vector baseline.
    ScenarioSpec spec;
    spec.name = "scale-2k";
    spec.description = "2000 async clients, delta-encoded payload store (SS5.3.5 scale)";
    spec.dataset = DatasetPreset::kFmnistByAuthor;
    spec.simulator = SimKind::kAsync;
    spec.rounds = 3;  // virtual-time horizon: ~3 training steps per client
    spec.broadcast_latency = 0.3;
    spec.num_clients = 2000;
    spec.samples_per_client = 30;
    spec.client.selector = fl::SelectorKind::kWeighted;
    spec.client.alpha = 1.0;
    spec.client.walk_start = tipsel::WalkStart::kDepthSampled;
    // One light SGD step per publication: the workload stresses transaction
    // throughput and memory, not learning progress, and small local updates
    // are the regime where delta encoding pays (converged deployments).
    spec.client.train = {1, 1, 10, 0.0005};
    spec.store.delta = true;
    // Encode deltas off the commit path (PR 5): the codec was the commit
    // phase's dominant cost at this scale. `specdag run scale-2k
    // --sync-encode` restores inline encoding; results are bit-identical
    // either way.
    spec.store.async_encode = true;
    // Longer delta chains before an anchor: at this scale raw anchors are
    // the dominant resident cost, and the 93%+ LRU hit rate keeps the
    // deeper reconstruction cheap.
    spec.store.anchor_interval = 16;
    spec.store.lru_bytes = std::size_t{16} << 20;
    scenarios.push_back(spec);
  }
  {
    // New workload: a network partition aligned with the data clusters from
    // round 5 to round 25. During the partition each cluster trains on its
    // own sub-DAG; after healing the walks must reconcile the lineages.
    ScenarioSpec spec;
    spec.name = "partition";
    spec.description = "Network partition by cluster, rounds 5-25, then heals";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 40;
    spec.client.train = {1, 10, 10, 0.05};
    spec.dynamics.partition = {3, true, 5, 25};
    scenarios.push_back(spec);
  }

  // --- paper figures and tables -------------------------------------------
  // Each scenario is the base configuration of one figure/table; its sweep
  // grid under examples/figures/ varies the remaining axis (dataset,
  // algorithm, alpha, ...) over this base.
  {
    // Figure 9: per-client accuracy distributions, DAG vs FedAvg. The grids
    // fig9_*.json vary `algorithm`, one grid per dataset; the recorded
    // per-client accuracies supply the quartile boxes.
    ScenarioSpec spec;
    spec.name = "fig9-fedavg-vs-dag";
    spec.description = "Figure 9 base: per-client accuracy distributions (DAG side)";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 100;
    spec.record_client_accuracies = true;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Figures 10/11: accuracy and loss per round on the FedProx synthetic
    // dataset; fig10_11_fedprox.json runs algorithm in {dag, fedavg, fedprox}.
    ScenarioSpec spec;
    spec.name = "fig10-11-fedprox";
    spec.description = "Figures 10/11 base: synthetic(0.5,0.5), DAG vs FedAvg vs FedProx";
    spec.dataset = DatasetPreset::kFedproxSynthetic;
    spec.rounds = 100;
    spec.proximal_mu = 1.0;  // the FedProx paper's mu for this dataset
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Figures 12/13/14: flipped-label poisoning on the author split. Clean
    // for the first half, 3<->8 flipped for 20% of clients in the second;
    // the flip-rate / poisoned-approval probes run every round of the
    // attack phase. The fig12_13_*.json grids vary the fraction and the tip
    // selector.
    ScenarioSpec spec;
    spec.name = "fig12-14-poisoning";
    spec.description = "Figures 12-14: mid-run flipped-label poisoning (3<->8, 20%)";
    spec.dataset = DatasetPreset::kFmnistByAuthor;
    spec.rounds = 80;
    spec.client.train = {1, 10, 10, 0.05};
    spec.attacks.label_flip = {0.2, 3, 8, 40, 0};
    spec.attacks.metrics_every = 1;
    scenarios.push_back(spec);
  }
  {
    // Figure 15: walk cost vs concurrently active clients. Depth-sampled
    // walk starts (Popov's 15-25) and no cross-round evaluation cache, so
    // every walk pays its full cost; fig15_scalability.json varies
    // clients_per_round.
    ScenarioSpec spec;
    spec.name = "fig15-scalability";
    spec.description = "Figure 15: biased-walk cost, depth-sampled starts, no eval cache";
    spec.dataset = DatasetPreset::kFmnistByAuthor;
    spec.rounds = 50;
    spec.clients_per_round = 10;
    spec.num_clients = 60;
    spec.samples_per_client = 80;
    spec.client.walk_start = tipsel::WalkStart::kDepthSampled;
    spec.client.start_depth_min = 15;
    spec.client.start_depth_max = 25;
    spec.client.persistent_accuracy_cache = false;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Table 2: approval pureness after training; the table2_*.json grids
    // also run the poets and cifar presets over this base.
    ScenarioSpec spec;
    spec.name = "table2-pureness";
    spec.description = "Table 2 base: approval pureness after 100 rounds";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 100;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }

  // --- ablations ----------------------------------------------------------
  {
    // Broadcast latency vs specialization on the event-driven simulator:
    // zero latency collapses the tip set towards a chain; the grid sweeps
    // the latency from 0 upward.
    ScenarioSpec spec;
    spec.name = "ablation-async-latency";
    spec.description = "Ablation: async broadcast latency sustains DAG width";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.simulator = SimKind::kAsync;
    spec.rounds = 30;
    spec.broadcast_latency = 0.3;
    spec.num_clients = 15;
    spec.samples_per_client = 100;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Decentralized alternatives on clustered non-IID data; the grid runs
    // algorithm in {dag, gossip, fedavg}.
    ScenarioSpec spec;
    spec.name = "ablation-baselines";
    spec.description = "Ablation: DAG vs gossip learning vs FedAvg on clustered data";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 80;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Approvals per transaction (paper: 2); the grid sweeps num_parents.
    ScenarioSpec spec;
    spec.name = "ablation-num-parents";
    spec.description = "Ablation: approvals per transaction (paper fixes 2)";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 80;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Partial-layer training (paper future work): the base freezes the
    // feature layers and trains only the classifier head; the grid
    // compares against freeze_prefix_params = 0.
    ScenarioSpec spec;
    spec.name = "ablation-partial-training";
    spec.description = "Ablation: head-only training vs full training";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 80;
    spec.client.train = {1, 10, 10, 0.05};
    spec.client.train.freeze_prefix_params = 2;
    scenarios.push_back(spec);
  }
  {
    // The publish-if-better gate (paper §4.1); the grid compares gate off.
    ScenarioSpec spec;
    spec.name = "ablation-publish-gate";
    spec.description = "Ablation: the publish-if-better gate filters regressions";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 80;
    spec.client.train = {1, 10, 10, 0.05};
    scenarios.push_back(spec);
  }
  {
    // Random-weights attack (paper §4.4): one junk transaction per round
    // from round 0; the grid sweeps the rate. evaluate_consensus supplies
    // the honest-consensus accuracy, the attack summary the junk-reference
    // takeover fraction.
    ScenarioSpec spec;
    spec.name = "ablation-random-weights";
    spec.description = "Ablation: random-weight junk transactions vs the accuracy walk";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 60;
    spec.evaluate_consensus = true;
    spec.client.train = {1, 10, 10, 0.05};
    spec.attacks.random_weights = {1.0, 0.1, 2, 0, 0};
    scenarios.push_back(spec);
  }

  {
    // Perf workload: cumulative-weight-biased walks on a DAG that keeps
    // growing (the gate is off, so every prepare publishes). Training is one
    // tiny SGD step — wall clock is dominated by tip selection, which makes
    // this the regression canary for the incremental weight index and the
    // parallel prepare phase. CI runs it as the perf smoke; scale it up with
    // --rounds/--clients/--threads for real measurements.
    ScenarioSpec spec;
    spec.name = "walk-bench";
    spec.description = "Perf: weighted walks on a growing DAG (weight-index canary)";
    spec.dataset = DatasetPreset::kFmnistByAuthor;
    spec.rounds = 25;
    spec.clients_per_round = 20;
    spec.num_clients = 40;
    spec.samples_per_client = 30;
    spec.client.selector = fl::SelectorKind::kWeighted;
    spec.client.alpha = 1.0;
    spec.client.publish_gate = false;
    spec.client.train = {1, 1, 10, 0.0005};
    scenarios.push_back(spec);
  }

  // --- CI smokes ----------------------------------------------------------
  {
    // Tiny adversarial run for CI: label flip mid-run with per-round probes.
    ScenarioSpec spec;
    spec.name = "poisoning-smoke";
    spec.description = "CI smoke: tiny label-flip attack with per-round probes";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.rounds = 6;
    spec.clients_per_round = 3;
    spec.num_clients = 6;
    spec.samples_per_client = 40;
    spec.client.train = {1, 4, 8, 0.05};
    spec.attacks.label_flip = {0.34, 3, 8, 2, 0};
    spec.attacks.metrics_every = 1;
    scenarios.push_back(spec);
  }
  {
    // Tiny baseline run for CI: the fedavg backend behind the runner.
    ScenarioSpec spec;
    spec.name = "fedavg-smoke";
    spec.description = "CI smoke: tiny FedAvg run through the scenario runner";
    spec.dataset = DatasetPreset::kFmnistClustered;
    spec.algorithm = AlgorithmKind::kFedAvg;
    spec.rounds = 5;
    spec.clients_per_round = 3;
    spec.num_clients = 6;
    spec.samples_per_client = 40;
    spec.evaluate_consensus = true;
    spec.client.train = {1, 4, 8, 0.05};
    scenarios.push_back(spec);
  }

  for (const ScenarioSpec& spec : scenarios) spec.validate();
  return scenarios;
}

}  // namespace

const std::vector<ScenarioSpec>& builtin_scenarios() {
  static const std::vector<ScenarioSpec> scenarios = make_builtins();
  return scenarios;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

ScenarioSpec get_scenario(const std::string& name) {
  if (const ScenarioSpec* spec = find_scenario(name)) return *spec;
  std::string known;
  for (const ScenarioSpec& spec : builtin_scenarios()) {
    if (!known.empty()) known += ", ";
    known += spec.name;
  }
  throw std::invalid_argument("unknown scenario \"" + name + "\" (known: " + known + ")");
}

}  // namespace specdag::scenario
