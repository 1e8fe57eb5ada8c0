// Declarative description of one experiment: dataset preset, model (implied
// by the preset), simulator kind and hyperparameters, tip-selection/client
// configuration, and a `dynamics` block for network-dynamics workloads
// (churn, stragglers, partitions). A spec is plain data — parse it from
// JSON, tweak it programmatically, hand it to scenario::run_scenario().
//
// JSON schema (all keys optional unless noted; defaults in ScenarioSpec):
//   {
//     "name": "my-experiment",
//     "dataset": "fmnist-clustered" | "fmnist-relaxed" | "fmnist-by-author"
//              | "poets" | "cifar" | "fedprox-synthetic",
//     "simulator": "round" | "async",
//     "rounds": 40,                  // async: virtual-time horizon
//     "clients_per_round": 10,       // round simulator only
//     "visibility_delay_rounds": 0,  // round simulator only
//     "broadcast_latency": 0.5,     // async simulator only
//     "num_clients": 0,              // 0 = preset default (fmnist/fedprox)
//     "samples_per_client": 0,       // 0 = preset default (fmnist only)
//     "seed": 42,
//     "threads": 0,                  // prepare workers: 0 = hardware, 1 = serial
//     "client": {
//       "alpha": 10, "selector": "accuracy" | "random" | "weighted",
//       "normalization": "standard" | "dynamic", "num_parents": 2,
//       "walk_start": "genesis" | "depth", "start_depth_min": 15,
//       "start_depth_max": 25, "publish_gate": true,
//       "publish_if_equal": true, "reference_walks": 1,
//       "train": {"local_epochs": 1, "local_batches": 10,
//                  "batch_size": 10, "learning_rate": 0.05,
//                  "batch": 16}   // fused training lanes; 0 = all scalar
//     },
//     "dynamics": {
//       "churn":      {"fraction": 0.3, "leave_round": 10, "rejoin_round": 25},
//       "stragglers": {"fraction": 0.3, "slowdown": 6, "pareto_shape": 1.5},
//       "partition":  {"num_groups": 3, "by_cluster": true,
//                      "start_round": 5, "heal_round": 25}
//     },
//     "store": {            // model payload store (src/store)
//       "delta": true,      // delta-encode payloads (false = full vectors)
//       "async_encode": false,  // encode deltas on background workers
//       "encode_threads": 1,    // encode pool size (0 = hardware threads)
//       "anchor_interval": 8, "lru_mb": 64, "eval_cache_shards": 16
//     },
//     "algorithm": "dag" | "fedavg" | "fedprox" | "gossip",
//     "proximal_mu": 1.0,            // fedprox only
//     "attacks": {                   // adversary schedules (attacks.hpp)
//       "metrics_every": 1,
//       "random_weights": {"rate": 1.0, "weight_stddev": 0.1,
//                           "num_parents": 2, "start_round": 10, "stop_round": 0},
//       "label_flip": {"fraction": 0.2, "class_a": 3, "class_b": 8,
//                       "start_round": 40, "stop_round": 0}
//     },
//     "record_client_accuracies": false,  // per-client accuracy distributions
//     "community_metrics_every": 0,  // track Louvain metrics every N rounds
//     "obs": {                       // observability (src/obs)
//       "metrics": true,             // counters/histograms -> summary.obs
//       "trace": ""                  // Perfetto trace output path ("" = off)
//     },
//     "checkpoint": {                // periodic run snapshots (src/snapshot)
//       "every_n_rounds": 5,         // 0 = checkpointing off
//       "dir": "ckpt",               // required when enabled
//       "keep_last": 2               // prune older checkpoints; 0 = keep all
//     }
//   }
#pragma once

#include "fl/dag_client.hpp"
#include "scenario/attacks.hpp"
#include "scenario/config.hpp"
#include "store/model_store.hpp"

namespace specdag::scenario {

enum class SimKind { kRound, kAsync };

// Which learning algorithm the runner executes. kDag is the paper's
// contribution; the rest are the comparison baselines of Figures 9-11 and
// §3.2, run behind the same ScenarioResult surface (see baselines.hpp).
enum class AlgorithmKind { kDag, kFedAvg, kFedProx, kGossip };

enum class DatasetPreset {
  kFmnistClustered,
  kFmnistRelaxed,
  kFmnistByAuthor,
  kPoets,
  kCifar,
  kFedproxSynthetic,
};

// Client churn: at `leave_round` a seed-derived `fraction` of the clients
// leaves the network; at `rejoin_round` (0 = never) they rejoin.
struct ChurnSpec {
  double fraction = 0.0;
  std::size_t leave_round = 0;
  std::size_t rejoin_round = 0;

  bool enabled() const { return fraction > 0.0; }
};

// Stragglers (async simulator only): a seed-derived `fraction` of the
// clients gets a heavy-tailed training clock — mean step interval
// slowdown * Pareto(pareto_shape) (scale 1), so a shape near 1 produces the
// extreme laggards real federated deployments see.
struct StragglerSpec {
  double fraction = 0.0;
  double slowdown = 4.0;
  double pareto_shape = 1.5;

  bool enabled() const { return fraction > 0.0; }
};

// Network partition: from `start_round` until `heal_round` the clients are
// split into `num_groups` groups that cannot see each other's new
// transactions. `by_cluster` groups by ground-truth cluster (modeling a
// geo-partition aligned with data distribution); otherwise round-robin.
struct PartitionSpec {
  std::size_t num_groups = 0;
  bool by_cluster = false;
  std::size_t start_round = 0;
  std::size_t heal_round = 0;

  bool enabled() const { return num_groups > 1; }
};

struct DynamicsSpec {
  ChurnSpec churn;
  StragglerSpec stragglers;
  PartitionSpec partition;

  bool any() const {
    return churn.enabled() || stragglers.enabled() || partition.enabled();
  }
};

// Observability controls (src/obs). Metrics are on by default — they are
// cheap and feed summary.obs; tracing writes a Chrome trace-event /
// Perfetto-compatible JSON file and is enabled by giving it a path (the
// `specdag run --trace` flag sets the same field). Neither affects results:
// runs are bit-identical with any combination of these.
struct ObsSpec {
  bool metrics = true;
  std::string trace;        // empty = no trace
  // Prometheus text-exposition export of the run's metric totals (the
  // `specdag run --metrics-out` flag sets the same field). Empty = no file.
  std::string metrics_out;
};

// Periodic checkpointing (src/snapshot): every `every_n_rounds` completed
// units the runner drains the store's async encode pipeline (the quiescent
// point) and writes <dir>/checkpoint-NNNNNN.ckpt — a versioned, checksummed
// snapshot of the full run state plus the spec itself, so
// `specdag run --resume <ckpt>` continues the run bit-exactly from there.
struct CheckpointSpec {
  std::size_t every_n_rounds = 0;  // 0 = checkpointing off
  std::string dir;                 // required when enabled
  std::size_t keep_last = 0;       // prune older checkpoint files; 0 = keep all

  bool enabled() const { return every_n_rounds > 0; }
};

struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;
  DatasetPreset dataset = DatasetPreset::kFmnistClustered;
  bool paper_scale = false;
  SimKind simulator = SimKind::kRound;
  // Round simulator: number of rounds. Async simulator: virtual-time
  // horizon (the runner records one series point per unit of virtual time).
  std::size_t rounds = 40;
  std::size_t clients_per_round = 10;
  std::size_t visibility_delay_rounds = 0;
  double broadcast_latency = 0.5;
  // Dataset-size overrides; 0 keeps the preset default. Supported for the
  // fmnist presets (both) and fedprox-synthetic (num_clients only).
  std::size_t num_clients = 0;
  std::size_t samples_per_client = 0;
  std::uint64_t seed = 42;
  bool parallel_prepare = true;
  // Worker threads for the simulators' parallel prepare phase (round: the
  // per-round client batch; async: serially-equivalent step batches).
  // 0 = one per hardware thread, 1 = serial. Bit-identical results across
  // values — this is a wall-clock knob, not a semantic one.
  std::size_t threads = 0;
  // Evaluate every client's personalized consensus model at the end (one
  // biased walk + test-set evaluation per client — the expensive metric).
  bool evaluate_consensus = false;
  // When > 0, every N-th series point additionally carries Louvain community
  // metrics over the client graph (modularity, #communities,
  // misclassification vs ground-truth clusters) — the Figure 5 curves.
  std::size_t community_metrics_every = 0;
  // Which algorithm runs the experiment. Non-DAG backends require the round
  // simulator and support dataset presets, label-flip attacks, and the
  // record_client_accuracies distributions, but no DAG-specific knobs
  // (dynamics, store, random-weight attacks, community metrics).
  AlgorithmKind algorithm = AlgorithmKind::kDag;
  double proximal_mu = 1.0;  // FedProx proximal term (fedprox backend only)
  // Record the per-client trained/evaluated accuracies of every series point
  // (the Figure 9 distribution data). Off by default: it grows the series by
  // one double per active client per round.
  bool record_client_accuracies = false;
  fl::DagClientConfig client;
  DynamicsSpec dynamics;
  // Adversary schedules: mid-run random-weight junk and flipped-label
  // poisoning with start/stop windows (see scenario/attacks.hpp).
  AttackSpec attacks;
  // Model payload store: delta encoding, materialization LRU, eval-cache
  // sharding (see src/store/model_store.hpp).
  store::StoreConfig store;
  // Observability: metrics rollup and optional Perfetto trace (src/obs).
  ObsSpec obs;
  // Periodic run snapshots for crash-safe resume and deterministic replay
  // (src/snapshot).
  CheckpointSpec checkpoint;

  // Throws std::invalid_argument when the combination is not runnable
  // (e.g. stragglers on the round simulator).
  void validate() const;
};

// Enum <-> string helpers (throw JsonError on unknown names).
std::string to_string(SimKind kind);
std::string to_string(DatasetPreset preset);
std::string to_string(AlgorithmKind algorithm);
SimKind sim_kind_from_string(const std::string& name);
DatasetPreset dataset_preset_from_string(const std::string& name);
AlgorithmKind algorithm_from_string(const std::string& name);

// Deserialization rejects unknown keys (typo safety for experiment configs).
ScenarioSpec spec_from_json(const Json& json);
Json spec_to_json(const ScenarioSpec& spec);

}  // namespace specdag::scenario
