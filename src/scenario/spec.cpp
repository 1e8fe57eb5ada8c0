#include "scenario/spec.hpp"

#include <stdexcept>

namespace specdag::scenario {
namespace {

void check_known_keys(const Json& json, std::initializer_list<const char*> known,
                      const char* context) {
  for (const auto& [key, value] : json.as_object()) {
    bool found = false;
    for (const char* k : known) {
      if (key == k) {
        found = true;
        break;
      }
    }
    if (!found) {
      throw JsonError(std::string("unknown key \"") + key + "\" in " + context);
    }
  }
}

fl::SelectorKind selector_from_string(const std::string& name) {
  if (name == "accuracy") return fl::SelectorKind::kAccuracy;
  if (name == "random") return fl::SelectorKind::kRandom;
  if (name == "weighted") return fl::SelectorKind::kWeighted;
  throw JsonError("unknown selector \"" + name + "\"");
}

std::string selector_to_string(fl::SelectorKind kind) {
  switch (kind) {
    case fl::SelectorKind::kAccuracy: return "accuracy";
    case fl::SelectorKind::kRandom: return "random";
    case fl::SelectorKind::kWeighted: return "weighted";
  }
  throw JsonError("invalid selector kind");
}

tipsel::Normalization normalization_from_string(const std::string& name) {
  if (name == "standard") return tipsel::Normalization::kStandard;
  if (name == "dynamic") return tipsel::Normalization::kDynamic;
  throw JsonError("unknown normalization \"" + name + "\"");
}

std::string normalization_to_string(tipsel::Normalization normalization) {
  return normalization == tipsel::Normalization::kStandard ? "standard" : "dynamic";
}

tipsel::WalkStart walk_start_from_string(const std::string& name) {
  if (name == "genesis") return tipsel::WalkStart::kGenesis;
  if (name == "depth") return tipsel::WalkStart::kDepthSampled;
  throw JsonError("unknown walk_start \"" + name + "\"");
}

std::string walk_start_to_string(tipsel::WalkStart start) {
  return start == tipsel::WalkStart::kGenesis ? "genesis" : "depth";
}

fl::TrainConfig train_from_json(const Json& json) {
  check_known_keys(json,
                   {"local_epochs", "local_batches", "batch_size", "learning_rate",
                    "freeze_prefix_params", "batch"},
                   "client.train");
  fl::TrainConfig train;
  train.local_epochs = static_cast<std::size_t>(json.uint_or("local_epochs", train.local_epochs));
  train.local_batches =
      static_cast<std::size_t>(json.uint_or("local_batches", train.local_batches));
  train.batch_size = static_cast<std::size_t>(json.uint_or("batch_size", train.batch_size));
  train.learning_rate = json.number_or("learning_rate", train.learning_rate);
  train.freeze_prefix_params =
      static_cast<std::size_t>(json.uint_or("freeze_prefix_params", train.freeze_prefix_params));
  train.batch = static_cast<std::size_t>(json.uint_or("batch", train.batch));
  return train;
}

Json train_to_json(const fl::TrainConfig& train) {
  Json json = Json::make_object();
  json.set("local_epochs", train.local_epochs);
  json.set("local_batches", train.local_batches);
  json.set("batch_size", train.batch_size);
  json.set("learning_rate", train.learning_rate);
  if (train.freeze_prefix_params > 0) json.set("freeze_prefix_params", train.freeze_prefix_params);
  if (train.batch != fl::TrainConfig{}.batch) json.set("batch", train.batch);
  return json;
}

fl::DagClientConfig client_from_json(const Json& json, fl::DagClientConfig client) {
  check_known_keys(json,
                   {"alpha", "selector", "normalization", "num_parents", "walk_start",
                    "start_depth_min", "start_depth_max", "publish_gate", "publish_if_equal",
                    "reference_walks", "persistent_accuracy_cache", "train"},
                   "client");
  client.alpha = json.number_or("alpha", client.alpha);
  client.selector = selector_from_string(json.string_or("selector", selector_to_string(client.selector)));
  client.normalization = normalization_from_string(
      json.string_or("normalization", normalization_to_string(client.normalization)));
  client.num_parents = static_cast<std::size_t>(json.uint_or("num_parents", client.num_parents));
  client.walk_start =
      walk_start_from_string(json.string_or("walk_start", walk_start_to_string(client.walk_start)));
  client.start_depth_min =
      static_cast<std::size_t>(json.uint_or("start_depth_min", client.start_depth_min));
  client.start_depth_max =
      static_cast<std::size_t>(json.uint_or("start_depth_max", client.start_depth_max));
  client.publish_gate = json.bool_or("publish_gate", client.publish_gate);
  client.publish_if_equal = json.bool_or("publish_if_equal", client.publish_if_equal);
  client.reference_walks =
      static_cast<std::size_t>(json.uint_or("reference_walks", client.reference_walks));
  client.persistent_accuracy_cache =
      json.bool_or("persistent_accuracy_cache", client.persistent_accuracy_cache);
  if (const Json* train = json.find("train")) client.train = train_from_json(*train);
  return client;
}

Json client_to_json(const fl::DagClientConfig& client) {
  Json json = Json::make_object();
  json.set("alpha", client.alpha);
  json.set("selector", selector_to_string(client.selector));
  json.set("normalization", normalization_to_string(client.normalization));
  json.set("num_parents", client.num_parents);
  json.set("walk_start", walk_start_to_string(client.walk_start));
  json.set("start_depth_min", client.start_depth_min);
  json.set("start_depth_max", client.start_depth_max);
  json.set("publish_gate", client.publish_gate);
  json.set("publish_if_equal", client.publish_if_equal);
  json.set("reference_walks", client.reference_walks);
  json.set("persistent_accuracy_cache", client.persistent_accuracy_cache);
  json.set("train", train_to_json(client.train));
  return json;
}

DynamicsSpec dynamics_from_json(const Json& json) {
  check_known_keys(json, {"churn", "stragglers", "partition"}, "dynamics");
  DynamicsSpec dynamics;
  if (const Json* churn = json.find("churn")) {
    check_known_keys(*churn, {"fraction", "leave_round", "rejoin_round"}, "dynamics.churn");
    dynamics.churn.fraction = churn->number_or("fraction", 0.0);
    dynamics.churn.leave_round = static_cast<std::size_t>(churn->uint_or("leave_round", 0));
    dynamics.churn.rejoin_round = static_cast<std::size_t>(churn->uint_or("rejoin_round", 0));
  }
  if (const Json* stragglers = json.find("stragglers")) {
    check_known_keys(*stragglers, {"fraction", "slowdown", "pareto_shape"},
                     "dynamics.stragglers");
    dynamics.stragglers.fraction = stragglers->number_or("fraction", 0.0);
    dynamics.stragglers.slowdown = stragglers->number_or("slowdown", 4.0);
    dynamics.stragglers.pareto_shape = stragglers->number_or("pareto_shape", 1.5);
  }
  if (const Json* partition = json.find("partition")) {
    check_known_keys(*partition, {"num_groups", "by_cluster", "start_round", "heal_round"},
                     "dynamics.partition");
    dynamics.partition.num_groups = static_cast<std::size_t>(partition->uint_or("num_groups", 0));
    dynamics.partition.by_cluster = partition->bool_or("by_cluster", false);
    dynamics.partition.start_round = static_cast<std::size_t>(partition->uint_or("start_round", 0));
    dynamics.partition.heal_round = static_cast<std::size_t>(partition->uint_or("heal_round", 0));
  }
  return dynamics;
}

AttackSpec attacks_from_json(const Json& json) {
  check_known_keys(json, {"metrics_every", "random_weights", "label_flip"}, "attacks");
  AttackSpec attacks;
  attacks.metrics_every =
      static_cast<std::size_t>(json.uint_or("metrics_every", attacks.metrics_every));
  if (const Json* junk = json.find("random_weights")) {
    check_known_keys(*junk,
                     {"rate", "weight_stddev", "num_parents", "start_round", "stop_round"},
                     "attacks.random_weights");
    RandomWeightsAttackSpec& spec = attacks.random_weights;
    spec.rate = junk->number_or("rate", spec.rate);
    spec.weight_stddev = junk->number_or("weight_stddev", spec.weight_stddev);
    spec.num_parents = static_cast<std::size_t>(junk->uint_or("num_parents", spec.num_parents));
    spec.start_round = static_cast<std::size_t>(junk->uint_or("start_round", spec.start_round));
    spec.stop_round = static_cast<std::size_t>(junk->uint_or("stop_round", spec.stop_round));
  }
  if (const Json* flip = json.find("label_flip")) {
    check_known_keys(*flip,
                     {"fraction", "class_a", "class_b", "start_round", "stop_round"},
                     "attacks.label_flip");
    LabelFlipAttackSpec& spec = attacks.label_flip;
    spec.fraction = flip->number_or("fraction", spec.fraction);
    spec.class_a = static_cast<int>(flip->uint_or("class_a", static_cast<std::uint64_t>(spec.class_a)));
    spec.class_b = static_cast<int>(flip->uint_or("class_b", static_cast<std::uint64_t>(spec.class_b)));
    spec.start_round = static_cast<std::size_t>(flip->uint_or("start_round", spec.start_round));
    spec.stop_round = static_cast<std::size_t>(flip->uint_or("stop_round", spec.stop_round));
  }
  return attacks;
}

Json attacks_to_json(const AttackSpec& attacks) {
  Json json = Json::make_object();
  if (attacks.metrics_every > 0) json.set("metrics_every", attacks.metrics_every);
  if (attacks.random_weights.enabled()) {
    Json junk = Json::make_object();
    junk.set("rate", attacks.random_weights.rate);
    junk.set("weight_stddev", attacks.random_weights.weight_stddev);
    junk.set("num_parents", attacks.random_weights.num_parents);
    junk.set("start_round", attacks.random_weights.start_round);
    junk.set("stop_round", attacks.random_weights.stop_round);
    json.set("random_weights", std::move(junk));
  }
  if (attacks.label_flip.enabled()) {
    Json flip = Json::make_object();
    flip.set("fraction", attacks.label_flip.fraction);
    flip.set("class_a", static_cast<std::uint64_t>(attacks.label_flip.class_a));
    flip.set("class_b", static_cast<std::uint64_t>(attacks.label_flip.class_b));
    flip.set("start_round", attacks.label_flip.start_round);
    flip.set("stop_round", attacks.label_flip.stop_round);
    json.set("label_flip", std::move(flip));
  }
  return json;
}

store::StoreConfig store_from_json(const Json& json, store::StoreConfig store) {
  check_known_keys(json,
                   {"delta", "async_encode", "anchor_interval", "lru_mb", "eval_cache_shards"},
                   "store");
  store.delta = json.bool_or("delta", store.delta);
  store.async_encode = json.bool_or("async_encode", store.async_encode);
  store.anchor_interval =
      static_cast<std::size_t>(json.uint_or("anchor_interval", store.anchor_interval));
  store.lru_bytes =
      static_cast<std::size_t>(json.uint_or("lru_mb", store.lru_bytes >> 20)) << 20;
  store.eval_cache_shards =
      static_cast<std::size_t>(json.uint_or("eval_cache_shards", store.eval_cache_shards));
  return store;
}

Json store_to_json(const store::StoreConfig& store) {
  Json json = Json::make_object();
  json.set("delta", store.delta);
  json.set("async_encode", store.async_encode);
  json.set("anchor_interval", store.anchor_interval);
  json.set("lru_mb", store.lru_bytes >> 20);
  json.set("eval_cache_shards", store.eval_cache_shards);
  return json;
}

ObsSpec obs_from_json(const Json& json, ObsSpec obs) {
  check_known_keys(json, {"metrics", "trace", "metrics_out"}, "obs");
  obs.metrics = json.bool_or("metrics", obs.metrics);
  obs.trace = json.string_or("trace", obs.trace);
  obs.metrics_out = json.string_or("metrics_out", obs.metrics_out);
  return obs;
}

Json obs_to_json(const ObsSpec& obs) {
  Json json = Json::make_object();
  if (!obs.metrics) json.set("metrics", false);
  if (!obs.trace.empty()) json.set("trace", obs.trace);
  if (!obs.metrics_out.empty()) json.set("metrics_out", obs.metrics_out);
  return json;
}

CheckpointSpec checkpoint_from_json(const Json& json) {
  check_known_keys(json, {"every_n_rounds", "dir", "keep_last"}, "checkpoint");
  CheckpointSpec checkpoint;
  checkpoint.every_n_rounds =
      static_cast<std::size_t>(json.uint_or("every_n_rounds", checkpoint.every_n_rounds));
  checkpoint.dir = json.string_or("dir", checkpoint.dir);
  checkpoint.keep_last = static_cast<std::size_t>(json.uint_or("keep_last", checkpoint.keep_last));
  return checkpoint;
}

Json checkpoint_to_json(const CheckpointSpec& checkpoint) {
  Json json = Json::make_object();
  json.set("every_n_rounds", checkpoint.every_n_rounds);
  json.set("dir", checkpoint.dir);
  if (checkpoint.keep_last > 0) json.set("keep_last", checkpoint.keep_last);
  return json;
}

Json dynamics_to_json(const DynamicsSpec& dynamics) {
  Json json = Json::make_object();
  if (dynamics.churn.enabled()) {
    Json churn = Json::make_object();
    churn.set("fraction", dynamics.churn.fraction);
    churn.set("leave_round", dynamics.churn.leave_round);
    churn.set("rejoin_round", dynamics.churn.rejoin_round);
    json.set("churn", std::move(churn));
  }
  if (dynamics.stragglers.enabled()) {
    Json stragglers = Json::make_object();
    stragglers.set("fraction", dynamics.stragglers.fraction);
    stragglers.set("slowdown", dynamics.stragglers.slowdown);
    stragglers.set("pareto_shape", dynamics.stragglers.pareto_shape);
    json.set("stragglers", std::move(stragglers));
  }
  if (dynamics.partition.enabled()) {
    Json partition = Json::make_object();
    partition.set("num_groups", dynamics.partition.num_groups);
    partition.set("by_cluster", dynamics.partition.by_cluster);
    partition.set("start_round", dynamics.partition.start_round);
    partition.set("heal_round", dynamics.partition.heal_round);
    json.set("partition", std::move(partition));
  }
  return json;
}

}  // namespace

std::string to_string(SimKind kind) {
  return kind == SimKind::kRound ? "round" : "async";
}

std::string to_string(DatasetPreset preset) {
  switch (preset) {
    case DatasetPreset::kFmnistClustered: return "fmnist-clustered";
    case DatasetPreset::kFmnistRelaxed: return "fmnist-relaxed";
    case DatasetPreset::kFmnistByAuthor: return "fmnist-by-author";
    case DatasetPreset::kPoets: return "poets";
    case DatasetPreset::kCifar: return "cifar";
    case DatasetPreset::kFedproxSynthetic: return "fedprox-synthetic";
  }
  throw JsonError("invalid dataset preset");
}

std::string to_string(AlgorithmKind algorithm) {
  switch (algorithm) {
    case AlgorithmKind::kDag: return "dag";
    case AlgorithmKind::kFedAvg: return "fedavg";
    case AlgorithmKind::kFedProx: return "fedprox";
    case AlgorithmKind::kGossip: return "gossip";
  }
  throw JsonError("invalid algorithm kind");
}

SimKind sim_kind_from_string(const std::string& name) {
  if (name == "round") return SimKind::kRound;
  if (name == "async") return SimKind::kAsync;
  throw JsonError("unknown simulator \"" + name + "\" (expected \"round\" or \"async\")");
}

AlgorithmKind algorithm_from_string(const std::string& name) {
  if (name == "dag") return AlgorithmKind::kDag;
  if (name == "fedavg") return AlgorithmKind::kFedAvg;
  if (name == "fedprox") return AlgorithmKind::kFedProx;
  if (name == "gossip") return AlgorithmKind::kGossip;
  throw JsonError("unknown algorithm \"" + name +
                  "\" (expected dag, fedavg, fedprox, or gossip)");
}

DatasetPreset dataset_preset_from_string(const std::string& name) {
  if (name == "fmnist-clustered") return DatasetPreset::kFmnistClustered;
  if (name == "fmnist-relaxed") return DatasetPreset::kFmnistRelaxed;
  if (name == "fmnist-by-author") return DatasetPreset::kFmnistByAuthor;
  if (name == "poets") return DatasetPreset::kPoets;
  if (name == "cifar") return DatasetPreset::kCifar;
  if (name == "fedprox-synthetic") return DatasetPreset::kFedproxSynthetic;
  throw JsonError("unknown dataset preset \"" + name + "\"");
}

void ScenarioSpec::validate() const {
  if (rounds == 0) throw std::invalid_argument("scenario: rounds must be > 0");
  if (threads > kMaxThreads) {
    throw std::invalid_argument("scenario: threads must be <= " + std::to_string(kMaxThreads));
  }
  if (seed > (std::uint64_t{1} << 53)) {
    throw std::invalid_argument(
        "scenario: seed must be <= 2^53 so it round-trips exactly through JSON");
  }
  if (simulator == SimKind::kRound && dynamics.stragglers.enabled()) {
    throw std::invalid_argument(
        "scenario: stragglers need the async simulator (round-based execution "
        "has no per-client rates)");
  }
  if (simulator == SimKind::kRound && clients_per_round == 0) {
    throw std::invalid_argument("scenario: clients_per_round must be > 0");
  }
  if (broadcast_latency < 0.0) {
    throw std::invalid_argument("scenario: negative broadcast_latency");
  }
  const fl::TrainConfig& train = client.train;
  if (train.local_epochs == 0 || train.local_batches == 0 || train.batch_size == 0) {
    throw std::invalid_argument(
        "scenario: client.train local_epochs, local_batches and batch_size must be > 0");
  }
  if (!(train.learning_rate > 0.0)) {
    throw std::invalid_argument("scenario: client.train.learning_rate must be > 0");
  }
  if (client.num_parents == 0) {
    throw std::invalid_argument("scenario: client.num_parents must be > 0");
  }
  if (client.alpha < 0.0) throw std::invalid_argument("scenario: negative client.alpha");
  if (client.start_depth_min > client.start_depth_max) {
    throw std::invalid_argument(
        "scenario: client.start_depth_min must be <= client.start_depth_max");
  }
  if (dynamics.churn.enabled()) {
    if (dynamics.churn.fraction >= 1.0) {
      throw std::invalid_argument("scenario: churn.fraction must be < 1 (someone must stay)");
    }
    if (dynamics.churn.rejoin_round != 0 &&
        dynamics.churn.rejoin_round <= dynamics.churn.leave_round) {
      throw std::invalid_argument("scenario: churn.rejoin_round must be after leave_round");
    }
  }
  if (dynamics.stragglers.enabled()) {
    if (dynamics.stragglers.fraction > 1.0 || dynamics.stragglers.slowdown <= 0.0 ||
        dynamics.stragglers.pareto_shape <= 0.0) {
      throw std::invalid_argument("scenario: bad straggler parameters");
    }
  }
  if (dynamics.partition.enabled() &&
      dynamics.partition.heal_round != 0 &&
      dynamics.partition.heal_round <= dynamics.partition.start_round) {
    throw std::invalid_argument("scenario: partition.heal_round must be after start_round");
  }
  if (algorithm != AlgorithmKind::kDag) {
    if (simulator != SimKind::kRound) {
      throw std::invalid_argument(
          "scenario: the " + to_string(algorithm) +
          " baseline runs in synchronous rounds (simulator must be \"round\")");
    }
    if (dynamics.any()) {
      throw std::invalid_argument(
          "scenario: dynamics (churn/stragglers/partition) are DAG-network "
          "workloads; the baselines do not model them");
    }
    if (attacks.random_weights.enabled()) {
      throw std::invalid_argument(
          "scenario: the random-weights attack publishes DAG transactions; "
          "it requires algorithm \"dag\"");
    }
    if (community_metrics_every > 0) {
      throw std::invalid_argument(
          "scenario: community metrics derive from the DAG's approval graph; "
          "they require algorithm \"dag\"");
    }
  }
  if (algorithm == AlgorithmKind::kFedProx && proximal_mu <= 0.0) {
    throw std::invalid_argument("scenario: fedprox requires proximal_mu > 0");
  }
  if (attacks.random_weights.enabled()) {
    const RandomWeightsAttackSpec& junk = attacks.random_weights;
    if (junk.rate < 0.0 || junk.weight_stddev <= 0.0 || junk.num_parents == 0) {
      throw std::invalid_argument("scenario: bad random_weights attack parameters");
    }
    if (junk.stop_round != 0 && junk.stop_round <= junk.start_round) {
      throw std::invalid_argument(
          "scenario: random_weights.stop_round must be after start_round");
    }
  }
  if (attacks.label_flip.enabled()) {
    const LabelFlipAttackSpec& flip = attacks.label_flip;
    if (flip.fraction >= 1.0) {
      throw std::invalid_argument(
          "scenario: label_flip.fraction must be < 1 (someone must stay benign)");
    }
    if (flip.class_a == flip.class_b) {
      throw std::invalid_argument("scenario: label_flip classes must differ");
    }
    if (flip.stop_round != 0 && flip.stop_round <= flip.start_round) {
      throw std::invalid_argument("scenario: label_flip.stop_round must be after start_round");
    }
  }
  if (store.anchor_interval == 0) {
    throw std::invalid_argument("scenario: store.anchor_interval must be > 0");
  }
  if (store.eval_cache_shards == 0) {
    throw std::invalid_argument("scenario: store.eval_cache_shards must be > 0");
  }
  if (store.delta && store.lru_bytes < (std::size_t{1} << 20)) {
    // Without a real materialization cache every cold delta read re-decodes
    // its whole base cone — pathological at any scale worth running.
    throw std::invalid_argument("scenario: store.lru_mb must be >= 1 when delta is on");
  }
  if (checkpoint.enabled()) {
    if (checkpoint.dir.empty()) {
      throw std::invalid_argument(
          "scenario: checkpoint.dir is required when checkpointing is enabled");
    }
    if (algorithm != AlgorithmKind::kDag) {
      throw std::invalid_argument(
          "scenario: checkpoints capture DAG run state; they require algorithm \"dag\"");
    }
  }
  if (num_clients > 0 || samples_per_client > 0) {
    const bool resizable = dataset == DatasetPreset::kFmnistClustered ||
                           dataset == DatasetPreset::kFmnistRelaxed ||
                           dataset == DatasetPreset::kFmnistByAuthor ||
                           dataset == DatasetPreset::kFedproxSynthetic;
    if (!resizable) {
      throw std::invalid_argument(
          "scenario: num_clients/samples_per_client overrides are only supported "
          "for the fmnist and fedprox-synthetic presets");
    }
    if (samples_per_client > 0 && dataset == DatasetPreset::kFedproxSynthetic) {
      throw std::invalid_argument(
          "scenario: fedprox-synthetic draws per-client sample counts from its "
          "lognormal; only num_clients can be overridden");
    }
  }
}

ScenarioSpec spec_from_json(const Json& json) {
  check_known_keys(json,
                   {"name", "description", "dataset", "paper_scale", "simulator", "rounds",
                    "clients_per_round", "visibility_delay_rounds", "broadcast_latency",
                    "num_clients", "samples_per_client", "seed", "parallel_prepare", "threads",
                    "evaluate_consensus", "community_metrics_every", "client", "dynamics",
                    "store", "algorithm", "proximal_mu", "attacks",
                    "record_client_accuracies", "obs", "checkpoint"},
                   "scenario");
  ScenarioSpec spec;
  spec.name = json.string_or("name", spec.name);
  spec.description = json.string_or("description", spec.description);
  spec.dataset = dataset_preset_from_string(json.string_or("dataset", to_string(spec.dataset)));
  spec.paper_scale = json.bool_or("paper_scale", spec.paper_scale);
  spec.simulator = sim_kind_from_string(json.string_or("simulator", to_string(spec.simulator)));
  spec.rounds = static_cast<std::size_t>(json.uint_or("rounds", spec.rounds));
  spec.clients_per_round =
      static_cast<std::size_t>(json.uint_or("clients_per_round", spec.clients_per_round));
  spec.visibility_delay_rounds = static_cast<std::size_t>(
      json.uint_or("visibility_delay_rounds", spec.visibility_delay_rounds));
  spec.broadcast_latency = json.number_or("broadcast_latency", spec.broadcast_latency);
  spec.num_clients = static_cast<std::size_t>(json.uint_or("num_clients", spec.num_clients));
  spec.samples_per_client =
      static_cast<std::size_t>(json.uint_or("samples_per_client", spec.samples_per_client));
  spec.seed = json.uint_or("seed", spec.seed);
  spec.parallel_prepare = json.bool_or("parallel_prepare", spec.parallel_prepare);
  spec.threads = static_cast<std::size_t>(json.uint_or("threads", spec.threads));
  spec.evaluate_consensus = json.bool_or("evaluate_consensus", spec.evaluate_consensus);
  spec.community_metrics_every = static_cast<std::size_t>(
      json.uint_or("community_metrics_every", spec.community_metrics_every));
  spec.algorithm = algorithm_from_string(json.string_or("algorithm", to_string(spec.algorithm)));
  spec.proximal_mu = json.number_or("proximal_mu", spec.proximal_mu);
  spec.record_client_accuracies =
      json.bool_or("record_client_accuracies", spec.record_client_accuracies);
  if (const Json* attacks = json.find("attacks")) {
    spec.attacks = attacks_from_json(*attacks);
  }
  if (const Json* client = json.find("client")) {
    spec.client = client_from_json(*client, spec.client);
  }
  if (const Json* dynamics = json.find("dynamics")) {
    spec.dynamics = dynamics_from_json(*dynamics);
  }
  if (const Json* store = json.find("store")) {
    spec.store = store_from_json(*store, spec.store);
  }
  if (const Json* obs = json.find("obs")) {
    spec.obs = obs_from_json(*obs, spec.obs);
  }
  if (const Json* checkpoint = json.find("checkpoint")) {
    spec.checkpoint = checkpoint_from_json(*checkpoint);
  }
  spec.validate();
  return spec;
}

Json spec_to_json(const ScenarioSpec& spec) {
  Json json = Json::make_object();
  json.set("name", spec.name);
  if (!spec.description.empty()) json.set("description", spec.description);
  json.set("dataset", to_string(spec.dataset));
  if (spec.paper_scale) json.set("paper_scale", true);
  json.set("simulator", to_string(spec.simulator));
  json.set("rounds", spec.rounds);
  if (spec.simulator == SimKind::kRound) {
    json.set("clients_per_round", spec.clients_per_round);
    if (spec.visibility_delay_rounds > 0) {
      json.set("visibility_delay_rounds", spec.visibility_delay_rounds);
    }
  } else {
    json.set("broadcast_latency", spec.broadcast_latency);
  }
  if (spec.num_clients > 0) json.set("num_clients", spec.num_clients);
  if (spec.samples_per_client > 0) json.set("samples_per_client", spec.samples_per_client);
  json.set("seed", spec.seed);
  if (!spec.parallel_prepare) json.set("parallel_prepare", false);
  if (spec.threads > 0) json.set("threads", spec.threads);
  if (spec.evaluate_consensus) json.set("evaluate_consensus", true);
  if (spec.community_metrics_every > 0) {
    json.set("community_metrics_every", spec.community_metrics_every);
  }
  if (spec.algorithm != AlgorithmKind::kDag) {
    json.set("algorithm", to_string(spec.algorithm));
    if (spec.algorithm == AlgorithmKind::kFedProx) json.set("proximal_mu", spec.proximal_mu);
  }
  if (spec.record_client_accuracies) json.set("record_client_accuracies", true);
  // metrics_every alone is meaningful: a clean control run probing the
  // label-flip schedule without an attack.
  if (spec.attacks.any() || spec.attacks.metrics_every > 0) {
    json.set("attacks", attacks_to_json(spec.attacks));
  }
  json.set("client", client_to_json(spec.client));
  if (spec.dynamics.any()) json.set("dynamics", dynamics_to_json(spec.dynamics));
  json.set("store", store_to_json(spec.store));
  // Only non-default obs settings are emitted, keeping existing golden
  // outputs (and specs that never heard of obs) byte-stable.
  if (!spec.obs.metrics || !spec.obs.trace.empty() || !spec.obs.metrics_out.empty()) {
    json.set("obs", obs_to_json(spec.obs));
  }
  // Same byte-stability rule: the checkpoint block only appears when on.
  if (spec.checkpoint.enabled()) {
    json.set("checkpoint", checkpoint_to_json(spec.checkpoint));
  }
  return json;
}

}  // namespace specdag::scenario
