#include "sim/experiment.hpp"

namespace specdag::sim {
namespace {

SimulatorConfig base_sim(std::uint64_t seed) {
  SimulatorConfig sim;
  sim.rounds = 100;           // Table 1
  sim.clients_per_round = 10; // Table 1
  sim.seed = seed;
  sim.client.alpha = 10.0;
  sim.client.selector = fl::SelectorKind::kAccuracy;
  sim.client.walk_start = tipsel::WalkStart::kGenesis;
  return sim;
}

// The options' size overrides on top of a dataset config's sizes.
template <typename DataConfig>
void apply_sizes(const PresetOptions& options, DataConfig& config) {
  if (options.num_clients > 0) config.num_clients = options.num_clients;
  if (options.samples_per_client > 0) config.samples_per_client = options.samples_per_client;
}

// Synthetic-digits sizes: `samples_per_client` by default, the paper's
// 28x28 images and 100 x 120 samples at paper scale, then the overrides.
data::SyntheticDigitsConfig digits_config(const PresetOptions& options,
                                          std::size_t samples_per_client) {
  data::SyntheticDigitsConfig config;
  config.seed = options.seed;
  config.samples_per_client = samples_per_client;
  if (options.paper_scale) {
    config.image_size = 28;
    config.num_clients = 100;
    config.samples_per_client = 120;
  }
  apply_sizes(options, config);
  return config;
}

// The FMNIST presets share model and hyperparameters.
ExperimentPreset digits_preset(std::string name, data::FederatedDataset dataset,
                               const PresetOptions& options) {
  ExperimentPreset preset;
  preset.name = std::move(name);
  preset.dataset = std::move(dataset);
  // Compact member of the paper's CNN family by default; the paper-exact
  // 28x28/32/64/2048 CNN at paper scale.
  preset.factory = options.paper_scale
                       ? make_femnist_cnn_paper()
                       : make_mlp_factory(shape_numel(preset.dataset.element_shape), 32, 10);
  preset.sim = base_sim(options.seed);
  preset.sim.client.train = {1, 10, 10, 0.05};  // Table 1: FMNIST column
  return preset;
}

}  // namespace

ExperimentPreset fmnist_clustered_preset(const PresetOptions& options) {
  return digits_preset("fmnist-clustered",
                       data::make_fmnist_clustered(digits_config(options, 60)), options);
}

ExperimentPreset fmnist_relaxed_preset(const PresetOptions& options) {
  data::SyntheticDigitsConfig data_config = digits_config(options, 60);
  data_config.relax_min = 0.15;  // paper: 15-20% foreign data per cluster
  data_config.relax_max = 0.20;
  return digits_preset("fmnist-clustered-relaxed", data::make_fmnist_clustered(data_config),
                       options);
}

ExperimentPreset fmnist_by_author_preset(const PresetOptions& options) {
  return digits_preset("fmnist-by-author",
                       data::make_fmnist_by_author(digits_config(options, 80)), options);
}

ExperimentPreset poets_preset(const PresetOptions& options) {
  ExperimentPreset preset;
  preset.name = "poets";
  data::PoetsConfig data_config;
  data_config.seed = options.seed;
  if (options.paper_scale) {
    data_config.seq_len = 80;
    data_config.num_clients = 60;
    data_config.samples_per_client = 400;
  }
  apply_sizes(options, data_config);
  preset.dataset = data::make_poets(data_config);
  preset.factory = options.paper_scale
                       ? make_poets_lstm_paper(data_config.vocab_size)
                       : make_lstm_factory(data_config.vocab_size, 8, 24,
                                           data_config.vocab_size);
  preset.sim = base_sim(options.seed);
  preset.sim.client.train = {1, 35, 10, 0.8};  // Table 1: Poets column
  return preset;
}

ExperimentPreset cifar_preset(const PresetOptions& options) {
  ExperimentPreset preset;
  preset.name = "cifar100-like";
  data::CifarLikeConfig data_config;
  data_config.seed = options.seed;
  if (options.paper_scale) {
    data_config.image_size = 32;
    data_config.samples_per_client = 120;
    data_config.pool_per_subclass = 256;
  }
  apply_sizes(options, data_config);
  preset.dataset = data::make_cifar_like(data_config);
  preset.factory =
      options.paper_scale
          ? make_cifar_cnn_paper()
          : make_mlp_factory(shape_numel(preset.dataset.element_shape), 64,
                             preset.dataset.num_classes);
  preset.sim = base_sim(options.seed);
  preset.sim.client.train = {5, 45, 10, 0.01};  // Table 1: CIFAR column
  // With 20 clusters the accuracy spread between candidate models is small
  // once generalist lineages form; the spread-adaptive normalization (paper
  // Eq. 3) keeps the walk discriminative — exactly the situation §4.2
  // introduces it for.
  preset.sim.client.normalization = tipsel::Normalization::kDynamic;
  return preset;
}

ExperimentPreset fedprox_synthetic_preset(const PresetOptions& options) {
  ExperimentPreset preset;
  preset.name = "fedprox-synthetic";
  data::FedProxSyntheticConfig data_config;
  data_config.seed = options.seed;
  if (options.num_clients > 0) data_config.num_clients = options.num_clients;
  preset.dataset = data::make_fedprox_synthetic(data_config);
  preset.factory = make_logreg_factory(data_config.dimension, data_config.num_classes);
  preset.sim = base_sim(options.seed);
  preset.sim.rounds = 100;
  preset.sim.clients_per_round = 10;  // §5.3.3: 30 clients total, 10 active
  // The paper gives no Table 1 column for the synthetic dataset; two local
  // epochs of 20 batches let the clients' local objectives (which differ by
  // construction) actually express themselves — the regime Figures 10/11
  // study.
  preset.sim.client.train = {2, 20, 10, 0.05};
  return preset;
}

}  // namespace specdag::sim
