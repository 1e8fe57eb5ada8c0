#include "sim/experiment.hpp"

namespace specdag::sim {
namespace {

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

// The FMNIST presets share their model.
ExperimentPreset digits_preset(data::FederatedDataset dataset, const PresetOptions& options) {
  ExperimentPreset preset;
  preset.dataset = std::move(dataset);
  // Compact member of the paper's CNN family by default; the paper-exact
  // 28x28/32/64/2048 CNN at paper scale.
  preset.factory = options.paper_scale
                       ? make_femnist_cnn_paper()
                       : make_mlp_factory(shape_numel(preset.dataset.element_shape), 32, 10);
  return preset;
}

}  // namespace

ExperimentPreset fmnist_clustered_preset(const PresetOptions& options) {
  return digits_preset(data::make_fmnist_clustered(digits_config(options, 60)), options);
}

ExperimentPreset fmnist_relaxed_preset(const PresetOptions& options) {
  data::SyntheticDigitsConfig data_config = digits_config(options, 60);
  data_config.relax_min = 0.15;  // paper: 15-20% foreign data per cluster
  data_config.relax_max = 0.20;
  return digits_preset(data::make_fmnist_clustered(data_config), options);
}

ExperimentPreset fmnist_by_author_preset(const PresetOptions& options) {
  return digits_preset(data::make_fmnist_by_author(digits_config(options, 80)), options);
}

ExperimentPreset poets_preset(const PresetOptions& options) {
  ExperimentPreset preset;
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
  return preset;
}

ExperimentPreset cifar_preset(const PresetOptions& options) {
  ExperimentPreset preset;
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
  return preset;
}

ExperimentPreset fedprox_synthetic_preset(const PresetOptions& options) {
  ExperimentPreset preset;
  data::FedProxSyntheticConfig data_config;
  data_config.seed = options.seed;
  if (options.num_clients > 0) data_config.num_clients = options.num_clients;
  preset.dataset = data::make_fedprox_synthetic(data_config);
  preset.factory = make_logreg_factory(data_config.dimension, data_config.num_classes);
  return preset;
}

}  // namespace specdag::sim
