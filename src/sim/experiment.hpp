// Experiment presets: the dataset and model of each paper experiment.
//
// A preset generates a federated dataset and the model factory that fits
// it, at a CPU-sized data scale by default (image size, sequence length,
// client count) or at the paper's sizes with `paper_scale`. It carries no
// training hyperparameters: those come only from the scenario spec or grid
// (Table 1's values live in src/scenario/registry.cpp).
#pragma once

#include "data/cifar_like.hpp"
#include "data/fedprox_synthetic.hpp"
#include "data/poets.hpp"
#include "data/synthetic_digits.hpp"
#include "sim/models.hpp"

namespace specdag::sim {

struct ExperimentPreset {
  data::FederatedDataset dataset;
  nn::ModelFactory factory;
};

struct PresetOptions {
  std::uint64_t seed = 42;
  // The paper's data sizes and models instead of the CPU-sized defaults.
  bool paper_scale = false;
  // Dataset-size overrides, applied on top of the preset's own sizes (its
  // paper-scale sizes included); 0 keeps the preset's size. The dataset is
  // generated once, so element shape and model always match.
  // fedprox-synthetic draws per-client sample counts from a lognormal and
  // ignores samples_per_client.
  std::size_t num_clients = 0;
  std::size_t samples_per_client = 0;
};

// FMNIST-clustered (paper §5.1.1): 3 class-group clusters.
ExperimentPreset fmnist_clustered_preset(const PresetOptions& options = {});

// The relaxed variant (15-20% foreign-cluster data, Figure 8).
ExperimentPreset fmnist_relaxed_preset(const PresetOptions& options = {});

// FMNIST "by author" (poisoning §5.3.4 and scalability §5.3.5 experiments).
ExperimentPreset fmnist_by_author_preset(const PresetOptions& options = {});

// Poets (paper §5.1.2): two language clusters, LSTM next-char model.
ExperimentPreset poets_preset(const PresetOptions& options = {});

// CIFAR-100-like (paper §5.1.3): 20 superclass clusters, PAM allocation.
ExperimentPreset cifar_preset(const PresetOptions& options = {});

// FedProx synthetic(0.5, 0.5) (paper §5.3.3): 30 clients, logreg model.
ExperimentPreset fedprox_synthetic_preset(const PresetOptions& options = {});

}  // namespace specdag::sim
