// The non-DAG baselines the paper compares against: FedAvg (McMahan et al.),
// FedProx (Li et al.) and gossip learning (paper §3.2). Each algorithm is one
// class that owns its dataset, its client sampling and its training streams,
// so the scenario runner drives every baseline through the same surface as
// the DAG simulators: a round, the label-flip hooks and the probes.
#pragma once

#include "data/dataset.hpp"
#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "nn/model.hpp"

namespace specdag::fl {

// What every baseline shares: the dataset (owned, since poisoning mutates
// client shards), one scratch replica, the per-round client count, and the
// probes over the model each client would use for inference.
class Baseline {
 public:
  virtual ~Baseline() = default;
  Baseline(const Baseline&) = delete;
  Baseline& operator=(const Baseline&) = delete;

  // Runs one round over `clients_per_round` clients sampled from the
  // algorithm's own stream. Returns the per-client evaluations the paper
  // plots (FedAvg: the distributed global model before local training;
  // gossip: the client's model after it).
  virtual std::vector<EvalResult> run_round() = 0;

  // The weights client `idx` uses for inference: the global model for
  // FedAvg, the client's own model for gossip.
  virtual const nn::WeightVector& inference_weights(std::size_t idx) const = 0;

  // Label-flip attack hooks with the same semantics as the simulators':
  // poison a seed-derived fraction, revert restores the original labels.
  std::vector<int> apply_poisoning(double p, int class_a, int class_b);
  void revert_poisoning();

  // Mean flipped-prediction rate (classes a<->b) over the benign clients'
  // inference models — the baseline analogue of the DAG's Figure 12 probe.
  double mean_benign_flip_rate(int class_a, int class_b);

  // Mean accuracy over *every* client of its inference model (the analogue
  // of the DAG's consensus evaluation).
  double mean_inference_accuracy();

 protected:
  Baseline(data::FederatedDataset dataset, const nn::ModelFactory& factory, TrainConfig train,
           std::size_t clients_per_round, std::uint64_t seed);

  // `clients_per_round` distinct client indices drawn from `rng`.
  std::vector<std::size_t> sample_clients(Rng& rng) const;

  data::FederatedDataset dataset_;
  nn::Sequential model_;  // scratch replica: training and every evaluation
  TrainConfig train_;

 private:
  std::size_t clients_per_round_;
  std::uint64_t seed_;
  int poison_class_a_ = 0;
  int poison_class_b_ = 0;
};

// FedAvg / FedProx: FedProx is FedAvg whose clients optimize the proximal
// objective (mu > 0). A round distributes the global model, trains each
// selected client on it and replaces it by the sample-count-weighted average
// of the updates.
class FedAvg final : public Baseline {
 public:
  FedAvg(data::FederatedDataset dataset, const nn::ModelFactory& factory, TrainConfig train,
         double proximal_mu, std::size_t clients_per_round, std::uint64_t seed);

  std::vector<EvalResult> run_round() override;
  // One round over the given client indices.
  std::vector<EvalResult> run_round(const std::vector<std::size_t>& clients);

  const nn::WeightVector& inference_weights(std::size_t /*idx*/) const override {
    return global_;
  }

 private:
  double proximal_mu_;
  Rng rng_;  // client sampling; training streams fork from it
  nn::WeightVector global_;
};

// Gossip learning: every client keeps a private model. Each round an active
// client pulls the model of a uniformly random peer, averages it with its
// own, and trains the result on local data. All clients start from one
// initialization (comparable to the DAG's genesis model).
class Gossip final : public Baseline {
 public:
  Gossip(data::FederatedDataset dataset, const nn::ModelFactory& factory, TrainConfig train,
         std::size_t clients_per_round, std::uint64_t seed);

  std::vector<EvalResult> run_round() override;
  // One round in which every client in `active` gossips and trains once.
  std::vector<EvalResult> run_round(const std::vector<std::size_t>& active);

  const nn::WeightVector& inference_weights(std::size_t idx) const override {
    return weights_.at(idx);
  }

 private:
  Rng rng_;         // peer draws; training streams fork from it
  Rng select_rng_;  // client sampling
  std::vector<nn::WeightVector> weights_;  // one model per client
};

}  // namespace specdag::fl
