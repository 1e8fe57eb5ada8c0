// Centralized federated learning baselines: FedAvg (McMahan et al.) and
// FedProx (Li et al.). One server class covers both — FedProx is FedAvg
// whose clients optimize the proximal objective (mu > 0).
#pragma once

#include "data/dataset.hpp"
#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "nn/model.hpp"

namespace specdag::fl {

struct FedServerConfig {
  TrainConfig train;
  double proximal_mu = 0.0;  // 0 = FedAvg; > 0 = FedProx
};

struct FedRoundResult {
  // Per selected client: local-test evaluation of the *global* model as
  // distributed at the start of the round (this is what Figure 9 plots for
  // FedAvg).
  std::vector<EvalResult> client_evals;
  std::vector<int> client_ids;
};

class FedServer {
 public:
  FedServer(nn::ModelFactory factory, FedServerConfig config, Rng rng);

  // Runs one synchronous round over the given clients: distribute global
  // weights, train locally, aggregate.
  FedRoundResult run_round(const data::FederatedDataset& dataset,
                           const std::vector<std::size_t>& client_indices);

  // Samples `clients_per_round` clients uniformly and runs a round.
  FedRoundResult run_round(const data::FederatedDataset& dataset,
                           std::size_t clients_per_round);

  const nn::WeightVector& global_weights() const { return global_; }
  void set_global_weights(nn::WeightVector weights);

  // Evaluates the current global model on every client's test partition.
  std::vector<EvalResult> evaluate_all(const data::FederatedDataset& dataset);

 private:
  nn::ModelFactory factory_;
  FedServerConfig config_;
  Rng rng_;
  nn::Sequential model_;  // scratch replica reused across rounds
  nn::WeightVector global_;
};

}  // namespace specdag::fl
