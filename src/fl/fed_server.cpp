#include "fl/fed_server.hpp"

#include <stdexcept>

namespace specdag::fl {

FedServer::FedServer(nn::ModelFactory factory, FedServerConfig config, Rng rng)
    : factory_(std::move(factory)), config_(std::move(config)), rng_(rng), model_(factory_()) {
  if (config_.proximal_mu < 0.0) throw std::invalid_argument("FedServer: negative mu");
  Rng init_rng = rng_.fork(0x1217);
  model_.init_params(init_rng);
  global_ = model_.get_weights();
}

void FedServer::set_global_weights(nn::WeightVector weights) {
  if (weights.size() != global_.size()) {
    throw std::invalid_argument("FedServer::set_global_weights: size mismatch");
  }
  global_ = std::move(weights);
}

FedRoundResult FedServer::run_round(const data::FederatedDataset& dataset,
                                    const std::vector<std::size_t>& client_indices) {
  if (client_indices.empty()) throw std::invalid_argument("FedServer: no clients selected");
  FedRoundResult result;
  std::vector<nn::WeightVector> updates;
  std::vector<double> coefficients;
  updates.reserve(client_indices.size());

  for (std::size_t idx : client_indices) {
    if (idx >= dataset.clients.size()) {
      throw std::out_of_range("FedServer: client index out of range");
    }
    const data::ClientData& client = dataset.clients[idx];
    result.client_ids.push_back(client.client_id);

    // Figure 9 semantics: evaluate the distributed global model on the
    // client's local test data before local training.
    result.client_evals.push_back(evaluate_weights_on_test(model_, global_, client));

    model_.set_weights(global_);
    Rng train_rng = rng_.fork(0x7E000000ULL +
                              static_cast<std::uint64_t>(client.client_id) * 1000003ULL +
                              updates.size());
    if (config_.proximal_mu > 0.0) {
      nn::ProximalSgd prox(config_.train.learning_rate, config_.proximal_mu, global_);
      train_local(model_, client, config_.train, prox, train_rng);
    } else {
      train_local_sgd(model_, client, config_.train, train_rng);
    }
    updates.push_back(model_.get_weights());
    // FedAvg weights each update by its client's sample count.
    coefficients.push_back(static_cast<double>(client.num_train()));
  }

  std::vector<const nn::WeightVector*> update_ptrs;
  update_ptrs.reserve(updates.size());
  for (const auto& u : updates) update_ptrs.push_back(&u);
  global_ = nn::weighted_average_weights(update_ptrs, coefficients);
  return result;
}

FedRoundResult FedServer::run_round(const data::FederatedDataset& dataset,
                                    std::size_t clients_per_round) {
  if (clients_per_round == 0 || clients_per_round > dataset.clients.size()) {
    throw std::invalid_argument("FedServer: bad clients_per_round");
  }
  const std::vector<std::size_t> selected =
      rng_.sample_without_replacement(dataset.clients.size(), clients_per_round);
  return run_round(dataset, selected);
}

std::vector<EvalResult> FedServer::evaluate_all(const data::FederatedDataset& dataset) {
  std::vector<EvalResult> evals;
  evals.reserve(dataset.clients.size());
  for (const auto& client : dataset.clients) {
    evals.push_back(evaluate_weights_on_test(model_, global_, client));
  }
  return evals;
}

}  // namespace specdag::fl
