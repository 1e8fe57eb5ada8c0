#include "fl/baselines.hpp"

#include <stdexcept>

#include "data/poisoning.hpp"

namespace specdag::fl {
namespace {

// Fork tags of the baselines' streams. Each is derived from the run seed
// alone, so no baseline draw perturbs another stream.
constexpr std::uint64_t kFedAvgInitTag = 0x1217;
constexpr std::uint64_t kGossipInitTag = 0x6055;
constexpr std::uint64_t kGossipSelectTag = 0x6055B;

}  // namespace

Baseline::Baseline(data::FederatedDataset dataset, const nn::ModelFactory& factory,
                   TrainConfig train, std::size_t clients_per_round, std::uint64_t seed)
    : dataset_(std::move(dataset)),
      model_(factory()),
      train_(train),
      clients_per_round_(clients_per_round),
      seed_(seed) {
  dataset_.validate();
  if (clients_per_round_ == 0 || clients_per_round_ > dataset_.clients.size()) {
    throw std::invalid_argument("Baseline: bad clients_per_round");
  }
}

std::vector<std::size_t> Baseline::sample_clients(Rng& rng) const {
  return rng.sample_without_replacement(dataset_.clients.size(), clients_per_round_);
}

std::vector<int> Baseline::apply_poisoning(double p, int class_a, int class_b) {
  // data::kPoisonForkTag: the same victim set as a DAG run of this seed.
  Rng poison_rng = Rng(seed_).fork(data::kPoisonForkTag);
  poison_class_a_ = class_a;
  poison_class_b_ = class_b;
  return data::poison_fraction(dataset_, p, class_a, class_b, poison_rng);
}

void Baseline::revert_poisoning() {
  data::revert_poisoning(dataset_, poison_class_a_, poison_class_b_);
}

double Baseline::mean_benign_flip_rate(int class_a, int class_b) {
  double sum = 0.0;
  std::size_t benign = 0;
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    if (dataset_.clients[i].poisoned) continue;
    sum += flip_rate(model_, inference_weights(i), dataset_.clients[i], class_a, class_b);
    ++benign;
  }
  return benign > 0 ? sum / static_cast<double>(benign) : 0.0;
}

double Baseline::mean_inference_accuracy() {
  double sum = 0.0;
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    sum += evaluate_weights_on_test(model_, inference_weights(i), dataset_.clients[i]).accuracy;
  }
  return sum / static_cast<double>(dataset_.clients.size());
}

// ------------------------------------------------------------ FedAvg ---

FedAvg::FedAvg(data::FederatedDataset dataset, const nn::ModelFactory& factory,
               TrainConfig train, double proximal_mu, std::size_t clients_per_round,
               std::uint64_t seed)
    : Baseline(std::move(dataset), factory, train, clients_per_round, seed),
      proximal_mu_(proximal_mu),
      rng_(seed) {
  if (proximal_mu_ < 0.0) throw std::invalid_argument("FedAvg: negative mu");
  Rng init_rng = rng_.fork(kFedAvgInitTag);
  model_.init_params(init_rng);
  global_ = model_.get_weights();
}

std::vector<EvalResult> FedAvg::run_round() { return run_round(sample_clients(rng_)); }

std::vector<EvalResult> FedAvg::run_round(const std::vector<std::size_t>& clients) {
  if (clients.empty()) throw std::invalid_argument("FedAvg: no clients selected");
  std::vector<EvalResult> evals;
  std::vector<nn::WeightVector> updates;
  std::vector<double> coefficients;
  updates.reserve(clients.size());

  for (std::size_t idx : clients) {
    const data::ClientData& selected = dataset_.clients.at(idx);
    // Figure 9 semantics: evaluate the distributed global model on the
    // client's local test data before local training.
    evals.push_back(evaluate_weights_on_test(model_, global_, selected));

    model_.set_weights(global_);
    Rng train_rng = rng_.fork(0x7E000000ULL +
                              static_cast<std::uint64_t>(selected.client_id) * 1000003ULL +
                              updates.size());
    if (proximal_mu_ > 0.0) {
      nn::ProximalSgd prox(train_.learning_rate, proximal_mu_, global_);
      train_local(model_, selected, train_, prox, train_rng);
    } else {
      train_local_sgd(model_, selected, train_, train_rng);
    }
    updates.push_back(model_.get_weights());
    // FedAvg weights each update by its client's sample count.
    coefficients.push_back(static_cast<double>(selected.num_train()));
  }

  std::vector<const nn::WeightVector*> update_ptrs;
  update_ptrs.reserve(updates.size());
  for (const auto& u : updates) update_ptrs.push_back(&u);
  global_ = nn::weighted_average_weights(update_ptrs, coefficients);
  return evals;
}

// ------------------------------------------------------------ Gossip ---

Gossip::Gossip(data::FederatedDataset dataset, const nn::ModelFactory& factory,
               TrainConfig train, std::size_t clients_per_round, std::uint64_t seed)
    : Baseline(std::move(dataset), factory, train, clients_per_round, seed),
      rng_(seed),
      select_rng_(Rng(seed).fork(kGossipSelectTag)) {
  Rng init_rng = rng_.fork(kGossipInitTag);
  model_.init_params(init_rng);
  weights_.assign(dataset_.clients.size(), model_.get_weights());
}

std::vector<EvalResult> Gossip::run_round() { return run_round(sample_clients(select_rng_)); }

std::vector<EvalResult> Gossip::run_round(const std::vector<std::size_t>& active) {
  if (active.empty()) throw std::invalid_argument("Gossip: no active clients");
  std::vector<EvalResult> evals;
  evals.reserve(active.size());
  for (std::size_t idx : active) {
    const data::ClientData& selected = dataset_.clients.at(idx);
    // Pull a random peer (not self) and merge by averaging.
    std::size_t peer = idx;
    if (weights_.size() > 1) {
      do {
        peer = rng_.index(weights_.size());
      } while (peer == idx);
    }
    model_.set_weights(nn::average_weights(weights_[idx], weights_[peer]));
    Rng train_rng = rng_.fork(0x60551AULL + idx * 7919ULL);
    train_local_sgd(model_, selected, train_, train_rng);
    weights_[idx] = model_.get_weights();
    evals.push_back(evaluate_weights_on_test(model_, weights_[idx], selected));
  }
  return evals;
}

}  // namespace specdag::fl
