#include "scenario/baselines.hpp"

#include <stdexcept>

namespace specdag::scenario {
namespace {

constexpr std::uint64_t kGossipSelectTag = 0x6055B;

}  // namespace

BaselineBackend::BaselineBackend(data::FederatedDataset dataset, std::uint64_t seed)
    : dataset_(std::move(dataset)), seed_(seed) {
  dataset_.validate();
}

std::vector<int> BaselineBackend::apply_poisoning(double p, int class_a, int class_b) {
  // data::kPoisonForkTag: the same victim set as a DAG run of this seed.
  Rng poison_rng = Rng(seed_).fork(data::kPoisonForkTag);
  poison_class_a_ = class_a;
  poison_class_b_ = class_b;
  return data::poison_fraction(dataset_, p, class_a, class_b, poison_rng);
}

void BaselineBackend::revert_poisoning() {
  data::revert_poisoning(dataset_, poison_class_a_, poison_class_b_);
}

FedAvgBackend::FedAvgBackend(data::FederatedDataset dataset, const nn::ModelFactory& factory,
                             fl::TrainConfig train, double proximal_mu,
                             std::size_t clients_per_round, std::uint64_t seed)
    : BaselineBackend(std::move(dataset), seed),
      server_(factory, fl::FedServerConfig{train, proximal_mu}, Rng(seed)),
      probe_(factory()),
      clients_per_round_(clients_per_round) {
  if (clients_per_round_ == 0 || clients_per_round_ > dataset_.clients.size()) {
    throw std::invalid_argument("FedAvgBackend: bad clients_per_round");
  }
}

std::vector<fl::EvalResult> FedAvgBackend::run_round() {
  return server_.run_round(dataset_, clients_per_round_).client_evals;
}

double FedAvgBackend::mean_benign_flip_rate(int class_a, int class_b) {
  double sum = 0.0;
  std::size_t benign = 0;
  for (const auto& client : dataset_.clients) {
    if (client.poisoned) continue;
    sum += fl::flip_rate(probe_, server_.global_weights(), client, class_a, class_b);
    ++benign;
  }
  return benign > 0 ? sum / static_cast<double>(benign) : 0.0;
}

double FedAvgBackend::mean_inference_accuracy() {
  double sum = 0.0;
  for (const auto& client : dataset_.clients) {
    sum += fl::evaluate_weights_on_test(probe_, server_.global_weights(), client).accuracy;
  }
  return sum / static_cast<double>(dataset_.clients.size());
}

GossipBackend::GossipBackend(data::FederatedDataset dataset, const nn::ModelFactory& factory,
                             fl::TrainConfig train, std::size_t clients_per_round,
                             std::uint64_t seed)
    : BaselineBackend(std::move(dataset), seed),
      net_(&dataset_, factory, fl::GossipConfig{train}, Rng(seed)),
      probe_(factory()),
      select_rng_(Rng(seed).fork(kGossipSelectTag)),
      clients_per_round_(clients_per_round) {
  if (clients_per_round_ == 0 || clients_per_round_ > dataset_.clients.size()) {
    throw std::invalid_argument("GossipBackend: bad clients_per_round");
  }
}

std::vector<fl::EvalResult> GossipBackend::run_round() {
  const std::vector<std::size_t> active =
      select_rng_.sample_without_replacement(dataset_.clients.size(), clients_per_round_);
  return net_.run_round(active);
}

double GossipBackend::mean_benign_flip_rate(int class_a, int class_b) {
  double sum = 0.0;
  std::size_t benign = 0;
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    if (dataset_.clients[i].poisoned) continue;
    sum += fl::flip_rate(probe_, net_.client_weights(i), dataset_.clients[i], class_a, class_b);
    ++benign;
  }
  return benign > 0 ? sum / static_cast<double>(benign) : 0.0;
}

double GossipBackend::mean_inference_accuracy() {
  double sum = 0.0;
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    sum += fl::evaluate_weights_on_test(probe_, net_.client_weights(i), dataset_.clients[i])
               .accuracy;
  }
  return sum / static_cast<double>(dataset_.clients.size());
}

}  // namespace specdag::scenario
