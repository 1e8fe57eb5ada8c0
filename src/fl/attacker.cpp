#include "fl/attacker.hpp"

#include <stdexcept>

namespace specdag::fl {

RandomWeightAttacker::RandomWeightAttacker(int publisher_id, std::size_t model_size,
                                           RandomWeightAttackerConfig config, Rng rng)
    : publisher_id_(publisher_id), model_size_(model_size), config_(config), rng_(rng) {
  if (model_size == 0) throw std::invalid_argument("RandomWeightAttacker: zero model size");
  if (config.transactions_per_round == 0) {
    throw std::invalid_argument("RandomWeightAttacker: zero rate");
  }
  if (config.num_parents == 0) {
    throw std::invalid_argument("RandomWeightAttacker: zero parents");
  }
  selector_.set_walk_start(tipsel::WalkStart::kGenesis);
}

std::vector<dag::TxId> RandomWeightAttacker::attack(dag::Dag& dag, std::size_t round) {
  std::vector<dag::TxId> published;
  for (std::size_t t = 0; t < config_.transactions_per_round; ++t) {
    const std::vector<dag::TxId> parents =
        selector_.select_tips(dag, config_.num_parents, rng_);
    std::vector<double> draws(model_size_);
    rng_.fill_normal(draws.data(), draws.size(), 0.0, config_.weight_stddev);
    nn::WeightVector weights(draws.begin(), draws.end());
    published.push_back(dag.add_transaction(
        parents, std::make_shared<const nn::WeightVector>(std::move(weights)),
        publisher_id_, round, /*poisoned_publisher=*/true));
  }
  return published;
}

}  // namespace specdag::fl
