#include "fl/attacker.hpp"

#include <stdexcept>

namespace specdag::fl {

RandomWeightAttacker::RandomWeightAttacker(int publisher_id, std::size_t model_size,
                                           RandomWeightAttackerConfig config, Rng rng)
    : publisher_id_(publisher_id), model_size_(model_size), config_(config), rng_(rng) {
  if (model_size == 0) throw std::invalid_argument("RandomWeightAttacker: zero model size");
  if (config.num_parents == 0) {
    throw std::invalid_argument("RandomWeightAttacker: zero parents");
  }
  selector_.set_walk_start(tipsel::WalkStart::kGenesis);
}

dag::TxId RandomWeightAttacker::attack(dag::Dag& dag, std::size_t round) {
  const std::vector<dag::TxId> parents = selector_.select_tips(dag, config_.num_parents, rng_);
  std::vector<double> draws(model_size_);
  rng_.fill_normal(draws.data(), draws.size(), 0.0, config_.weight_stddev);
  nn::WeightVector weights(draws.begin(), draws.end());
  return dag.add_transaction(parents,
                             std::make_shared<const nn::WeightVector>(std::move(weights)),
                             publisher_id_, round, /*poisoned_publisher=*/true);
}

}  // namespace specdag::fl
