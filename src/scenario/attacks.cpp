#include "scenario/attacks.hpp"

#include "metrics/dag_metrics.hpp"

namespace specdag::scenario {
namespace {

// Deterministic fork tag for the attacker's RNG — distinct from every tag
// used by the simulators and the dynamics schedules.
constexpr std::uint64_t kAttackerTag = 0xA77ACC;

}  // namespace

AttackController::AttackController(const AttackSpec& spec, std::uint64_t seed,
                                   std::size_t num_clients)
    : spec_(spec),
      // First id outside the honest range: community/pureness metrics and
      // partition visibility masks already treat out-of-range publishers as
      // cluster-less externals.
      attacker_id_(static_cast<int>(num_clients)),
      attacker_rng_(Rng(seed).fork(kAttackerTag)) {}

std::size_t AttackController::run_random_weights(std::size_t unit, dag::Dag& dag) {
  const RandomWeightsAttackSpec& attack = spec_.random_weights;
  if (!attack.active_at(unit)) return 0;
  if (!attacker_) create_attacker(dag);
  budget_ += attack.rate;
  std::size_t published = 0;
  while (budget_ >= 1.0) {
    attacker_->attack(dag, unit);
    budget_ -= 1.0;
    ++published;
  }
  total_published_ += published;
  return published;
}

void AttackController::create_attacker(const dag::Dag& dag) {
  fl::RandomWeightAttackerConfig config;
  config.weight_stddev = spec_.random_weights.weight_stddev;
  config.num_parents = spec_.random_weights.num_parents;
  attacker_ = std::make_unique<fl::RandomWeightAttacker>(
      attacker_id_, dag.weights(dag::kGenesisTx)->size(), config, attacker_rng_);
}

bool AttackController::measure_at(std::size_t unit) const { return spec_.measure_at(unit); }

LabelFlipProbe AttackController::probe_label_flip(core::SpecializingDag& net,
                                                  const data::FederatedDataset& dataset) {
  LabelFlipProbe result;
  std::size_t benign = 0;
  for (std::size_t i = 0; i < dataset.clients.size(); ++i) {
    const data::ClientData& client = dataset.clients[i];
    if (client.poisoned) continue;
    const dag::TxId reference = net.consensus_reference(static_cast<int>(i));
    const dag::WeightsPtr weights = net.dag().weights(reference);
    const nn::ReplicaPool::Lease probe = net.replicas().acquire();
    result.flip_rate += fl::flip_rate(*probe, *weights, client, spec_.label_flip.class_a,
                                      spec_.label_flip.class_b);
    result.approved_poisoned +=
        static_cast<double>(metrics::approved_poisoned_count(net.dag(), reference));
    ++benign;
  }
  if (benign > 0) {
    result.flip_rate /= static_cast<double>(benign);
    result.approved_poisoned /= static_cast<double>(benign);
  }
  return result;
}

double AttackController::junk_reference_fraction(core::SpecializingDag& net,
                                                 std::size_t num_clients) {
  if (num_clients == 0) return 0.0;
  std::size_t junk = 0;
  for (std::size_t i = 0; i < num_clients; ++i) {
    const dag::TxId reference = net.consensus_reference(static_cast<int>(i));
    if (net.dag().publisher(reference) == attacker_id_) ++junk;
  }
  return static_cast<double>(junk) / static_cast<double>(num_clients);
}

}  // namespace specdag::scenario
