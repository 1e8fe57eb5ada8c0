// Poisoning-robustness demo (paper §4.4 / §5.3.4).
//
// Runs the registry's `fig12-14-poisoning` dataset, model and client config
// (the demo drives the attack itself, not the spec's attack block).
// Trains a healthy network, then flips the labels 3 <-> 8 for a fraction of
// clients (the attacker forged their sensing hardware) and continues
// training. Prints, per round, how many class-3/8 test samples benign
// clients mispredict as the respective other class, and how many poisoned
// transactions their consensus references approve.
//
// Usage: poisoning_demo [clean_rounds] [attack_rounds] [p]
#include <cstdlib>
#include <iostream>

#include "fl/evaluation.hpp"
#include "metrics/dag_metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  using namespace specdag;
  const std::size_t clean_rounds = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 30;
  const std::size_t attack_rounds = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 30;
  const double p = argc > 3 ? std::strtod(argv[3], nullptr) : 0.3;

  const scenario::ScenarioSpec spec = scenario::get_scenario("fig12-14-poisoning");
  sim::ExperimentPreset preset = scenario::make_preset(spec);
  nn::ModelFactory factory = preset.factory;
  const std::size_t num_clients = preset.dataset.clients.size();
  sim::DagSimulator simulator(std::move(preset.dataset), factory,
                              scenario::simulator_config(spec, num_clients));

  std::cout << "Phase 1: " << clean_rounds << " clean training rounds...\n";
  simulator.run_rounds(clean_rounds);

  const auto poisoned_ids = simulator.apply_poisoning(p, 3, 8);
  std::cout << "Phase 2: flipped labels 3 <-> 8 for " << poisoned_ids.size()
            << " of " << simulator.dataset().clients.size() << " clients (p = " << p
            << "); continuing training.\n\n";
  std::cout << "round  benign_flip_rate  approved_poisoned_txs\n";

  nn::Sequential probe = factory();
  for (std::size_t round = 0; round < attack_rounds; ++round) {
    simulator.run_round();
    if ((round + 1) % 5 != 0) continue;
    double flip_sum = 0.0, poison_sum = 0.0;
    std::size_t benign = 0;
    for (std::size_t i = 0; i < simulator.dataset().clients.size(); ++i) {
      const auto& client = simulator.dataset().clients[i];
      if (client.poisoned) continue;
      const dag::TxId reference =
          simulator.network().consensus_reference(static_cast<int>(i));
      flip_sum += fl::flip_rate(probe, *simulator.dag().weights(reference), client, 3, 8);
      poison_sum +=
          static_cast<double>(metrics::approved_poisoned_count(simulator.dag(), reference));
      ++benign;
    }
    std::cout << clean_rounds + round + 1 << "     "
              << flip_sum / static_cast<double>(benign) << "             "
              << poison_sum / static_cast<double>(benign) << "\n";
  }

  std::cout << "\nThe accuracy-biased walk limits the attack: poisoned models score\n"
               "poorly on benign clients' local test data, so benign walks route\n"
               "around them even when poisoned transactions sit in their past cone.\n"
               "Compare with SelectorKind::kRandom (see examples/figures/fig12_13_random.json).\n";
  return 0;
}
