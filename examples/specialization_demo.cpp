// Specialization demo: watch the implicit clustering emerge.
//
// Runs the FMNIST-clustered experiment and prints, every few rounds, the
// DAG's approval pureness, the modularity of the derived client graph, the
// communities found by Louvain, and how they line up with the ground-truth
// clusters — the paper's §4.3 metrics live, on one screen.
//
// Usage: specialization_demo [rounds] [alpha]
#include <cstdlib>
#include <iostream>
#include <map>

#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  using namespace specdag;
  const std::size_t rounds = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  const double alpha = argc > 2 ? std::strtod(argv[2], nullptr) : 10.0;

  scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
  spec.client.alpha = alpha;
  sim::ExperimentPreset preset = scenario::make_preset(spec);
  const std::vector<int> true_clusters = preset.dataset.true_clusters();
  const std::size_t num_clients = true_clusters.size();
  sim::DagSimulator simulator(std::move(preset.dataset), preset.factory,
                              scenario::simulator_config(spec, num_clients));
  Rng louvain_rng = Rng(spec.seed).fork(0x10CA);

  std::cout << "Specializing DAG on FMNIST-clustered (alpha = " << alpha << ")\n"
            << "3 ground-truth clusters over digit groups {0-3}, {4-6}, {7-9}\n\n"
            << "round  accuracy  pureness  modularity  communities  misclass\n";

  for (std::size_t round = 1; round <= rounds; ++round) {
    const auto& record = simulator.run_round();
    if (round % 10 != 0) continue;
    const auto pureness = simulator.approval_pureness();
    const auto louvain =
        metrics::louvain(metrics::build_client_graph(simulator.dag(), num_clients), louvain_rng);
    const double misclass =
        metrics::misclassification_fraction(louvain.partition, true_clusters);
    std::cout << round << "     " << record.mean_trained_accuracy() << "      "
              << pureness.pureness << "     " << louvain.modularity << "      "
              << louvain.num_communities << "            " << misclass << "\n";
  }

  // Final community table: inferred community vs ground-truth cluster.
  const auto louvain =
      metrics::louvain(metrics::build_client_graph(simulator.dag(), num_clients), louvain_rng);
  std::map<int, std::map<int, int>> table;  // community -> true cluster -> count
  for (std::size_t i = 0; i < louvain.partition.size(); ++i) {
    table[louvain.partition[i]][true_clusters[i]]++;
  }
  std::cout << "\nInferred communities vs ground-truth clusters:\n";
  for (const auto& [community, hist] : table) {
    std::cout << "  community " << community << ": ";
    for (const auto& [cluster, count] : hist) {
      std::cout << count << " client(s) of cluster " << cluster << "  ";
    }
    std::cout << "\n";
  }
  std::cout << "\nWith alpha around 10, each community should map 1:1 onto a\n"
               "ground-truth cluster — specialization emerged implicitly from\n"
               "the accuracy-biased tip selection alone.\n";
  return 0;
}
