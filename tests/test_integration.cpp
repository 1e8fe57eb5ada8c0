// End-to-end integration tests: the paper's qualitative claims must hold on
// reduced-scale runs of the full pipeline (data generator -> DAG network ->
// metrics). These are the repository's regression net for the science, not
// just the code.
#include <gtest/gtest.h>

#include "data/synthetic_digits.hpp"
#include "fl/baselines.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "sim/experiment.hpp"
#include "sim/models.hpp"
#include "sim/simulator.hpp"

namespace specdag {
namespace {

sim::DagSimulator make_simulator(double alpha, std::uint64_t seed = 42,
                                 std::size_t clients = 15, std::size_t rounds_hint = 0,
                                 fl::SelectorKind selector = fl::SelectorKind::kAccuracy) {
  (void)rounds_hint;
  data::SyntheticDigitsConfig data_config;
  data_config.num_clients = clients;
  data_config.samples_per_client = 100;
  data_config.image_size = 10;
  data_config.seed = seed;
  auto ds = data::make_fmnist_clustered(data_config);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
  sim::SimulatorConfig config;
  config.client.alpha = alpha;
  config.client.selector = selector;
  config.client.train = {1, 10, 10, 0.05};
  config.clients_per_round = 5;
  config.seed = seed;
  return sim::DagSimulator(std::move(ds), factory, config);
}

TEST(Integration, SpecializationEmergesAtHighAlpha) {
  auto simulator = make_simulator(10.0);
  simulator.run_rounds(50);
  const auto pureness = simulator.approval_pureness();
  EXPECT_GT(pureness.pureness, 0.8) << "alpha=10 should give near-pure approvals (paper: 1.0)";
}

TEST(Integration, LowAlphaStaysNearBasePureness) {
  auto simulator = make_simulator(1.0);
  simulator.run_rounds(40);
  const auto pureness = simulator.approval_pureness();
  // Paper: 0.47 at alpha=1 (base 0.33). Must stay well below the alpha=10 level.
  EXPECT_LT(pureness.pureness, 0.8);
  EXPECT_GT(pureness.pureness, 0.25);
}

TEST(Integration, LouvainRecoversTheThreeClusters) {
  auto simulator = make_simulator(10.0);
  simulator.run_rounds(50);
  Rng louvain_rng = Rng(42).fork(0x10CA);
  auto louvain = metrics::louvain(
      metrics::build_client_graph(simulator.dag(), simulator.dataset().clients.size()),
      louvain_rng);
  EXPECT_GE(louvain.num_communities, 2u);
  EXPECT_LE(louvain.num_communities, 5u);
  EXPECT_GT(louvain.modularity, 0.3);
  const double misclass =
      metrics::misclassification_fraction(louvain.partition, simulator.true_clusters());
  EXPECT_LT(misclass, 0.25);
}

TEST(Integration, AccuracyImprovesOverRounds) {
  auto simulator = make_simulator(10.0);
  simulator.run_rounds(50);
  const auto& history = simulator.history();
  double early = 0.0, late = 0.0;
  for (int r = 0; r < 5; ++r) early += history[r].mean_trained_accuracy();
  for (std::size_t r = history.size() - 5; r < history.size(); ++r) {
    late += history[r].mean_trained_accuracy();
  }
  EXPECT_GT(late / 5.0, early / 5.0);
  EXPECT_GT(late / 5.0, 0.6);
}

TEST(Integration, ConsensusModelsAreSpecialized) {
  auto simulator = make_simulator(10.0);
  simulator.run_rounds(50);
  const auto evals = simulator.network().evaluate_consensus_all();
  double mean = 0.0;
  for (const auto& e : evals) mean += e.accuracy;
  mean /= static_cast<double>(evals.size());
  EXPECT_GT(mean, 0.7) << "personalized consensus models should fit local data well";
}

TEST(Integration, FullRunIsDeterministic) {
  auto run = [] {
    auto simulator = make_simulator(10.0, /*seed=*/7, /*clients=*/9);
    simulator.run_rounds(10);
    return std::make_tuple(simulator.dag().size(), simulator.approval_pureness().pureness,
                           simulator.history().back().mean_trained_accuracy());
  };
  EXPECT_EQ(run(), run());
}

TEST(Integration, PoisonedClientsClusterTogether) {
  // Paper Figure 14: poisoned clients end up in communities dominated by
  // other poisoned clients.
  data::SyntheticDigitsConfig data_config;
  data_config.num_clients = 12;
  data_config.samples_per_client = 80;
  data_config.image_size = 8;
  auto ds = data::make_fmnist_by_author(data_config);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
  sim::SimulatorConfig config;
  config.client.alpha = 10.0;
  config.client.train = {1, 10, 10, 0.05};
  config.clients_per_round = 6;
  config.seed = 5;
  sim::DagSimulator simulator(std::move(ds), factory, config);
  simulator.run_rounds(15);
  const auto poisoned = simulator.apply_poisoning(0.34, 3, 8);
  ASSERT_EQ(poisoned.size(), 4u);
  simulator.run_rounds(25);

  // Count approvals between poisoned and benign publishers.
  std::set<int> poisoned_set(poisoned.begin(), poisoned.end());
  std::size_t poison_approves_poison = 0, poison_approves_total = 0;
  const auto& dag = simulator.dag();
  for (dag::TxId id : dag.all_ids()) {
    const auto tx = dag.transaction(id);
    if (!tx.poisoned_publisher) continue;
    for (dag::TxId p : tx.parents) {
      const auto ptx = dag.transaction(p);
      if (ptx.publisher < 0) continue;
      ++poison_approves_total;
      if (poisoned_set.count(ptx.publisher)) ++poison_approves_poison;
    }
  }
  if (poison_approves_total > 0) {
    const double in_group = static_cast<double>(poison_approves_poison) /
                            static_cast<double>(poison_approves_total);
    // 4/12 poisoned: random approvals would give ~0.33 in-group; containment
    // should push it clearly higher.
    EXPECT_GT(in_group, 0.4);
  }
}

TEST(Integration, AccuracySelectorResistsPoisonBetterThanRandom) {
  // Paper Figure 12: the flip rate for benign clients is lower with the
  // accuracy tip selector than with the purely random one.
  auto run = [](fl::SelectorKind selector) {
    data::SyntheticDigitsConfig data_config;
    data_config.num_clients = 12;
    data_config.samples_per_client = 80;
    data_config.image_size = 8;
    auto ds = data::make_fmnist_by_author(data_config);
    auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
    sim::SimulatorConfig config;
    config.client.alpha = 10.0;
    config.client.selector = selector;
    config.client.train = {1, 10, 10, 0.05};
    config.clients_per_round = 6;
    config.seed = 9;
    sim::DagSimulator simulator(std::move(ds), factory, config);
    simulator.run_rounds(15);
    simulator.apply_poisoning(0.25, 3, 8);
    simulator.run_rounds(20);

    // Mean flip rate across benign clients using their consensus models.
    nn::Sequential probe = factory();
    double total = 0.0;
    std::size_t benign = 0;
    for (std::size_t i = 0; i < simulator.dataset().clients.size(); ++i) {
      const auto& client = simulator.dataset().clients[i];
      if (client.poisoned) continue;
      const nn::WeightVector weights =
          simulator.network().consensus_weights(static_cast<int>(i));
      total += fl::flip_rate(probe, weights, client, 3, 8);
      ++benign;
    }
    return total / static_cast<double>(benign);
  };
  const double accuracy_flip = run(fl::SelectorKind::kAccuracy);
  const double random_flip = run(fl::SelectorKind::kRandom);
  // Directional claim only; absolute values depend on scale.
  EXPECT_LE(accuracy_flip, random_flip + 0.1);
}

TEST(Integration, DagMatchesFedAvgOnIidData) {
  // Sanity: on near-IID data (by-author split) the DAG should be in the same
  // accuracy league as FedAvg after the same number of rounds.
  data::SyntheticDigitsConfig data_config;
  data_config.num_clients = 10;
  data_config.samples_per_client = 80;
  data_config.image_size = 8;
  const auto ds = data::make_fmnist_by_author(data_config);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);

  fl::FedAvg fed(ds, factory, {1, 10, 10, 0.05}, 0.0, 5, 3);
  for (int round = 0; round < 25; ++round) fed.run_round();
  const double fed_mean = fed.mean_inference_accuracy();

  auto ds_copy = ds;
  sim::SimulatorConfig dag_config;
  dag_config.client.alpha = 10.0;
  dag_config.client.train = {1, 10, 10, 0.05};
  dag_config.clients_per_round = 5;
  dag_config.seed = 3;
  sim::DagSimulator simulator(std::move(ds_copy), factory, dag_config);
  simulator.run_rounds(25);
  const auto dag_evals = simulator.network().evaluate_consensus_all();
  double dag_mean = 0.0;
  for (const auto& e : dag_evals) dag_mean += e.accuracy;
  dag_mean /= static_cast<double>(dag_evals.size());

  EXPECT_GT(dag_mean, fed_mean - 0.25);
}

TEST(Integration, DynamicNormalizationHelpsLowAlpha) {
  // Paper Figure 7 / §5.3.1: dynamic normalization raises approval pureness
  // for alpha = 1 (0.40 -> 0.51 in the paper).
  auto run = [](tipsel::Normalization norm) {
    data::SyntheticDigitsConfig data_config;
    data_config.num_clients = 15;
    data_config.samples_per_client = 60;
    data_config.image_size = 8;
    auto ds = data::make_fmnist_clustered(data_config);
    auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
    sim::SimulatorConfig config;
    config.client.alpha = 1.0;
    config.client.normalization = norm;
    config.client.train = {1, 10, 10, 0.05};
    config.clients_per_round = 5;
    config.seed = 21;
    sim::DagSimulator simulator(std::move(ds), factory, config);
    simulator.run_rounds(30);
    return simulator.approval_pureness().pureness;
  };
  const double standard = run(tipsel::Normalization::kStandard);
  const double dynamic = run(tipsel::Normalization::kDynamic);
  EXPECT_GT(dynamic, standard - 0.1);  // directional with slack for noise
}

}  // namespace
}  // namespace specdag
