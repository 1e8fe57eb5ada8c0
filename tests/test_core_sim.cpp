#include <gtest/gtest.h>

#include <map>

#include "core/specializing_dag.hpp"
#include "data/synthetic_digits.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/models.hpp"
#include "sim/simulator.hpp"

namespace specdag {
namespace {

data::FederatedDataset tiny_dataset(std::size_t clients = 6) {
  data::SyntheticDigitsConfig config;
  config.num_clients = clients;
  config.samples_per_client = 40;
  config.image_size = 8;
  return data::make_fmnist_clustered(config);
}

nn::ModelFactory tiny_factory(const data::FederatedDataset& ds) {
  return sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes);
}

fl::DagClientConfig tiny_config() {
  fl::DagClientConfig config;
  config.train = {1, 8, 8, 0.05};
  return config;
}

// --------------------------------------------------------- model factories --

TEST(ModelFactories, LogregShape) {
  nn::Sequential model = sim::make_logreg_factory(60, 10)();
  EXPECT_EQ(model.num_weights(), 60u * 10 + 10);
  Tensor input({2, 60});
  EXPECT_EQ(model.forward(input, false).shape(), (Shape{2, 10}));
}

TEST(ModelFactories, MlpForward) {
  nn::Sequential model = sim::make_mlp_factory(64, 32, 10)();
  Rng rng(1);
  model.init_params(rng);
  Tensor input({3, 1, 8, 8});
  EXPECT_EQ(model.forward(input, false).shape(), (Shape{3, 10}));
}

TEST(ModelFactories, CnnForward) {
  nn::Sequential model = sim::make_cnn_factory(1, 12, 4, 8, 16, 10)();
  Rng rng(2);
  model.init_params(rng);
  Tensor input({2, 1, 12, 12});
  EXPECT_EQ(model.forward(input, false).shape(), (Shape{2, 10}));
}

TEST(ModelFactories, CifarCnnForward) {
  nn::Sequential model = sim::make_cifar_cnn_factory(3, 16, 4, 8, 8, 32, 16, 20)();
  Rng rng(3);
  model.init_params(rng);
  Tensor input({1, 3, 16, 16});
  EXPECT_EQ(model.forward(input, false).shape(), (Shape{1, 20}));
}

TEST(ModelFactories, LstmForward) {
  nn::Sequential model = sim::make_lstm_factory(20, 4, 8, 20)();
  Rng rng(4);
  model.init_params(rng);
  Tensor tokens({2, 5}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_EQ(model.forward(tokens, false).shape(), (Shape{2, 20}));
}

TEST(ModelFactories, PaperArchitecturesConstruct) {
  // The paper-exact models are big; just verify they build and report the
  // expected parameter counts' orders of magnitude.
  nn::Sequential femnist = sim::make_femnist_cnn_paper()();
  EXPECT_GT(femnist.num_weights(), 6'000'000u);
  nn::Sequential poets = sim::make_poets_lstm_paper(80)();
  EXPECT_GT(poets.num_weights(), 250'000u);
  nn::Sequential cifar = sim::make_cifar_cnn_paper()();
  EXPECT_GT(cifar.num_weights(), 500'000u);
}

TEST(ModelFactories, FactoryReplicasShareArchitecture) {
  auto factory = sim::make_mlp_factory(16, 8, 4);
  nn::Sequential a = factory();
  nn::Sequential b = factory();
  EXPECT_EQ(a.num_weights(), b.num_weights());
  // Weights from one replica load into another.
  Rng rng(5);
  a.init_params(rng);
  EXPECT_NO_THROW(b.set_weights(a.get_weights()));
}

// -------------------------------------------------------- SpecializingDag --

TEST(SpecializingDag, GenesisFromFactory) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  EXPECT_EQ(net.dag().size(), 1u);
  nn::Sequential probe = tiny_factory(ds)();
  EXPECT_EQ(net.dag().weights(dag::kGenesisTx)->size(), probe.num_weights());
}

TEST(SpecializingDag, RegisterAndStep) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  const int h = net.register_client(&ds.clients[0]);
  EXPECT_EQ(net.num_clients(), 1u);
  const fl::DagRoundResult result = net.client_step(h, 1);
  EXPECT_TRUE(result.did_publish());
  EXPECT_EQ(net.dag().size(), 2u);
}

TEST(SpecializingDag, UnknownHandleThrows) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  EXPECT_THROW(net.client_step(0, 1), std::out_of_range);
  EXPECT_THROW(net.client_step(-1, 1), std::out_of_range);
}

TEST(SpecializingDag, ConsensusWeightsMatchReference) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  const int h = net.register_client(&ds.clients[0]);
  net.client_step(h, 1);
  const nn::WeightVector weights = net.consensus_weights(h);
  nn::Sequential probe = tiny_factory(ds)();
  EXPECT_EQ(weights.size(), probe.num_weights());
}

TEST(SpecializingDag, PerClientConfigOverride) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  fl::DagClientConfig random_config = tiny_config();
  random_config.selector = fl::SelectorKind::kRandom;
  const int h = net.register_client(&ds.clients[0], random_config);
  EXPECT_EQ(net.client(h).config().selector, fl::SelectorKind::kRandom);
}

TEST(SpecializingDag, SplitPhasePrepareCommit) {
  const auto ds = tiny_dataset();
  core::SpecializingDag net(tiny_factory(ds), tiny_config(), 7);
  const int h0 = net.register_client(&ds.clients[0]);
  const int h1 = net.register_client(&ds.clients[1]);
  std::vector<std::vector<fl::DagRoundResult>> results;
  net.prepare_batch({{h0}, {h1}}, results, nullptr);
  EXPECT_EQ(net.dag().size(), 1u);  // nothing committed yet
  net.commit(h0, results[0][0], 1);
  net.commit(h1, results[1][0], 1);
  EXPECT_EQ(net.dag().size(), 3u);
}

// ------------------------------------------------------------- simulator ---

TEST(DagSimulator, RunsRoundsAndRecordsHistory) {
  auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  sim::SimulatorConfig config;
  config.client = tiny_config();
  config.clients_per_round = 3;
  config.seed = 11;
  sim::DagSimulator simulator(std::move(ds), factory, config);
  simulator.run_rounds(5);
  EXPECT_EQ(simulator.history().size(), 5u);
  EXPECT_EQ(simulator.current_round(), 5u);
  for (const auto& record : simulator.history()) {
    EXPECT_EQ(record.results.size(), 3u);
  }
  EXPECT_GT(simulator.dag().size(), 1u);
}

TEST(DagSimulator, ParallelAndSerialAgree) {
  auto make = [](bool parallel) {
    auto ds = tiny_dataset();
    auto factory = tiny_factory(ds);
    sim::SimulatorConfig config;
    config.client = tiny_config();
    config.clients_per_round = 3;
    config.seed = 13;
    config.parallel_prepare = parallel;
    sim::DagSimulator simulator(std::move(ds), factory, config);
    simulator.run_rounds(4);
    return simulator.dag().size();
  };
  EXPECT_EQ(make(true), make(false));
}

TEST(DagSimulator, DeterministicGivenSeed) {
  auto run = [] {
    auto ds = tiny_dataset();
    auto factory = tiny_factory(ds);
    sim::SimulatorConfig config;
    config.client = tiny_config();
    config.clients_per_round = 3;
    config.seed = 17;
    config.parallel_prepare = false;
    sim::DagSimulator simulator(std::move(ds), factory, config);
    simulator.run_rounds(4);
    std::vector<double> accs;
    for (const auto& r : simulator.history()) accs.push_back(r.mean_trained_accuracy());
    return accs;
  };
  EXPECT_EQ(run(), run());
}

TEST(DagSimulator, PoisoningMarksTransactions) {
  auto ds = tiny_dataset(9);
  auto factory = tiny_factory(ds);
  sim::SimulatorConfig config;
  config.client = tiny_config();
  config.clients_per_round = 4;
  config.seed = 19;
  sim::DagSimulator simulator(std::move(ds), factory, config);
  simulator.run_rounds(2);
  const auto poisoned = simulator.apply_poisoning(0.34, 3, 8);
  EXPECT_EQ(poisoned.size(), 3u);
  simulator.run_rounds(4);
  std::size_t poisoned_txs = 0;
  for (dag::TxId id : simulator.dag().all_ids()) {
    if (simulator.dag().transaction(id).poisoned_publisher) ++poisoned_txs;
  }
  EXPECT_GT(poisoned_txs, 0u);
}

TEST(DagSimulator, MetricsRunOnHistory) {
  auto ds = tiny_dataset(9);
  auto factory = tiny_factory(ds);
  sim::SimulatorConfig config;
  config.client = tiny_config();
  config.clients_per_round = 4;
  config.seed = 23;
  sim::DagSimulator simulator(std::move(ds), factory, config);
  simulator.run_rounds(8);
  const auto pureness = simulator.approval_pureness();
  EXPECT_GE(pureness.pureness, 0.0);
  EXPECT_LE(pureness.pureness, 1.0);
  Rng louvain_rng = Rng(23).fork(0x10CA);
  const auto louvain =
      metrics::louvain(metrics::build_client_graph(simulator.dag(), 9), louvain_rng);
  EXPECT_EQ(louvain.partition.size(), 9u);
  const auto evals = simulator.network().evaluate_consensus_all();
  EXPECT_EQ(evals.size(), 9u);
  EXPECT_EQ(simulator.true_clusters().size(), 9u);
}

TEST(DagSimulator, RejectsBadClientsPerRound) {
  auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  sim::SimulatorConfig config;
  config.clients_per_round = 99;
  EXPECT_THROW(sim::DagSimulator(std::move(ds), factory, config), std::invalid_argument);
}

TEST(RoundRecord, Aggregations) {
  sim::RoundRecord record;
  fl::DagRoundResult a, b;
  a.trained_eval.accuracy = 0.4;
  a.published = 5;
  b.trained_eval.accuracy = 0.8;
  record.results = {a, b};
  EXPECT_DOUBLE_EQ(record.mean_trained_accuracy(), 0.6);
  EXPECT_EQ(record.publish_count(), 1u);
}

// --------------------------------------------------------------- presets ---

TEST(Presets, AllConstructAndValidate) {
  for (auto make : {sim::fmnist_clustered_preset, sim::fmnist_relaxed_preset,
                    sim::fmnist_by_author_preset, sim::poets_preset, sim::cifar_preset,
                    sim::fedprox_synthetic_preset}) {
    const sim::ExperimentPreset preset = make({});
    EXPECT_FALSE(preset.name.empty());
    EXPECT_NO_THROW(preset.dataset.validate());
    // Model accepts the dataset's element shape.
    nn::Sequential model = preset.factory();
    Rng rng(29);
    model.init_params(rng);
    const auto& client = preset.dataset.clients[0];
    const data::Batch batch =
        data::full_batch(client.test_x, client.test_y, client.element_shape);
    const Tensor logits = model.forward(batch.inputs, false);
    EXPECT_EQ(logits.dim(1), preset.dataset.num_classes);
  }
}

TEST(Presets, Table1HyperparametersEncoded) {
  const auto fmnist = sim::fmnist_clustered_preset({});
  EXPECT_EQ(fmnist.sim.client.train.local_epochs, 1u);
  EXPECT_EQ(fmnist.sim.client.train.local_batches, 10u);
  EXPECT_EQ(fmnist.sim.client.train.batch_size, 10u);
  EXPECT_DOUBLE_EQ(fmnist.sim.client.train.learning_rate, 0.05);

  const auto poets = sim::poets_preset({});
  EXPECT_EQ(poets.sim.client.train.local_batches, 35u);
  EXPECT_DOUBLE_EQ(poets.sim.client.train.learning_rate, 0.8);

  const auto cifar = sim::cifar_preset({});
  EXPECT_EQ(cifar.sim.client.train.local_epochs, 5u);
  EXPECT_EQ(cifar.sim.client.train.local_batches, 45u);
  EXPECT_DOUBLE_EQ(cifar.sim.client.train.learning_rate, 0.01);

  for (const auto& preset : {fmnist, poets, cifar}) {
    EXPECT_EQ(preset.sim.rounds, 100u);
    EXPECT_EQ(preset.sim.clients_per_round, 10u);
  }
}

TEST(Presets, CifarHasPaperClientStructure) {
  const auto preset = sim::cifar_preset({});
  EXPECT_EQ(preset.dataset.clients.size(), 94u);  // paper §5.1.3
  EXPECT_EQ(preset.dataset.num_clusters, 20u);
  EXPECT_EQ(preset.dataset.num_classes, 100u);
}

// Size overrides apply to the preset's own config: a paper-scale preset
// keeps its 28x28 images (and the paper CNN accepts them) when only the
// client count changes.
TEST(Presets, SizeOverridesKeepThePaperScaleShape) {
  for (const auto& make : {sim::fmnist_clustered_preset, sim::fmnist_relaxed_preset,
                           sim::fmnist_by_author_preset}) {
    const auto preset = make({42, true, 6, 0});
    SCOPED_TRACE(preset.name);
    EXPECT_EQ(preset.dataset.element_shape, (Shape{1, 28, 28}));
    ASSERT_EQ(preset.dataset.clients.size(), 6u);
    const auto& client = preset.dataset.clients[0];
    EXPECT_EQ(client.num_train() + client.num_test(), 120u);  // the paper-scale size
    nn::Sequential model = preset.factory();
    const data::Batch batch =
        data::full_batch(client.test_x, client.test_y, client.element_shape);
    EXPECT_EQ(model.forward(batch.inputs, false).dim(1), preset.dataset.num_classes);
  }
}

// "0 = preset default": overriding one size keeps the preset's other one.
TEST(Presets, SizeOverridesKeepThePresetsOtherSize) {
  const auto by_author = sim::fmnist_by_author_preset({42, false, 12, 0});
  ASSERT_EQ(by_author.dataset.clients.size(), 12u);
  const auto& client = by_author.dataset.clients[0];
  EXPECT_EQ(client.num_train() + client.num_test(), 80u);
  const auto resized = sim::fmnist_clustered_preset({42, false, 0, 40});
  EXPECT_EQ(resized.dataset.clients.size(),
            sim::fmnist_clustered_preset({}).dataset.clients.size());
  EXPECT_EQ(resized.dataset.clients[0].num_train() + resized.dataset.clients[0].num_test(), 40u);
}

// --------------------------------------------------------- async simulator --

data::FederatedDataset async_dataset() {
  data::SyntheticDigitsConfig config;
  config.num_clients = 9;
  config.samples_per_client = 60;
  config.image_size = 8;
  return data::make_fmnist_clustered(config);
}

sim::AsyncSimulatorConfig async_config() {
  sim::AsyncSimulatorConfig config;
  config.client.train = {1, 8, 8, 0.05};
  config.seed = 13;
  return config;
}

TEST(AsyncSimulator, RunsRequestedSteps) {
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  sim::AsyncDagSimulator simulator(std::move(ds), factory, async_config());
  const auto records = simulator.run_steps(30);
  EXPECT_EQ(records.size(), 30u);
  EXPECT_EQ(simulator.total_steps(), 30u);
  // Event times are non-decreasing.
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].time, records[i - 1].time);
  }
  EXPECT_GT(simulator.dag().size(), 1u);
}

TEST(AsyncSimulator, Deterministic) {
  auto run = [] {
    auto ds = async_dataset();
    auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
    sim::AsyncDagSimulator simulator(std::move(ds), factory, async_config());
    simulator.run_steps(20);
    return std::make_pair(simulator.dag().size(), simulator.now());
  };
  EXPECT_EQ(run(), run());
}

TEST(AsyncSimulator, FastClientsStepMoreOften) {
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  std::vector<sim::AsyncClientProfile> profiles(9, {1.0});
  profiles[0].mean_step_interval = 0.1;  // 10x faster than everyone else
  sim::AsyncDagSimulator simulator(std::move(ds), factory, async_config(),
                                   std::move(profiles));
  const auto records = simulator.run_steps(120);
  std::map<int, int> steps_per_client;
  for (const auto& r : records) steps_per_client[r.client_id]++;
  for (const auto& [client, steps] : steps_per_client) {
    if (client != 0) EXPECT_LT(steps, steps_per_client[0]);
  }
}

TEST(AsyncSimulator, RunUntilAdvancesClock) {
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  sim::AsyncDagSimulator simulator(std::move(ds), factory, async_config());
  const auto records = simulator.run_until(2.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 2.0);
  for (const auto& r : records) EXPECT_LE(r.time, 2.0);
}

TEST(AsyncSimulator, BroadcastLatencyDelaysVisibility) {
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  sim::AsyncSimulatorConfig config = async_config();
  config.broadcast_latency = 100.0;  // longer than the horizon below
  config.client.publish_gate = false;
  sim::AsyncDagSimulator simulator(std::move(ds), factory, config);
  simulator.run_until(5.0);
  EXPECT_EQ(simulator.dag().size(), 1u);  // nothing became visible yet
  EXPECT_GT(simulator.total_steps(), 0u);
}

TEST(AsyncSimulator, SpecializationEmergesAsynchronously) {
  // The paper's core claim must not depend on the round abstraction. Note
  // the essential role of broadcast latency here: with instantaneous
  // visibility every step consumes two tips and adds one, the tip set
  // collapses towards a chain, and clients are *forced* into cross-cluster
  // approvals (generalist models emerge instead of specialists). Latency in
  // the order of the step interval keeps the DAG wide, exactly like the
  // concurrent rounds of the synchronous simulator.
  data::SyntheticDigitsConfig dconfig;
  dconfig.num_clients = 15;
  dconfig.samples_per_client = 100;
  dconfig.image_size = 10;
  auto ds = data::make_fmnist_clustered(dconfig);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
  sim::AsyncSimulatorConfig config;
  config.client.train = {1, 10, 10, 0.05};
  config.client.alpha = 10.0;
  config.broadcast_latency = 0.3;  // ~a third of the mean step interval
  config.seed = 17;
  sim::AsyncDagSimulator simulator(std::move(ds), factory, config);
  simulator.run_steps(250);
  EXPECT_GT(simulator.approval_pureness().pureness, 0.7);
}

TEST(AsyncSimulator, ZeroLatencyCollapsesSpecialization) {
  // The inverse of the test above, pinned as a regression: instantaneous
  // broadcast shrinks the tip set to a near-chain and pureness stays close
  // to the 1/3 random base even at alpha = 10.
  data::SyntheticDigitsConfig dconfig;
  dconfig.num_clients = 15;
  dconfig.samples_per_client = 100;
  dconfig.image_size = 10;
  auto ds = data::make_fmnist_clustered(dconfig);
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 24, 10);
  sim::AsyncSimulatorConfig config;
  config.client.train = {1, 10, 10, 0.05};
  config.client.alpha = 10.0;
  config.broadcast_latency = 0.0;
  config.seed = 17;
  sim::AsyncDagSimulator simulator(std::move(ds), factory, config);
  simulator.run_steps(250);
  EXPECT_LT(simulator.approval_pureness().pureness, 0.6);
}

TEST(AsyncSimulator, ZeroLatencyRunStepsLeavesNoBroadcastInFlight) {
  // With instantaneous broadcast a step's commit is due at the step's own
  // time: run_steps must return with every gate-passing step in the DAG,
  // not with its broadcast still queued.
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  sim::AsyncSimulatorConfig config = async_config();
  config.broadcast_latency = 0.0;
  sim::AsyncDagSimulator simulator(std::move(ds), factory, config);
  std::size_t passed = 0;
  for (std::size_t steps : {1u, 7u, 12u}) {
    for (const auto& record : simulator.run_steps(steps)) {
      passed += record.result.passes_gate(config.client.publish_if_equal);
      // Records never carry the commit's id: it happens at the broadcast.
      EXPECT_FALSE(record.result.did_publish());
    }
    EXPECT_EQ(simulator.dag().size(), 1 + passed) << "after " << steps << " steps";
    EXPECT_EQ(simulator.perf().commits, passed);
  }
  EXPECT_GT(passed, 0u);
}

TEST(AsyncSimulator, RejectsBadConfig) {
  auto ds = async_dataset();
  auto factory = sim::make_mlp_factory(shape_numel(ds.element_shape), 16, 10);
  sim::AsyncSimulatorConfig config = async_config();
  config.broadcast_latency = -1.0;
  EXPECT_THROW(sim::AsyncDagSimulator(async_dataset(), factory, config),
               std::invalid_argument);
  config = async_config();
  std::vector<sim::AsyncClientProfile> wrong_count(3);
  EXPECT_THROW(sim::AsyncDagSimulator(async_dataset(), factory, config, wrong_count),
               std::invalid_argument);
  std::vector<sim::AsyncClientProfile> bad_rate(9, {0.0});
  EXPECT_THROW(sim::AsyncDagSimulator(async_dataset(), factory, config, bad_rate),
               std::invalid_argument);
}

}  // namespace
}  // namespace specdag
