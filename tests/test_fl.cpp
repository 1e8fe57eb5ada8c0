#include <gtest/gtest.h>

#include "data/synthetic_digits.hpp"
#include "fl/baselines.hpp"
#include "fl/dag_client.hpp"
#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "nn/dense.hpp"
#include "sim/models.hpp"
#include "store/eval_cache.hpp"

namespace specdag::fl {
namespace {

data::FederatedDataset tiny_dataset() {
  data::SyntheticDigitsConfig config;
  config.num_clients = 6;
  config.samples_per_client = 40;
  config.image_size = 8;
  return data::make_fmnist_clustered(config);
}

nn::ModelFactory tiny_factory(const data::FederatedDataset& ds) {
  return sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes);
}

// A fresh simulation-wide evaluation cache, the kind
// core::SpecializingDag::register_client hands every client.
std::shared_ptr<store::ShardedEvalCache> eval_cache() {
  return std::make_shared<store::ShardedEvalCache>();
}

// ------------------------------------------------------------ evaluation ---

TEST(Evaluation, PerfectModelScoresOne) {
  // A model biased to always predict class 0 on a dataset of class 0.
  nn::Sequential model;
  model.add<nn::Dense>(2, 2);
  auto params = model.params();
  params[0].value->data() = {0, 0, 0, 0};
  params[1].value->data() = {10.0f, -10.0f};  // always class 0
  const std::vector<float> x = {1, 2, 3, 4};
  const std::vector<int> y = {0, 0};
  const EvalResult result = evaluate_model(model, model.get_weights(), x, y, {2});
  EXPECT_DOUBLE_EQ(result.accuracy, 1.0);
  EXPECT_LT(result.loss, 1e-6);
  EXPECT_EQ(result.num_examples, 2u);
}

TEST(Evaluation, ChunkingMatchesSinglePass) {
  const auto ds = tiny_dataset();
  nn::Sequential model = tiny_factory(ds)();
  Rng rng(1);
  model.init_params(rng);
  const auto& c = ds.clients[0];
  const nn::WeightVector w = model.get_weights();
  const EvalResult big = evaluate_model(model, w, c.test_x, c.test_y, c.element_shape, 1024);
  const EvalResult small = evaluate_model(model, w, c.test_x, c.test_y, c.element_shape, 1);
  EXPECT_NEAR(big.accuracy, small.accuracy, 1e-12);
  EXPECT_NEAR(big.loss, small.loss, 1e-9);
}

TEST(Evaluation, EmptyOrZeroChunkThrows) {
  nn::Sequential model;
  model.add<nn::Dense>(2, 2);
  const nn::WeightVector w = model.get_weights();
  EXPECT_THROW(evaluate_model(model, w, {}, {}, {2}), std::invalid_argument);
  const std::vector<float> x = {1, 2};
  const std::vector<int> y = {0};
  EXPECT_THROW(evaluate_model(model, w, x, y, {2}, 0), std::invalid_argument);
}

TEST(Evaluation, WeightsOnTestRequiresTestData) {
  const auto ds = tiny_dataset();
  nn::Sequential model = tiny_factory(ds)();
  Rng rng(2);
  model.init_params(rng);
  data::ClientData no_test = ds.clients[0];
  no_test.test_x.clear();
  no_test.test_y.clear();
  EXPECT_THROW(evaluate_weights_on_test(model, model.get_weights(), no_test),
               std::invalid_argument);
}

TEST(FlipRate, DetectsSwappedPredictions) {
  // Model always predicts class 1; test data has labels {0, 1}.
  nn::Sequential model;
  model.add<nn::Dense>(1, 2);
  auto params = model.params();
  params[0].value->data() = {0, 0};
  params[1].value->data() = {-10.0f, 10.0f};
  data::ClientData client;
  client.element_shape = {1};
  client.test_x = {0.5f, 0.5f};
  client.test_y = {0, 1};
  client.train_x = {0.5f};
  client.train_y = {0};
  // Label-0 sample predicted as 1 -> flipped; label-1 sample predicted as 1
  // -> correct. Rate = 1/2.
  EXPECT_DOUBLE_EQ(flip_rate(model, model.get_weights(), client, 0, 1), 0.5);
}

TEST(FlipRate, NoRelevantSamplesGivesZero) {
  nn::Sequential model;
  model.add<nn::Dense>(1, 3);
  data::ClientData client;
  client.element_shape = {1};
  client.test_x = {0.5f};
  client.test_y = {2};
  client.train_x = {0.5f};
  client.train_y = {2};
  Rng rng(3);
  model.init_params(rng);
  EXPECT_DOUBLE_EQ(flip_rate(model, model.get_weights(), client, 0, 1), 0.0);
  EXPECT_THROW(flip_rate(model, model.get_weights(), client, 1, 1), std::invalid_argument);
}

// ---------------------------------------------------------------- trainer --

TEST(Trainer, ReducesLossOnClientData) {
  const auto ds = tiny_dataset();
  nn::Sequential model = tiny_factory(ds)();
  Rng rng(4);
  model.init_params(rng);
  const auto& client = ds.clients[0];
  const EvalResult before =
      evaluate_model(model, model.get_weights(), client.train_x, client.train_y,
                     client.element_shape);
  TrainConfig config{/*epochs=*/5, /*batches=*/10, /*batch_size=*/10, /*lr=*/0.1};
  Rng train_rng(5);
  train_local_sgd(model, client, config, train_rng);
  const EvalResult after =
      evaluate_model(model, model.get_weights(), client.train_x, client.train_y,
                     client.element_shape);
  EXPECT_LT(after.loss, before.loss);
  EXPECT_GT(after.accuracy, before.accuracy);
}

TEST(Trainer, RejectsBadConfig) {
  const auto ds = tiny_dataset();
  nn::Sequential model = tiny_factory(ds)();
  Rng rng(6);
  TrainConfig zero_epochs{0, 10, 10, 0.05};
  EXPECT_THROW(train_local_sgd(model, ds.clients[0], zero_epochs, rng), std::invalid_argument);
  data::ClientData empty;
  empty.element_shape = {4};
  TrainConfig ok{1, 1, 1, 0.05};
  EXPECT_THROW(train_local_sgd(model, empty, ok, rng), std::invalid_argument);
}

TEST(Trainer, DeterministicGivenSeed) {
  const auto ds = tiny_dataset();
  nn::Sequential a = tiny_factory(ds)();
  nn::Sequential b = tiny_factory(ds)();
  Rng init(7);
  a.init_params(init);
  b.set_weights(a.get_weights());
  TrainConfig config{1, 5, 5, 0.05};
  Rng rng_a(8), rng_b(8);
  train_local_sgd(a, ds.clients[0], config, rng_a);
  train_local_sgd(b, ds.clients[0], config, rng_b);
  EXPECT_EQ(a.get_weights(), b.get_weights());
}

// ----------------------------------------------------------------- FedAvg --

TEST(FedAvg, RoundAggregatesUpdates) {
  const auto ds = tiny_dataset();
  FedAvg fed(ds, tiny_factory(ds), {1, 5, 5, 0.05}, 0.0, 3, 9);
  const nn::WeightVector before = fed.inference_weights(0);
  const std::vector<EvalResult> evals = fed.run_round({0, 1, 2});
  EXPECT_EQ(evals.size(), 3u);
  EXPECT_NE(fed.inference_weights(0), before);
}

TEST(FedAvg, AccuracyImprovesOverRounds) {
  const auto ds = tiny_dataset();
  FedAvg fed(ds, tiny_factory(ds), {1, 10, 10, 0.1}, 0.0, ds.clients.size(), 10);
  double first_mean = 0.0, best_mean = 0.0;
  for (int round = 0; round < 60; ++round) {
    fed.run_round();
    const double mean = fed.mean_inference_accuracy();
    if (round == 0) first_mean = mean;
    best_mean = std::max(best_mean, mean);
  }
  // FedAvg converges slowly on fully clustered non-IID shards (that is the
  // paper's very motivation) but must still clearly beat its starting point
  // and the 1/10 random baseline.
  EXPECT_GT(best_mean, first_mean);
  EXPECT_GT(best_mean, 0.3);
}

TEST(FedAvg, ProximalMuLimitsDrift) {
  const auto ds = tiny_dataset();
  const TrainConfig train = {3, 10, 10, 0.1};
  // The same seed gives both the same initial global model; mu = 10 pulls
  // the proximal clients hard towards it.
  FedAvg plain(ds, tiny_factory(ds), train, 0.0, 1, 11);
  FedAvg prox(ds, tiny_factory(ds), train, 10.0, 1, 11);
  const nn::WeightVector start = plain.inference_weights(0);
  ASSERT_EQ(prox.inference_weights(0), start);

  plain.run_round(std::vector<std::size_t>{0});
  prox.run_round(std::vector<std::size_t>{0});
  const double drift_plain = nn::weight_distance(start, plain.inference_weights(0));
  const double drift_prox = nn::weight_distance(start, prox.inference_weights(0));
  EXPECT_LT(drift_prox, drift_plain);
}

TEST(FedAvg, RejectsBadArgs) {
  const auto ds = tiny_dataset();
  const TrainConfig train;
  FedAvg fed(ds, tiny_factory(ds), train, 0.0, 2, 12);
  EXPECT_THROW(fed.run_round(std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_THROW(fed.run_round(std::vector<std::size_t>{99}), std::out_of_range);
  EXPECT_THROW(FedAvg(ds, tiny_factory(ds), train, 0.0, 0, 12), std::invalid_argument);
  EXPECT_THROW(FedAvg(ds, tiny_factory(ds), train, 0.0, 100, 12), std::invalid_argument);
  EXPECT_THROW(FedAvg(ds, tiny_factory(ds), train, -1.0, 2, 13), std::invalid_argument);
}

// FedAvg weights each client's update by its training-set size: a round's
// global model is the num_train()-weighted average of the updates, which
// differs from their plain mean once the clients differ in size.
TEST(FedAvg, AggregationWeightsUpdatesBySampleCount) {
  auto ds = tiny_dataset();
  const auto& donor = ds.clients[1];
  for (int copy = 0; copy < 5; ++copy) {
    ds.clients[0].train_x.insert(ds.clients[0].train_x.end(), donor.train_x.begin(),
                                 donor.train_x.end());
    ds.clients[0].train_y.insert(ds.clients[0].train_y.end(), donor.train_y.begin(),
                                 donor.train_y.end());
  }
  ASSERT_EQ(ds.clients[0].num_train(), 6 * ds.clients[1].num_train());

  const TrainConfig train = {1, 5, 5, 0.1};
  FedAvg fed(ds, tiny_factory(ds), train, 0.0, 2, 14);
  const nn::WeightVector start = fed.inference_weights(0);
  fed.run_round({0, 1});

  // Each client's update, trained as run_round trains it: from the global
  // model, on the stream the round forks for that client and slot.
  nn::Sequential model = tiny_factory(ds)();
  std::vector<nn::WeightVector> updates;
  for (std::size_t slot = 0; slot < 2; ++slot) {
    const data::ClientData& client = ds.clients[slot];
    model.set_weights(start);
    Rng train_rng = Rng(14).fork(0x7E000000ULL +
                                 static_cast<std::uint64_t>(client.client_id) * 1000003ULL + slot);
    train_local_sgd(model, client, train, train_rng);
    updates.push_back(model.get_weights());
  }
  const std::vector<const nn::WeightVector*> update_ptrs{&updates[0], &updates[1]};
  EXPECT_EQ(fed.inference_weights(0),
            nn::weighted_average_weights(
                update_ptrs, {static_cast<double>(ds.clients[0].num_train()),
                              static_cast<double>(ds.clients[1].num_train())}));
  EXPECT_NE(fed.inference_weights(0), nn::weighted_average_weights(update_ptrs, {1.0, 1.0}));
}

// -------------------------------------------------------------- DagClient --

TEST(DagClient, RunRoundPublishesWhenImproving) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential genesis_model = factory();
  Rng genesis_rng(15);
  genesis_model.init_params(genesis_rng);
  dag::Dag dag(genesis_model.get_weights());

  DagClientConfig config;
  config.train = {1, 10, 10, 0.1};
  DagClient client(&ds.clients[0], replicas, config, Rng(16), eval_cache());
  const DagRoundResult result = client.run_round(dag, 1);
  // Training from random genesis weights practically always improves.
  EXPECT_TRUE(result.did_publish());
  EXPECT_EQ(dag.size(), 2u);
  EXPECT_EQ(result.parents, std::vector<dag::TxId>{dag::kGenesisTx});
  EXPECT_GE(result.trained_eval.accuracy, result.reference_eval.accuracy);
}

TEST(DagClient, GateBlocksWorseModels) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential model = factory();
  Rng rng(17);
  model.init_params(rng);
  dag::Dag dag(model.get_weights());

  DagClientConfig config;
  config.train = {1, 1, 2, 1e-6};  // training barely changes anything
  config.publish_if_equal = false;
  DagClient client(&ds.clients[0], replicas, config, Rng(18), eval_cache());
  const DagRoundResult result = client.run_round(dag, 1);
  // Equal accuracy with strict gate -> no publish.
  if (result.trained_eval.accuracy == result.reference_eval.accuracy) {
    EXPECT_FALSE(result.did_publish());
    EXPECT_EQ(dag.size(), 1u);
  }
}

TEST(DagClient, GateDisabledAlwaysPublishes) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential model = factory();
  Rng rng(19);
  model.init_params(rng);
  dag::Dag dag(model.get_weights());

  DagClientConfig config;
  config.train = {1, 1, 2, 1e-9};
  config.publish_gate = false;
  DagClient client(&ds.clients[0], replicas, config, Rng(20), eval_cache());
  const DagRoundResult result = client.run_round(dag, 1);
  EXPECT_TRUE(result.did_publish());
}

TEST(DagClient, RequiresTestData) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  data::ClientData no_test = ds.clients[0];
  no_test.test_x.clear();
  no_test.test_y.clear();
  DagClientConfig config;
  EXPECT_THROW(DagClient(&no_test, replicas, config, Rng(21), eval_cache()),
               std::invalid_argument);
  EXPECT_THROW(DagClient(nullptr, replicas, config, Rng(22), eval_cache()),
               std::invalid_argument);
}

TEST(DagClient, PersistentAccuracyCacheNeedsACache) {
  const auto ds = tiny_dataset();
  nn::ReplicaPool replicas = nn::make_replica_pool(tiny_factory(ds));
  DagClientConfig config;
  EXPECT_THROW(DagClient(&ds.clients[0], replicas, config, Rng(29), nullptr),
               std::invalid_argument);
  config.persistent_accuracy_cache = false;
  EXPECT_NO_THROW(DagClient(&ds.clients[0], replicas, config, Rng(29), nullptr));
}

TEST(DagClient, CommitWithoutPrepareThrows) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential model = factory();
  Rng rng(23);
  model.init_params(rng);
  dag::Dag dag(model.get_weights());
  DagClientConfig config;
  DagClient client(&ds.clients[0], replicas, config, Rng(24), eval_cache());
  DagRoundResult empty;
  EXPECT_THROW(client.commit_round(dag, empty, 0), std::logic_error);
}

TEST(DagClient, WalkStatsPopulated) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential model = factory();
  Rng rng(25);
  model.init_params(rng);
  dag::Dag dag(model.get_weights());
  DagClientConfig config;
  DagClient client(&ds.clients[0], replicas, config, Rng(26), eval_cache());
  client.run_round(dag, 1);
  const DagRoundResult second = client.run_round(dag, 2);
  EXPECT_GT(second.walk_stats.steps, 0u);
  EXPECT_GT(second.walk_stats.evaluations, 0u);
}

TEST(DagClient, RandomSelectorIgnoresAccuracy) {
  const auto ds = tiny_dataset();
  auto factory = tiny_factory(ds);
  nn::ReplicaPool replicas = nn::make_replica_pool(factory);
  nn::Sequential model = factory();
  Rng rng(27);
  model.init_params(rng);
  dag::Dag dag(model.get_weights());
  DagClientConfig config;
  config.selector = SelectorKind::kRandom;
  DagClient client(&ds.clients[0], replicas, config, Rng(28), eval_cache());
  const DagRoundResult result = client.run_round(dag, 1);
  EXPECT_EQ(result.walk_stats.evaluations, 0u);  // random walk never evaluates
}

// ----------------------------------------------------------------- gossip --

TEST(Gossip, RoundUpdatesActiveClients) {
  const auto ds = tiny_dataset();
  Gossip net(ds, tiny_factory(ds), {1, 5, 5, 0.1}, 2, 29);
  const nn::WeightVector before = net.inference_weights(0);
  const auto evals = net.run_round({0, 1});
  EXPECT_EQ(evals.size(), 2u);
  EXPECT_NE(net.inference_weights(0), before);
  EXPECT_EQ(net.inference_weights(2), before);  // inactive client untouched
}

TEST(Gossip, LearnsOverRounds) {
  const auto ds = tiny_dataset();
  Gossip net(ds, tiny_factory(ds), {1, 10, 10, 0.1}, ds.clients.size(), 30);
  std::vector<std::size_t> everyone;
  for (std::size_t i = 0; i < ds.clients.size(); ++i) everyone.push_back(i);
  double first = 0.0, last = 0.0;
  for (int round = 0; round < 15; ++round) {
    const auto evals = net.run_round(everyone);
    double mean = 0.0;
    for (const auto& e : evals) mean += e.accuracy;
    mean /= static_cast<double>(evals.size());
    if (round == 0) first = mean;
    last = mean;
  }
  EXPECT_GT(last, first);
}

TEST(Gossip, RejectsBadArgs) {
  const auto ds = tiny_dataset();
  const TrainConfig train;
  EXPECT_THROW(Gossip(ds, tiny_factory(ds), train, 0, 31), std::invalid_argument);
  Gossip net(ds, tiny_factory(ds), train, 2, 32);
  EXPECT_THROW(net.run_round(std::vector<std::size_t>{}), std::invalid_argument);
  EXPECT_THROW(net.run_round({99}), std::out_of_range);
  EXPECT_THROW(net.inference_weights(99), std::out_of_range);
}

}  // namespace
}  // namespace specdag::fl
