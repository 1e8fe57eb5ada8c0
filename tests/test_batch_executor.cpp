// Bit-identity and gradient correctness of the fused SoA batch executor.
//
// The executor's contract is exact: at any group size and thread count,
// every lane's trained weights and losses are bit-for-bit what the scalar
// per-client path (Sequential + Sgd) produces. These tests pin that
// contract at three levels — raw executor training, numeric gradients
// through the fused backward for every supported layer type, and
// whole-simulation histories across train.batch settings. The BatchExec*
// suites also ride the TSan CI job (fused groups run on pool workers).
#include <gtest/gtest.h>

#include <sstream>

#include "core/specializing_dag.hpp"
#include "data/synthetic_digits.hpp"
#include "fl/trainer.hpp"
#include "nn/activations.hpp"
#include "nn/batch_executor.hpp"
#include "nn/conv.hpp"
#include "nn/dense.hpp"
#include "nn/lstm.hpp"
#include "obs/context.hpp"
#include "obs/metrics.hpp"
#include "sim/async_simulator.hpp"
#include "sim/models.hpp"
#include "sim/simulator.hpp"

namespace specdag {
namespace {

data::FederatedDataset small_dataset(std::size_t num_clients, std::uint64_t seed = 42) {
  data::SyntheticDigitsConfig config;
  config.num_clients = num_clients;
  config.samples_per_client = 40;
  config.image_size = 8;
  config.seed = seed;
  return data::make_fmnist_clustered(config);
}

nn::ModelFactory mlp_factory(const data::FederatedDataset& ds) {
  return sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes);
}

void serialize_result(std::ostream& out, const fl::RoundOutcome& result) {
  out << result.client_id << '|' << result.published << '|' << result.reference << '|';
  for (dag::TxId parent : result.parents) out << parent << ',';
  out << '|' << std::hexfloat << result.trained_eval.accuracy << '|'
      << result.trained_eval.loss << '|' << result.reference_eval.accuracy << '|'
      << result.reference_eval.loss << '|' << result.train_loss << '|' << std::defaultfloat
      << result.walk_stats.steps << '|' << result.walk_stats.evaluations << ';';
}

std::string serialize_history(const std::vector<sim::RoundRecord>& history) {
  std::ostringstream out;
  for (const auto& record : history) {
    out << "round " << record.round << ": ";
    for (const auto& result : record.results) serialize_result(out, result);
    out << '\n';
  }
  return out.str();
}

std::string serialize_trace(const std::vector<sim::AsyncStepRecord>& records) {
  std::ostringstream out;
  for (const auto& record : records) {
    out << std::hexfloat << record.time << std::defaultfloat << '@' << record.client_id
        << ' ';
    serialize_result(out, record.result);
    out << '\n';
  }
  return out.str();
}

TEST(BatchExecTest, ArchitectureSupport) {
  const auto ds = small_dataset(2);
  EXPECT_TRUE(nn::BatchExecutor::architecture_supported(mlp_factory(ds)));
  EXPECT_TRUE(nn::BatchExecutor::architecture_supported(
      sim::make_logreg_factory(shape_numel(ds.element_shape), ds.num_classes)));
  EXPECT_TRUE(nn::BatchExecutor::architecture_supported(
      sim::make_cnn_factory(1, 8, 3, 4, 16, ds.num_classes)));
  // LSTM and Embedding are not fuseable: the executor must refuse (callers
  // then keep the scalar path), also when a single such layer sits inside an
  // otherwise fuseable stack. Only layer types are inspected; the stack
  // never runs.
  EXPECT_FALSE(
      nn::BatchExecutor::architecture_supported(sim::make_lstm_factory(20, 4, 8, 4)));
  const nn::ModelFactory mixed_factory = [&ds] {
    nn::Sequential model;
    model.add<nn::Flatten>();
    model.add<nn::Dense>(shape_numel(ds.element_shape), 8);
    model.add<nn::LSTM>(8, 8);
    model.add<nn::Dense>(8, ds.num_classes);
    return model;
  };
  EXPECT_FALSE(nn::BatchExecutor::architecture_supported(mixed_factory));
  nn::BatchExecutor inert(mixed_factory);
  EXPECT_FALSE(inert.supported());
  EXPECT_THROW(inert.begin(1), std::logic_error);
}

// Trains every client both ways — scalar Sequential+Sgd and fused lanes at
// several group sizes — from identical start weights and rng streams. The
// trained weight vectors and mean losses must match bit for bit.
void check_train_bit_identity(const nn::ModelFactory& factory,
                              const data::FederatedDataset& ds, fl::TrainConfig train) {
  const std::size_t n = ds.clients.size();

  // Common starting point per client: deterministically perturbed inits.
  std::vector<nn::WeightVector> starts(n);
  for (std::size_t i = 0; i < n; ++i) {
    nn::Sequential model = factory();
    Rng init_rng(1000 + i);
    model.init_params(init_rng);
    starts[i] = model.get_weights();
  }

  // Scalar reference.
  std::vector<nn::WeightVector> scalar_weights(n);
  std::vector<double> scalar_loss(n);
  for (std::size_t i = 0; i < n; ++i) {
    nn::Sequential model = factory();
    model.set_weights(starts[i]);
    Rng rng(7000 + i);
    scalar_loss[i] = fl::train_local_sgd(model, ds.clients[i], train, rng);
    scalar_weights[i] = model.get_weights();
  }

  nn::BatchExecutor exec(factory);
  ASSERT_TRUE(exec.supported());
  for (std::size_t group : {std::size_t{1}, std::size_t{3}, std::size_t{16}, n}) {
    std::vector<Rng> rngs;
    rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) rngs.emplace_back(7000 + i);
    for (std::size_t begin = 0; begin < n; begin += group) {
      const std::size_t end = std::min(begin + group, n);
      std::vector<fl::BatchTrainLane> lanes(end - begin);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].client = &ds.clients[begin + l];
        lanes[l].start = &starts[begin + l];
        lanes[l].rng = &rngs[begin + l];
      }
      fl::train_local_batched(exec, lanes, train);
      for (std::size_t l = 0; l < lanes.size(); ++l) {
        EXPECT_EQ(lanes[l].trained, scalar_weights[begin + l])
            << "group " << group << " client " << begin + l;
        EXPECT_EQ(lanes[l].train_loss, scalar_loss[begin + l])
            << "group " << group << " client " << begin + l;
      }
    }
  }
}

TEST(BatchExecTest, TrainMatchesScalarBitwiseMlp) {
  const auto ds = small_dataset(20);
  check_train_bit_identity(mlp_factory(ds), ds, {2, 3, 8, 0.05});
}

TEST(BatchExecTest, TrainMatchesScalarBitwiseCnn) {
  const auto ds = small_dataset(5);
  check_train_bit_identity(sim::make_cnn_factory(1, 8, 3, 4, 16, ds.num_classes), ds,
                           {1, 2, 6, 0.05});
}

TEST(BatchExecTest, TrainMatchesScalarBitwiseFrozenPrefix) {
  const auto ds = small_dataset(7);
  fl::TrainConfig train{1, 3, 8, 0.05};
  train.freeze_prefix_params = 2;  // first Dense (weight + bias) frozen
  check_train_bit_identity(mlp_factory(ds), ds, train);
}

// Numeric gradcheck through the fused backward: the executor's accumulated
// gradient for one lane must match central differences of the mean
// cross-entropy loss computed through the executor's own forward. Run at a
// middle lane of a 3-lane group so SoA offsets are exercised.
void check_executor_gradients(const nn::ModelFactory& factory, const Tensor& input,
                              const std::vector<int>& labels) {
  nn::BatchExecutor exec(factory);
  ASSERT_TRUE(exec.supported());
  const std::size_t kLanes = 3, lane = 1;

  std::vector<nn::WeightVector> weights(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    nn::Sequential model = factory();
    Rng rng(40 + l);
    model.init_params(rng);
    weights[l] = model.get_weights();
  }

  const auto loss_at = [&](const nn::WeightVector& w) {
    exec.begin(1);
    exec.load_weights(0, w);
    exec.forward({&input});
    return exec.loss_and_grad(0, labels);
  };

  exec.begin(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) exec.load_weights(l, weights[l]);
  std::vector<const Tensor*> inputs(kLanes, &input);
  exec.forward(inputs);
  for (std::size_t l = 0; l < kLanes; ++l) exec.loss_and_grad(l, labels);
  exec.backward();
  const nn::WeightVector analytic = exec.gradients(lane);

  nn::WeightVector w = weights[lane];
  const float eps = 1e-2f;
  const std::size_t stride = std::max<std::size_t>(1, w.size() / 48);
  for (std::size_t i = 0; i < w.size(); i += stride) {
    const float original = w[i];
    w[i] = original + eps;
    const double up = loss_at(w);
    w[i] = original - eps;
    const double down = loss_at(w);
    w[i] = original;
    const double numeric = (up - down) / (2.0 * static_cast<double>(eps));
    EXPECT_NEAR(analytic[i], numeric, 5e-2) << "weight coordinate " << i;
  }
}

Tensor random_input(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

TEST(BatchExecTest, GradcheckDenseRelu) {
  // Flatten + Dense + ReLU + Dense: the MLP family.
  check_executor_gradients(sim::make_mlp_factory(12, 6, 4),
                           random_input({5, 12}, 11), {0, 1, 2, 3, 0});
}

TEST(BatchExecTest, GradcheckConvPool) {
  // Conv2D + ReLU + MaxPool2D + Flatten + Dense: the CNN family.
  check_executor_gradients(sim::make_cnn_factory(1, 8, 2, 3, 10, 4),
                           random_input({3, 1, 8, 8}, 13), {0, 3, 2});
}

TEST(BatchExecSim, RoundHistoryInvariantToBatchConfig) {
  const auto ds = small_dataset(6);
  // The MLP and the CNN cover every layer the executor fuses.
  for (const nn::ModelFactory& factory :
       {mlp_factory(ds), sim::make_cnn_factory(1, 8, 3, 4, 16, ds.num_classes)}) {
    auto run = [&factory](std::size_t batch, std::size_t threads) {
      sim::SimulatorConfig config;
      config.client.train = {1, 4, 8, 0.05};
      config.client.train.batch = batch;
      config.clients_per_round = 4;
      config.seed = 99;
      config.threads = threads;
      sim::DagSimulator simulator(small_dataset(6), factory, config);
      simulator.run_rounds(6);
      return serialize_history(simulator.history());
    };
    // batch == 0 is the scalar oracle; every group size and worker count
    // must reproduce it byte for byte.
    const std::string scalar = run(0, 1);
    for (std::size_t batch :
         {std::size_t{1}, std::size_t{3}, std::size_t{16}, std::size_t{64}}) {
      EXPECT_EQ(scalar, run(batch, 1)) << "batch " << batch << " serial";
      EXPECT_EQ(scalar, run(batch, 4)) << "batch " << batch << " threads 4";
    }
  }
}

TEST(BatchExecSim, AsyncTraceInvariantToBatchConfig) {
  // Returns the trace and how many fused training groups the run executed.
  auto run = [](std::size_t batch, std::size_t threads) {
    obs::Context context;
    obs::ContextScope scope(&context);
    auto ds = small_dataset(6);
    sim::AsyncSimulatorConfig config;
    config.client.train = {1, 4, 8, 0.05};
    config.client.train.batch = batch;
    config.broadcast_latency = 0.5;
    config.seed = 1234;
    config.threads = threads;
    std::vector<sim::AsyncClientProfile> profiles(6);
    profiles[1].mean_step_interval = 3.0;
    sim::AsyncDagSimulator simulator(std::move(ds), mlp_factory(small_dataset(6)), config,
                                     profiles);
    const std::string trace = serialize_trace(simulator.run_steps(25));
    return std::make_pair(trace, context.snapshot().counter("train.batches"));
  };
  const auto [scalar, scalar_batches] = run(0, 1);
  EXPECT_EQ(scalar_batches, 0u);
  for (std::size_t batch : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    const auto [serial, serial_batches] = run(batch, 1);
    EXPECT_EQ(scalar, serial) << "batch " << batch << " serial";
    // One thread means no pool, not a separate step path: the executor runs.
    EXPECT_GT(serial_batches, 0u) << "batch " << batch << " serial";
    EXPECT_EQ(scalar, run(batch, 4).first) << "batch " << batch << " threads 4";
  }
}

TEST(BatchExecSim, PrepareBatchMatchesScalarPrepareWithMixedConfigs) {
  // One network runs prepare_batch (chains of one step each) with fused
  // training, a twin at train.batch = 0 prepares each client alone on the
  // scalar path (DagClient::prepare_round), in the same order. Client 2
  // overrides the default train config, so the fused run must route it
  // through the scalar fallback — results still identical.
  const auto ds = small_dataset(4);
  const nn::ModelFactory factory = mlp_factory(ds);
  fl::DagClientConfig config;
  config.train = {1, 3, 8, 0.05};
  fl::DagClientConfig deviant = config;
  deviant.train.local_batches = 2;

  auto build = [&](std::size_t batch) {
    auto net = std::make_unique<core::SpecializingDag>(factory, [&] {
      fl::DagClientConfig c = config;
      c.train.batch = batch;
      return c;
    }(), /*seed=*/5);
    for (std::size_t i = 0; i < ds.clients.size(); ++i) {
      if (i == 2) {
        fl::DagClientConfig c = deviant;
        c.train.batch = batch;
        net->register_client(&ds.clients[i], c);
      } else {
        net->register_client(&ds.clients[i]);
      }
    }
    return net;
  };

  auto batched_net = build(16);
  ASSERT_TRUE(batched_net->batch_exec_enabled());
  std::vector<std::vector<int>> chains = {{0}, {1}, {2}, {3}};
  std::vector<std::vector<fl::DagRoundResult>> batched;
  batched_net->prepare_batch(chains, batched, nullptr);

  auto scalar_net = build(0);
  ASSERT_FALSE(scalar_net->batch_exec_enabled());
  std::ostringstream batched_out, scalar_out;
  for (int handle = 0; handle < 4; ++handle) {
    serialize_result(batched_out, batched[static_cast<std::size_t>(handle)][0]);
    std::vector<std::vector<fl::DagRoundResult>> scalar;
    scalar_net->prepare_batch({{handle}}, scalar, nullptr);
    serialize_result(scalar_out, scalar[0][0]);
  }
  EXPECT_EQ(batched_out.str(), scalar_out.str());
}

}  // namespace
}  // namespace specdag
