// Determinism guarantees of the simulators and the scenario engine: the
// same seed must reproduce the same experiment bit for bit — histories,
// event traces, and scenario results (wall time aside). The serializations
// below use hexfloat so the comparison is exact at the bit level.
#include <gtest/gtest.h>

#include <sstream>

#include "data/synthetic_digits.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/async_simulator.hpp"
#include "sim/experiment.hpp"
#include "sim/models.hpp"
#include "sim/simulator.hpp"

namespace specdag {
namespace {

data::FederatedDataset tiny_dataset(std::uint64_t seed = 42) {
  data::SyntheticDigitsConfig config;
  config.num_clients = 6;
  config.samples_per_client = 40;
  config.image_size = 8;
  config.seed = seed;
  return data::make_fmnist_clustered(config);
}

nn::ModelFactory tiny_factory(const data::FederatedDataset& ds) {
  return sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes);
}

void serialize_result(std::ostream& out, const fl::DagRoundResult& result) {
  out << result.client_id << '|' << result.published << '|' << result.reference << '|';
  for (dag::TxId parent : result.parents) out << parent << ',';
  out << '|' << std::hexfloat << result.trained_eval.accuracy << '|'
      << result.trained_eval.loss << '|' << result.reference_eval.accuracy << '|'
      << result.reference_eval.loss << '|' << result.train_loss << '|' << std::defaultfloat
      << result.walk_stats.steps << '|' << result.walk_stats.evaluations << ';';
}

// Everything in a round history except wall-clock walk timings.
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
    out << std::hexfloat << record.time << std::defaultfloat << '@' << record.client_id << ' ';
    serialize_result(out, record.result);
    out << '\n';
  }
  return out.str();
}

TEST(Determinism, RoundHistoryIsByteIdentical) {
  auto run = [](bool parallel, std::size_t threads) {
    auto ds = tiny_dataset();
    sim::SimulatorConfig config;
    config.client.train = {1, 4, 8, 0.05};
    config.clients_per_round = 3;
    config.seed = 99;
    config.parallel_prepare = parallel;
    config.threads = threads;
    sim::DagSimulator simulator(std::move(ds), tiny_factory(tiny_dataset()), config);
    simulator.run_rounds(6);
    return serialize_history(simulator.history());
  };
  const std::string first = run(true, 0);
  EXPECT_EQ(first, run(true, 0));
  // Thread scheduling must not leak into results: the parallel and serial
  // prepare paths produce the same history, at any worker count.
  EXPECT_EQ(first, run(false, 0));
  EXPECT_EQ(first, run(true, 1));
  EXPECT_EQ(first, run(true, 3));
  EXPECT_EQ(first, run(true, 8));
}

TEST(Determinism, RoundHistoryChangesWithSeed) {
  auto run = [](std::uint64_t seed) {
    auto ds = tiny_dataset();
    sim::SimulatorConfig config;
    config.client.train = {1, 4, 8, 0.05};
    config.clients_per_round = 3;
    config.seed = seed;
    sim::DagSimulator simulator(std::move(ds), tiny_factory(tiny_dataset()), config);
    simulator.run_rounds(4);
    return serialize_history(simulator.history());
  };
  EXPECT_NE(run(7), run(8));
}

TEST(Determinism, AsyncEventTraceIsByteIdentical) {
  auto run = [](std::size_t threads) {
    auto ds = tiny_dataset();
    sim::AsyncSimulatorConfig config;
    config.client.train = {1, 4, 8, 0.05};
    config.broadcast_latency = 0.5;
    config.seed = 1234;
    config.threads = threads;
    std::vector<sim::AsyncClientProfile> profiles(6);
    profiles[1].mean_step_interval = 3.0;  // heterogeneous rates included
    sim::AsyncDagSimulator simulator(std::move(ds), tiny_factory(tiny_dataset()), config,
                                     profiles);
    return serialize_trace(simulator.run_steps(25));
  };
  const std::string serial = run(1);
  EXPECT_EQ(serial, run(1));
  // The batched prepare phase replays the serial event schedule exactly:
  // any worker count reproduces the serial trace byte for byte.
  EXPECT_EQ(serial, run(0));
  EXPECT_EQ(serial, run(4));
}

TEST(Determinism, AsyncBatchedPrepareMatchesSerialAcrossLatencies) {
  // Sweep the latency across regimes (dense interleaving, long visibility
  // gaps): the batch boundaries move, the trace must not. run_until slices
  // the horizon the way the scenario runner does.
  for (double latency : {0.05, 0.3, 2.0}) {
    auto run = [&](std::size_t threads) {
      auto ds = tiny_dataset();
      sim::AsyncSimulatorConfig config;
      config.client.train = {1, 2, 8, 0.05};
      config.broadcast_latency = latency;
      config.seed = 77;
      config.threads = threads;
      sim::AsyncDagSimulator simulator(std::move(ds), tiny_factory(tiny_dataset()), config);
      std::string trace;
      for (int unit = 1; unit <= 6; ++unit) {
        trace += serialize_trace(simulator.run_until(static_cast<double>(unit)));
      }
      return trace;
    };
    EXPECT_EQ(run(1), run(4)) << "latency " << latency;
  }
}

TEST(Determinism, ScenarioResultsAreReproducible) {
  scenario::ScenarioSpec spec = scenario::get_scenario("churn");
  spec.num_clients = 6;
  spec.samples_per_client = 40;
  spec.rounds = 8;
  spec.clients_per_round = 3;
  spec.client.train = {1, 4, 8, 0.05};
  spec.dynamics.churn = {0.34, 2, 6};

  auto fingerprint = [&] {
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    std::ostringstream out;
    out << std::hexfloat;
    out << result.dag_size << '|' << result.final_accuracy << '|' << result.pureness << '|'
        << result.modularity << '|' << result.communities << '|'
        << result.mean_cumulative_weight << '\n';
    for (const auto& point : result.series) {
      out << point.round << ',' << point.mean_accuracy << ',' << point.mean_loss << ','
          << point.publishes << ',' << point.dag_size << ',' << point.active_clients << ';';
    }
    return out.str();
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

TEST(Determinism, AsyncEncodePipelineIsBitIdenticalToSynchronous) {
  // A shrunken scale-2k: the async simulator with the delta store — the
  // configuration whose encoding moved off the commit path. The JSONL
  // series, final accuracies, and (post-drain) store decisions must be
  // bit-identical across encode modes, encode worker counts, and prepare
  // thread counts. Only wall-clock timing fields may differ.
  auto run = [](bool async_encode, std::size_t encode_threads, std::size_t threads) {
    scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
    spec.num_clients = 40;
    spec.samples_per_client = 20;
    spec.rounds = 2;
    spec.threads = threads;
    spec.store.async_encode = async_encode;
    spec.store.encode_threads = encode_threads;
    return scenario::run_scenario(spec);
  };

  // The raw write_series_jsonl bytes (the stream has no wall-clock field).
  auto series_jsonl = [](const scenario::ScenarioResult& result) {
    std::ostringstream out;
    scenario::write_series_jsonl(result, out);
    return out.str();
  };

  const scenario::ScenarioResult sync = run(false, 1, 1);
  const std::string sync_jsonl = series_jsonl(sync);
  ASSERT_FALSE(sync_jsonl.empty());

  const std::pair<std::size_t, std::size_t> configs[] = {{1, 1}, {4, 1}, {1, 4}, {4, 4}};
  for (const auto& [encode_threads, threads] : configs) {
    const scenario::ScenarioResult async = run(true, encode_threads, threads);
    EXPECT_EQ(series_jsonl(async), sync_jsonl)
        << "encode_threads " << encode_threads << ", threads " << threads;
    EXPECT_EQ(async.final_accuracy, sync.final_accuracy);
    EXPECT_EQ(async.dag_size, sync.dag_size);
    // The runner drains before sampling the final store stats: the async
    // pipeline must land on the synchronous delta/anchor decisions exactly.
    EXPECT_EQ(async.store_stats.pending_encodes, 0u);
    EXPECT_EQ(async.store_stats.anchors, sync.store_stats.anchors);
    EXPECT_EQ(async.store_stats.deltas, sync.store_stats.deltas);
    EXPECT_EQ(async.store_stats.resident_payload_bytes,
              sync.store_stats.resident_payload_bytes);
    EXPECT_DOUBLE_EQ(async.store_stats.delta_ratio(), sync.store_stats.delta_ratio());
  }
}

TEST(Determinism, AsyncScenarioWithDynamicsIsReproducible) {
  scenario::ScenarioSpec spec = scenario::get_scenario("stragglers");
  spec.num_clients = 6;
  spec.samples_per_client = 40;
  spec.rounds = 5;
  spec.client.train = {1, 4, 8, 0.05};

  auto fingerprint = [&] {
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    std::ostringstream out;
    out << std::hexfloat;
    for (const auto& point : result.series) {
      out << point.round << ',' << point.mean_accuracy << ',' << point.publishes << ','
          << point.dag_size << ';';
    }
    return out.str();
  };
  EXPECT_EQ(fingerprint(), fingerprint());
}

}  // namespace
}  // namespace specdag
