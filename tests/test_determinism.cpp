// Determinism guarantees of the simulators and the scenario engine: the
// same seed must reproduce the same experiment bit for bit — histories,
// event traces, and scenario results (wall time aside). The serializations
// below use hexfloat so the comparison is exact at the bit level.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

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

// `published` is left out of async traces: AsyncStepRecord never carries it
// (the commit happens at the broadcast event), so those traces pin commits
// through the DAG size instead.
void serialize_result(std::ostream& out, const fl::RoundOutcome& result,
                      bool with_published = true) {
  out << result.client_id << '|';
  if (with_published) out << result.published << '|';
  out << result.reference << '|';
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
    serialize_result(out, record.result, /*with_published=*/false);
    out << '\n';
  }
  return out.str();
}

// The async traces are pinned to fixtures recorded from the retired serial
// step scheduler (one scalar prepare per event). Set SPECDAG_REGEN_GOLDEN to
// rewrite them from the current code.
std::string golden_trace(const std::string& name, const std::string& actual) {
  const std::string path = std::string(SPECDAG_GOLDEN_DIR) + "/" + name;
  if (std::getenv("SPECDAG_REGEN_GOLDEN") != nullptr) {
    std::ofstream(path, std::ios::binary) << actual;
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
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
    std::string trace = serialize_trace(simulator.run_steps(25));
    return trace + "dag " + std::to_string(simulator.dag().size()) + '\n';
  };
  const std::string serial = run(1);
  // The batch boundaries are set by event times alone: any worker count
  // reproduces the serial scheduler's trace byte for byte.
  const std::string golden = golden_trace("async-event-trace.txt", serial);
  EXPECT_EQ(golden, serial);
  EXPECT_EQ(golden, run(0));  // the default: one worker per hardware thread
  EXPECT_EQ(golden, run(4));
}

TEST(Determinism, AsyncBatchedPrepareMatchesSerialAcrossLatencies) {
  // Sweep the latency across regimes (instantaneous visibility, dense
  // interleaving, long visibility gaps): the batch boundaries move, the trace
  // must not. run_until slices the horizon the way the scenario runner does.
  auto run = [](std::size_t threads) {
    std::string trace;
    for (double latency : {0.0, 0.05, 0.3, 2.0}) {
      auto ds = tiny_dataset();
      sim::AsyncSimulatorConfig config;
      config.client.train = {1, 2, 8, 0.05};
      config.broadcast_latency = latency;
      config.seed = 77;
      config.threads = threads;
      sim::AsyncDagSimulator simulator(std::move(ds), tiny_factory(tiny_dataset()), config);
      std::ostringstream header;
      header << "latency " << latency << '\n';
      trace += header.str();
      for (int unit = 1; unit <= 6; ++unit) {
        trace += serialize_trace(simulator.run_until(static_cast<double>(unit)));
        trace += "dag " + std::to_string(simulator.dag().size()) + '\n';
      }
    }
    return trace;
  };
  const std::string serial = run(1);
  const std::string golden = golden_trace("async-latency-traces.txt", serial);
  EXPECT_EQ(golden, serial);
  EXPECT_EQ(golden, run(4));
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
  // bit-identical across encode modes and prepare thread counts. Only
  // wall-clock timing fields may differ.
  auto run = [](bool async_encode, std::size_t threads) {
    scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
    spec.num_clients = 40;
    spec.samples_per_client = 20;
    spec.rounds = 2;
    spec.threads = threads;
    spec.store.async_encode = async_encode;
    return scenario::run_scenario(spec);
  };

  // The raw write_series_jsonl bytes (the stream has no wall-clock field).
  auto series_jsonl = [](const scenario::ScenarioResult& result) {
    std::ostringstream out;
    scenario::write_series_jsonl(result, out);
    return out.str();
  };

  const scenario::ScenarioResult sync = run(false, 1);
  const std::string sync_jsonl = series_jsonl(sync);
  ASSERT_FALSE(sync_jsonl.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const scenario::ScenarioResult async = run(true, threads);
    EXPECT_EQ(series_jsonl(async), sync_jsonl) << "threads " << threads;
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

// Summary fields that legitimately differ between two runs of one spec:
// wall-clock timings, what the background encoder's progress decides — a
// materialization hits the LRU or decodes depending on whether the encoder
// replaced the raw vector first — and, above one thread, how many model
// replicas the peak of concurrent leases built. Each entry is the path of
// one object member; obs metric names contain dots, so paths are lists.
const std::vector<std::vector<std::string>> kScheduleDependentSummaryFields = {
    {"wall_seconds"},
    {"perf", "tipsel_seconds"},
    {"perf", "train_seconds"},
    {"perf", "eval_seconds"},
    {"perf", "commit_seconds"},
    {"perf", "encode_seconds"},
    {"perf", "total_seconds"},
    {"perf", "setup_seconds"},
    {"perf", "finalize_seconds"},
    {"perf", "unaccounted_seconds"},
    {"perf", "utilization"},
    {"store", "decoded_payloads"},
    {"store", "lru_hit_rate"},
    {"store", "peak_pending_encodes"},
    {"store", "residency"},
    {"obs", "counters", "nn.replicas_built"},
    {"obs", "counters", "pool.encode.busy_nanos"},
    {"obs", "counters", "pool.encode.idle_nanos"},
    {"obs", "counters", "pool.prepare.busy_nanos"},
    {"obs", "counters", "pool.prepare.idle_nanos"},
    {"obs", "counters", "store.decodes"},
    {"obs", "counters", "store.lru_hits"},
    {"obs", "counters", "store.lru_misses"},
    {"obs", "histograms", "phase.advance_ns"},
    {"obs", "histograms", "phase.commit_ns"},
    {"obs", "histograms", "phase.encode.async_ns"},
    {"obs", "histograms", "phase.encode.inline_ns"},
    {"obs", "histograms", "phase.eval_ns"},
    {"obs", "histograms", "phase.exec.train_ns"},
    {"obs", "histograms", "phase.finalize_ns"},
    {"obs", "histograms", "phase.round_ns"},
    {"obs", "histograms", "phase.setup_ns"},
    {"obs", "histograms", "phase.tipsel.reference_ns"},
    {"obs", "histograms", "phase.tipsel_ns"},
    {"obs", "histograms", "phase.train_ns"},
    {"obs", "histograms", "pool.encode.task_wait_us"},
    {"obs", "histograms", "pool.prepare.task_wait_us"},
    {"obs", "histograms", "store.encode_queue_depth"},
    {"obs", "histograms", "tipsel.start_us"},
    {"obs", "histograms", "tipsel.walk_us"},
    // Per-round counter deltas: encode tasks and LRU traffic land in
    // whichever round the encoder reached them.
    {"obs", "rounds"},
};

void erase_member(scenario::Json& json, const std::vector<std::string>& path,
                  std::size_t depth = 0) {
  if (!json.is_object()) return;
  auto& members = json.as_object();
  for (auto it = members.begin(); it != members.end(); ++it) {
    if (it->first != path[depth]) continue;
    if (depth + 1 == path.size()) {
      members.erase(it);
    } else {
      erase_member(it->second, path, depth + 1);
    }
    return;
  }
}

TEST(Determinism, ScaleSummaryDiffersOnlyInScheduleDependentFields) {
  // A shrunken scale-2k, with an LRU small enough that materializations
  // decode: two runs at the same thread count must agree on every summary
  // field outside the schedule-dependent list.
  auto summary = [](std::size_t threads) {
    scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
    spec.num_clients = 200;
    spec.threads = threads;
    spec.store.lru_bytes = std::size_t{1} << 20;
    scenario::Json json = *scenario::result_to_json(scenario::run_scenario(spec)).find("summary");
    for (const auto& path : kScheduleDependentSummaryFields) erase_member(json, path);
    return json.dump(2);
  };
  for (std::size_t threads : {1, 4}) EXPECT_EQ(summary(threads), summary(threads)) << threads;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Step and round records hold a round's outcome and no payload, so a unit's
// records cannot keep its trained and averaged models alive after their
// commits; the payloads travel only with the broadcast events.
static_assert(std::is_same_v<decltype(sim::AsyncStepRecord::result), fl::RoundOutcome>);
static_assert(std::is_same_v<decltype(sim::RoundRecord::results), std::vector<fl::RoundOutcome>>);

// The shrunken scale-2k driven through run_until unit by unit, and through
// the scenario runner: the step trace, the series JSONL and the summary
// (less its schedule-dependent fields) are pinned to digests recorded
// while step records still carried both payloads.
TEST(Determinism, PayloadFreeStepRecordsKeepTheScaleRun) {
  scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
  spec.num_clients = 200;
  spec.threads = 1;
  {
    sim::ExperimentPreset preset = scenario::make_preset(spec);
    sim::AsyncSimulatorConfig config;
    config.client = spec.client;
    config.broadcast_latency = spec.broadcast_latency;
    config.seed = spec.seed;
    config.threads = 1;
    config.store = spec.store;
    sim::AsyncDagSimulator simulator(std::move(preset.dataset), preset.factory, config);
    std::string trace;
    for (std::size_t unit = 1; unit <= spec.rounds; ++unit) {
      trace += serialize_trace(simulator.run_until(static_cast<double>(unit)));
      trace += "dag " + std::to_string(simulator.dag().size()) + '\n';
    }
    EXPECT_EQ(fnv1a(trace), 0x67B448DBF49D1C9DULL) << trace;
  }
  // The summary records the thread count, so each count has its digest.
  for (const auto [threads, summary_digest] :
       {std::pair{1, 0x8FD7A6EF9890A028ULL}, std::pair{4, 0xEDDA6C40597FE42EULL}}) {
    spec.threads = threads;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    std::ostringstream series;
    scenario::write_series_jsonl(result, series);
    EXPECT_EQ(fnv1a(series.str()), 0xA7919DA88823C955ULL) << threads << "\n" << series.str();
    scenario::Json summary = *scenario::result_to_json(result).find("summary");
    for (const auto& path : kScheduleDependentSummaryFields) erase_member(summary, path);
    // summary.obs lists every counter the process has registered, so the
    // ones earlier tests registered read 0 here; only the run's own count.
    for (auto& [key, section] : summary.as_object()) {
      if (key != "obs") continue;
      for (auto& [name, counters] : section.as_object()) {
        if (name != "counters") continue;
        std::erase_if(counters.as_object(),
                      [](const auto& counter) { return counter.second.as_number() == 0.0; });
      }
    }
    EXPECT_EQ(fnv1a(summary.dump(2)), summary_digest) << threads << "\n" << summary.dump(2);
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

// The Poets LSTM path (Embedding -> LSTM -> Dense, trained and evaluated on
// every client) pinned bit for bit: an FNV-1a digest of three rounds of the
// registry `poets` series JSONL, at one thread and at four, recorded before
// the LSTM layer computed its input projection in one batched GEMM.
TEST(Determinism, PoetsSeriesIsPinned) {
  for (const std::size_t threads : {1, 4}) {
    scenario::ScenarioSpec spec = scenario::get_scenario("poets");
    spec.rounds = 3;
    spec.threads = threads;
    std::ostringstream series;
    scenario::write_series_jsonl(scenario::run_scenario(spec), series);
    EXPECT_EQ(fnv1a(series.str()), 0xB7F23398BD3F9DFAULL) << threads << "\n" << series.str();
  }
}

}  // namespace
}  // namespace specdag
