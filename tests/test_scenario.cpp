#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "scenario/config.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"

namespace specdag {
namespace {

// ------------------------------------------------------------------ JSON ---

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(scenario::Json::parse("null").is_null());
  EXPECT_EQ(scenario::Json::parse("true").as_bool(), true);
  EXPECT_EQ(scenario::Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(scenario::Json::parse("-12.5e2").as_number(), -1250.0);
  EXPECT_EQ(scenario::Json::parse("42").as_uint(), 42u);
  EXPECT_EQ(scenario::Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const auto doc = scenario::Json::parse(
      R"({"a": [1, 2, {"b": true}], "c": {"d": null}, "e": "x"})");
  EXPECT_EQ(doc.as_object().size(), 3u);
  EXPECT_EQ(doc.find("a")->as_array().size(), 3u);
  EXPECT_TRUE(doc.find("a")->as_array()[2].find("b")->as_bool());
  EXPECT_TRUE(doc.find("c")->find("d")->is_null());
}

TEST(Json, StringEscapes) {
  const auto doc = scenario::Json::parse(R"("a\"b\\c\nA\té")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nA\t\xc3\xa9");
  // Escapes survive a dump -> parse round trip.
  EXPECT_EQ(scenario::Json::parse(doc.dump()).as_string(), doc.as_string());
}

TEST(Json, DumpParseRoundTrip) {
  const std::string text =
      R"({"name":"x","values":[1,2.5,true,null,"s"],"nested":{"k":-3}})";
  const auto doc = scenario::Json::parse(text);
  EXPECT_EQ(scenario::Json::parse(doc.dump()), doc);
  EXPECT_EQ(scenario::Json::parse(doc.dump(2)), doc);  // pretty-print too
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(scenario::Json::parse(""), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("{\"a\": 1,}"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("[1 2]"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("1 2"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("{\"a\":1,\"a\":2}"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("nan"), scenario::JsonError);
  EXPECT_THROW(scenario::Json::parse("\"unterminated"), scenario::JsonError);
}

TEST(Json, SetPathCreatesIntermediateObjects) {
  auto doc = scenario::Json::make_object();
  doc.set_path("client.train.batch_size", scenario::Json(20));
  doc.set_path("client.alpha", scenario::Json(5.0));
  EXPECT_EQ(doc.find("client")->find("train")->find("batch_size")->as_uint(), 20u);
  EXPECT_DOUBLE_EQ(doc.find("client")->find("alpha")->as_number(), 5.0);
  // Overwrite through a path.
  doc.set_path("client.alpha", scenario::Json(7.0));
  EXPECT_DOUBLE_EQ(doc.find("client")->find("alpha")->as_number(), 7.0);
}

// ------------------------------------------------------------------ specs ---

scenario::ScenarioSpec full_spec() {
  scenario::ScenarioSpec spec;
  spec.name = "round-trip";
  spec.description = "all the knobs";
  spec.dataset = scenario::DatasetPreset::kFmnistRelaxed;
  spec.simulator = scenario::SimKind::kRound;
  spec.rounds = 17;
  spec.clients_per_round = 4;
  spec.visibility_delay_rounds = 2;
  spec.num_clients = 9;
  spec.samples_per_client = 40;
  spec.seed = 1234;
  spec.parallel_prepare = false;
  spec.evaluate_consensus = true;
  spec.client.alpha = 55.0;
  spec.client.selector = fl::SelectorKind::kWeighted;
  spec.client.normalization = tipsel::Normalization::kDynamic;
  spec.client.num_parents = 3;
  spec.client.walk_start = tipsel::WalkStart::kDepthSampled;
  spec.client.start_depth_min = 4;
  spec.client.start_depth_max = 9;
  spec.client.publish_gate = false;
  spec.client.reference_walks = 2;
  spec.client.train = {2, 7, 5, 0.125};
  spec.dynamics.churn = {0.25, 3, 8};
  spec.dynamics.partition = {2, true, 2, 9};
  spec.community_metrics_every = 5;
  spec.store.delta = false;
  spec.store.anchor_interval = 12;
  spec.store.lru_bytes = std::size_t{32} << 20;
  spec.store.eval_cache_shards = 4;
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripIsIdentity) {
  const scenario::ScenarioSpec spec = full_spec();
  const scenario::Json json = scenario::spec_to_json(spec);
  const scenario::ScenarioSpec reparsed = scenario::spec_from_json(json);
  // Serialize -> parse -> serialize is the identity on the JSON level.
  EXPECT_EQ(scenario::spec_to_json(reparsed), json);
  // And a parse of the pretty-printed text agrees too.
  const scenario::ScenarioSpec reparsed2 =
      scenario::spec_from_json(scenario::Json::parse(json.dump(2)));
  EXPECT_EQ(scenario::spec_to_json(reparsed2), json);
}

TEST(ScenarioSpec, RejectsUnknownKeys) {
  EXPECT_THROW(scenario::spec_from_json(scenario::Json::parse(R"({"rouns": 10})")),
               scenario::JsonError);
  EXPECT_THROW(
      scenario::spec_from_json(scenario::Json::parse(R"({"client": {"alhpa": 1}})")),
      scenario::JsonError);
  EXPECT_THROW(scenario::spec_from_json(
                   scenario::Json::parse(R"({"dynamics": {"churns": {}}})")),
               scenario::JsonError);
  EXPECT_THROW(
      scenario::spec_from_json(scenario::Json::parse(R"({"store": {"lru_gb": 1}})")),
      scenario::JsonError);
}

TEST(ScenarioSpec, ParsesStoreBlock) {
  const scenario::ScenarioSpec spec = scenario::spec_from_json(scenario::Json::parse(
      R"({"store": {"delta": false, "anchor_interval": 4, "lru_mb": 8,
          "eval_cache_shards": 2, "async_encode": true, "encode_threads": 3}})"));
  EXPECT_FALSE(spec.store.delta);
  EXPECT_TRUE(spec.store.async_encode);
  EXPECT_EQ(spec.store.encode_threads, 3u);
  EXPECT_EQ(spec.store.anchor_interval, 4u);
  EXPECT_EQ(spec.store.lru_bytes, std::size_t{8} << 20);
  EXPECT_EQ(spec.store.eval_cache_shards, 2u);
  // async_encode defaults off for hand-written specs (scale-2k opts in).
  EXPECT_FALSE(scenario::ScenarioSpec{}.store.async_encode);
  EXPECT_THROW(
      scenario::spec_from_json(scenario::Json::parse(R"({"store": {"anchor_interval": 0}})")),
      std::invalid_argument);
}

TEST(ScenarioSpec, ValidatesDynamicsCombinations) {
  scenario::ScenarioSpec spec;
  spec.dynamics.stragglers = {0.5, 4.0, 1.5};
  spec.simulator = scenario::SimKind::kRound;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.simulator = scenario::SimKind::kAsync;
  EXPECT_NO_THROW(spec.validate());

  scenario::ScenarioSpec churny;
  churny.dynamics.churn = {1.5, 2, 0};
  EXPECT_THROW(churny.validate(), std::invalid_argument);
  churny.dynamics.churn = {0.5, 5, 3};  // rejoin before leave
  EXPECT_THROW(churny.validate(), std::invalid_argument);

  scenario::ScenarioSpec party;
  party.dynamics.partition = {2, false, 10, 5};  // heal before start
  EXPECT_THROW(party.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, RejectsSeedsThatCannotRoundTripThroughJson) {
  scenario::ScenarioSpec spec;
  spec.seed = (std::uint64_t{1} << 53) + 1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.seed = std::uint64_t{1} << 53;
  EXPECT_NO_THROW(spec.validate());
  // The Json layer refuses non-representable integers outright.
  EXPECT_THROW(scenario::Json((std::uint64_t{1} << 53) + 2), scenario::JsonError);
}

TEST(ScenarioSpec, RejectsClientValuesThatWouldFailOnlyAtRunTime) {
  // Each of these must fail validation, so a sweep's --dry-run rejects the
  // point instead of the run failing after its dataset is built.
  for (const char* client :
       {R"({"train": {"local_epochs": 0}})", R"({"train": {"local_batches": 0}})",
        R"({"train": {"batch_size": 0}})", R"({"train": {"learning_rate": 0}})",
        R"({"train": {"learning_rate": -0.1}})", R"({"num_parents": 0})",
        R"({"alpha": -1})", R"({"start_depth_min": 30, "start_depth_max": 25})"}) {
    const std::string json = std::string(R"({"client": )") + client + "}";
    EXPECT_THROW(scenario::spec_from_json(scenario::Json::parse(json)), std::invalid_argument)
        << json;
  }
  // The boundaries stay valid: alpha 0 is an unbiased walk, equal depths a
  // fixed start depth.
  EXPECT_NO_THROW(scenario::spec_from_json(scenario::Json::parse(
      R"({"client": {"alpha": 0, "start_depth_min": 20, "start_depth_max": 20}})")));
}

// --------------------------------------------------------------- registry ---

TEST(Registry, HasTheRequiredScenarios) {
  const auto& scenarios = scenario::builtin_scenarios();
  EXPECT_GE(scenarios.size(), 20u);
  for (const char* name : {"fmnist-clustered", "churn", "stragglers", "partition", "scale-2k"}) {
    ASSERT_NE(scenario::find_scenario(name), nullptr) << name;
  }
  // Every formerly hand-rolled bench main has a registry base now.
  for (const char* name :
       {"fig9-fedavg-vs-dag", "fig10-11-fedprox", "fig12-14-poisoning", "fig15-scalability",
        "table2-pureness", "ablation-async-latency", "ablation-baselines",
        "ablation-num-parents", "ablation-partial-training", "ablation-publish-gate",
        "ablation-random-weights", "poisoning-smoke", "fedavg-smoke"}) {
    ASSERT_NE(scenario::find_scenario(name), nullptr) << name;
  }
  EXPECT_TRUE(scenario::find_scenario("fig12-14-poisoning")->attacks.label_flip.enabled());
  EXPECT_TRUE(scenario::find_scenario("ablation-random-weights")->attacks.random_weights.enabled());
  EXPECT_EQ(scenario::find_scenario("fedavg-smoke")->algorithm,
            scenario::AlgorithmKind::kFedAvg);
  // The scalability scenario must be the delta-store regime at >= 2k clients.
  const scenario::ScenarioSpec* scale = scenario::find_scenario("scale-2k");
  EXPECT_GE(scale->num_clients, 2000u);
  EXPECT_EQ(scale->simulator, scenario::SimKind::kAsync);
  EXPECT_TRUE(scale->store.delta);
  EXPECT_TRUE(scenario::find_scenario("churn")->dynamics.churn.enabled());
  EXPECT_TRUE(scenario::find_scenario("stragglers")->dynamics.stragglers.enabled());
  EXPECT_TRUE(scenario::find_scenario("partition")->dynamics.partition.enabled());
  // Every built-in validates and survives the JSON round trip.
  for (const auto& spec : scenarios) {
    EXPECT_NO_THROW(spec.validate()) << spec.name;
    const scenario::Json json = scenario::spec_to_json(spec);
    EXPECT_EQ(scenario::spec_to_json(scenario::spec_from_json(json)), json) << spec.name;
  }
  EXPECT_THROW(scenario::get_scenario("no-such-scenario"), std::invalid_argument);
}

// ----------------------------------------------------------------- runner ---

scenario::ScenarioSpec tiny_spec(const std::string& base) {
  scenario::ScenarioSpec spec = scenario::get_scenario(base);
  spec.num_clients = 6;
  spec.samples_per_client = 40;
  spec.rounds = 5;
  spec.clients_per_round = 3;
  spec.client.train = {1, 4, 8, 0.05};
  return spec;
}

TEST(Runner, RoundScenarioProducesSeriesAndSummary) {
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.evaluate_consensus = true;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_EQ(result.series.size(), 5u);
  EXPECT_EQ(result.clients, 6u);
  EXPECT_GT(result.dag_size, 1u);
  EXPECT_GE(result.final_accuracy, 0.0);
  EXPECT_GE(result.consensus_accuracy, 0.0);
  EXPECT_EQ(result.series.back().dag_size, result.dag_size);
  // Summary JSON has the headline fields.
  const scenario::Json json = scenario::result_to_json(result, true);
  EXPECT_EQ(json.find("summary")->find("dag_size")->as_uint(), result.dag_size);
  EXPECT_EQ(json.find("series")->as_array().size(), 5u);
}

TEST(Runner, DeltaStorageIsTransparentAndReportsStats) {
  // The delta-encoded store must not change a single bit of the experiment:
  // payload reads are bit-exact, so the whole trajectory is identical.
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.store.delta = true;
  spec.store.anchor_interval = 4;
  const scenario::ScenarioResult with_delta = scenario::run_scenario(spec);
  spec.store.delta = false;
  const scenario::ScenarioResult baseline = scenario::run_scenario(spec);

  EXPECT_EQ(with_delta.dag_size, baseline.dag_size);
  EXPECT_EQ(with_delta.final_accuracy, baseline.final_accuracy);
  EXPECT_EQ(with_delta.pureness, baseline.pureness);
  for (std::size_t i = 0; i < with_delta.series.size(); ++i) {
    EXPECT_EQ(with_delta.series[i].mean_accuracy, baseline.series[i].mean_accuracy) << i;
  }

  EXPECT_EQ(baseline.store_stats.deltas, 0u);
  EXPECT_DOUBLE_EQ(baseline.store_stats.delta_ratio(), 1.0);
  EXPECT_GT(with_delta.store_stats.deltas, 0u);
  EXPECT_LT(with_delta.store_stats.resident_payload_bytes,
            baseline.store_stats.resident_payload_bytes);
  EXPECT_EQ(with_delta.store_stats.full_payload_bytes,
            baseline.store_stats.full_payload_bytes);
  EXPECT_GT(with_delta.eval_cache_stats.hits + with_delta.eval_cache_stats.misses, 0u);

  // The store block lands in the summary JSON (the sweep's JSONL schema).
  const scenario::Json json = scenario::result_to_json(with_delta, false);
  const scenario::Json* store = json.find("summary")->find("store");
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->find("resident_payload_bytes")->as_uint(),
            with_delta.store_stats.resident_payload_bytes);
  EXPECT_NE(json.find("summary")->find("eval_cache"), nullptr);
}

TEST(Runner, PerfBucketsSplitEncodeOutOfCommitAndSumToTotal) {
  // The attribution fix: encode time used to hide inside the commit bucket.
  // In a serial synchronous run the four buckets and the store's inline
  // encode time are disjoint slices of the simulator's wall clock, so they
  // can never sum past total_seconds. With async encoding the encode runs
  // on background workers, and the foreground buckets alone stay within it
  // (utilization <= 1 at one thread).
  for (bool async_encode : {false, true}) {
    scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
    spec.rounds = 6;
    spec.threads = 1;
    spec.parallel_prepare = false;
    spec.store.delta = true;
    spec.store.async_encode = async_encode;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);

    const sim::PhaseTimings& perf = result.perf;
    const double encode_seconds = result.store_stats.encode_seconds;
    EXPECT_GT(perf.prepares, 0u);
    EXPECT_GT(perf.total_seconds, 0.0);
    EXPECT_GT(encode_seconds, 0.0) << "async " << async_encode;
    EXPECT_GE(perf.commit_seconds, 0.0);
    EXPECT_GT(perf.tipsel_seconds, 0.0);
    EXPECT_GT(perf.train_seconds, 0.0);
    // Timer start/stop overhead can push the sum a hair past the outer wall
    // measurement; 10% + 50ms absorbs that without masking real accounting
    // bugs (double-counting encode inside commit doubles the sum).
    const double foreground = perf.phase_sum_seconds() + (async_encode ? 0.0 : encode_seconds);
    EXPECT_LE(foreground, perf.total_seconds * 1.1 + 0.05) << "async " << async_encode;

    // The buckets land in summary.perf (the JSONL schema consumed by CI).
    const scenario::Json json = scenario::result_to_json(result, false);
    const scenario::Json* perf_json = json.find("summary")->find("perf");
    ASSERT_NE(perf_json, nullptr);
    ASSERT_NE(perf_json->find("encode_seconds"), nullptr);
    EXPECT_EQ(perf_json->find("encode_seconds")->as_number(), encode_seconds);
    EXPECT_NE(perf_json->find("commit_seconds"), nullptr);
    EXPECT_NE(perf_json->find("total_seconds"), nullptr);

    // And the store block reports the (drained) pipeline counters plus the
    // residency-over-time series.
    const scenario::Json* store_json = json.find("summary")->find("store");
    ASSERT_NE(store_json, nullptr);
    EXPECT_EQ(store_json->find("pending_encodes")->as_uint(), 0u);
    ASSERT_NE(store_json->find("residency"), nullptr);
    EXPECT_EQ(store_json->find("residency")->as_array().size(), result.series.size());
  }
}

TEST(Runner, CommunityMetricsEveryFillsSeriesPoints) {
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.rounds = 6;
  spec.community_metrics_every = 3;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  ASSERT_EQ(result.series.size(), 6u);
  for (const scenario::ScenarioPoint& point : result.series) {
    EXPECT_EQ(point.has_community_metrics, point.round % 3 == 0) << point.round;
  }
  const scenario::ScenarioPoint& tracked = result.series[2];  // round 3
  EXPECT_GE(tracked.communities, 1u);
  EXPECT_GE(tracked.misclassification, 0.0);
  EXPECT_LE(tracked.misclassification, 1.0);
}

TEST(Runner, ExportsDagAfterRun) {
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.rounds = 3;
  scenario::RunOptions options;
  options.export_dot = testing::TempDir() + "/specdag_export_test.dot";
  options.export_jsonl = testing::TempDir() + "/specdag_export_test.jsonl";
  const scenario::ScenarioResult result = scenario::run_scenario(spec, options);

  std::ifstream dot(options.export_dot);
  ASSERT_TRUE(dot.good());
  std::string first_line;
  std::getline(dot, first_line);
  EXPECT_NE(first_line.find("digraph"), std::string::npos);

  std::ifstream jsonl(options.export_jsonl);
  ASSERT_TRUE(jsonl.good());
  std::size_t lines = 0;
  for (std::string line; std::getline(jsonl, line);) {
    if (!line.empty()) ++lines;
  }
  EXPECT_EQ(lines, result.dag_size);
}

TEST(Runner, ChurnRemovesAndRestoresClients) {
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.name = "churn-test";
  spec.rounds = 8;
  spec.dynamics.churn = {0.34, 2, 6};
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  // floor(0.34 * 6) = 2 clients leave in [2, 6).
  EXPECT_EQ(result.series[0].active_clients, 6u);
  EXPECT_EQ(result.series[3].active_clients, 4u);
  EXPECT_EQ(result.series[7].active_clients, 6u);
}

TEST(Runner, PartitionRespectsGroupVisibility) {
  scenario::ScenarioSpec spec = tiny_spec("fmnist-clustered");
  spec.name = "partition-test";
  spec.rounds = 6;
  spec.client.publish_gate = false;  // every client publishes every round
  spec.dynamics.partition = {3, true, 2, 0};  // never heals
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_FALSE(result.series[0].partitioned);
  EXPECT_TRUE(result.series.back().partitioned);
  EXPECT_GT(result.dag_size, 1u);
}

TEST(Runner, AsyncScenarioWithStragglersRuns) {
  scenario::ScenarioSpec spec = tiny_spec("stragglers");
  spec.rounds = 6;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_EQ(result.series.size(), 6u);
  EXPECT_GT(result.dag_size, 1u);
  EXPECT_EQ(result.simulator, "async");
}

// ------------------------------------------------------------------ sweep ---

TEST(Sweep, GridExpansionAndParallelExecution) {
  scenario::SweepSpec sweep;
  sweep.base = scenario::spec_to_json(tiny_spec("fmnist-clustered"));
  sweep.base.set("rounds", scenario::Json(3));
  sweep.axes.push_back({"client.alpha", {scenario::Json(1.0), scenario::Json(10.0)}});
  sweep.axes.push_back({"clients_per_round", {scenario::Json(2), scenario::Json(3)}});
  sweep.threads = 2;
  sweep.out_path = "test_sweep_out.jsonl";

  const auto grid = scenario::expand_grid(sweep);
  ASSERT_EQ(grid.size(), 4u);
  std::set<std::uint64_t> seeds;
  for (const auto& [params, seed] : grid) seeds.insert(seed);
  EXPECT_EQ(seeds.size(), 4u);  // derived seeds are distinct

  const std::vector<scenario::SweepRun> runs = scenario::run_sweep(sweep);
  ASSERT_EQ(runs.size(), 4u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].run_index, i);
    EXPECT_EQ(runs[i].seed, grid[i].second);
    EXPECT_GT(runs[i].result.dag_size, 1u);
  }

  // The JSONL sink has one parseable line per run with the seed recorded,
  // closed by a {"sweep": {...}} footer with the merged obs aggregate.
  std::ifstream in(sweep.out_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::set<std::uint64_t> written_seeds;
  std::size_t run_lines = 0;
  bool saw_footer = false;
  while (std::getline(in, line)) {
    const scenario::Json doc = scenario::Json::parse(line);
    if (const scenario::Json* footer = doc.find("sweep")) {
      EXPECT_FALSE(saw_footer);  // footer is the single last line
      saw_footer = true;
      EXPECT_EQ(footer->find("runs")->as_uint(), 4u);
      if (obs::kObsCompiledIn) {
        EXPECT_EQ(footer->find("obs_runs")->as_uint(), 4u);
        EXPECT_NE(footer->find("obs"), nullptr);
        EXPECT_NE(footer->find("axes")->find("client.alpha"), nullptr);
      }
      continue;
    }
    EXPECT_FALSE(saw_footer);  // no run line after the footer
    written_seeds.insert(doc.find("seed")->as_uint());
    EXPECT_NE(doc.find("params"), nullptr);
    const scenario::Json* summary = doc.find("result")->find("summary");
    ASSERT_NE(summary, nullptr);
    // Per-run contexts: even at threads>1 every line has its own obs rollup.
    if (obs::kObsCompiledIn) EXPECT_NE(summary->find("obs"), nullptr);
    ++run_lines;
  }
  EXPECT_EQ(run_lines, 4u);
  EXPECT_TRUE(saw_footer);
  EXPECT_EQ(written_seeds, seeds);
  std::remove(sweep.out_path.c_str());
}

// Per-run obs::Contexts make a parallel sweep attribute metrics and traces
// to the run that produced them: concurrent runs with different workloads
// report distinct correct counter deltas, a serial sweep over the same grid
// reports the same deterministic counters, every run gets its own trace
// file via trace_dir, and the footer aggregate is the exact sum.
TEST(Sweep, ParallelSweepAttributesObsPerRun) {
  if (!obs::kObsCompiledIn) GTEST_SKIP() << "obs compiled out";
  namespace fs = std::filesystem;
  const std::string trace_dir = ::testing::TempDir() + "test_sweep_traces";
  scenario::SweepSpec sweep;
  sweep.base = scenario::spec_to_json(tiny_spec("fmnist-clustered"));
  sweep.base.set("rounds", scenario::Json(2));
  // Different workloads per run: 4 clients/round do about twice the tip
  // selection of 2, so cross-contamination between the concurrent contexts
  // would be visible in the counters.
  sweep.axes.push_back({"clients_per_round", {scenario::Json(2), scenario::Json(4)}});
  sweep.threads = 2;
  sweep.out_path = "test_sweep_obs.jsonl";
  sweep.trace_dir = trace_dir;

  const std::vector<scenario::SweepRun> parallel = scenario::run_sweep(sweep);
  ASSERT_EQ(parallel.size(), 2u);
  for (const scenario::SweepRun& run : parallel) {
    EXPECT_TRUE(run.result.obs_enabled);
    EXPECT_GT(run.result.obs_totals.counter("tipsel.walks"), 0u);
  }
  EXPECT_GT(parallel[1].result.obs_totals.counter("tipsel.walks"),
            parallel[0].result.obs_totals.counter("tipsel.walks"));
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    const fs::path trace_path = fs::path(trace_dir) / ("run-" + std::to_string(i) +
                                                       ".trace.json");
    EXPECT_TRUE(fs::exists(trace_path)) << trace_path;
  }

  // The same grid run serially yields identical deterministic counters per
  // run index (results are bit-identical, so the operation counts are too;
  // only wall-clock metrics like pool.*_nanos may differ).
  sweep.threads = 1;
  sweep.trace_dir.clear();
  sweep.out_path = "test_sweep_obs_serial.jsonl";
  const std::vector<scenario::SweepRun> serial = scenario::run_sweep(sweep);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    for (const char* name : {"tipsel.walks", "tipsel.evaluations", "store.puts",
                             "store.decodes"}) {
      EXPECT_EQ(serial[i].result.obs_totals.counter(name),
                parallel[i].result.obs_totals.counter(name))
          << "run " << i << " counter " << name;
    }
    EXPECT_EQ(serial[i].result.obs_totals.histogram("tipsel.walk_steps").count,
              parallel[i].result.obs_totals.histogram("tipsel.walk_steps").count);
  }

  // Footer aggregate = exact sum of the per-run totals.
  std::ifstream in(sweep.out_path);
  ASSERT_TRUE(in.good());
  std::string line, last;
  while (std::getline(in, line)) last = line;
  const scenario::Json footer = scenario::Json::parse(last);
  const scenario::Json* footer_obs = footer.find("sweep")->find("obs");
  ASSERT_NE(footer_obs, nullptr);
  EXPECT_EQ(footer_obs->find("counters")->find("tipsel.walks")->as_uint(),
            serial[0].result.obs_totals.counter("tipsel.walks") +
                serial[1].result.obs_totals.counter("tipsel.walks"));

  // A fixed obs.trace path at threads>1 (no trace_dir) would have the runs
  // overwrite one file; still rejected, with trace_dir as the fix.
  sweep.threads = 2;
  sweep.base.set_path("obs.trace", scenario::Json("sweep.trace.json"));
  EXPECT_THROW(scenario::run_sweep(sweep), std::invalid_argument);
  // The rejection comes before any side effect: no manifest is left behind.
  EXPECT_FALSE(fs::exists(sweep.out_path + ".partial"));
  std::remove("test_sweep_obs.jsonl");
  std::remove("test_sweep_obs_serial.jsonl");
  std::error_code ec;
  fs::remove_all(trace_dir, ec);
}

TEST(Sweep, FixedSeedModeReusesBaseSeed) {
  scenario::SweepSpec sweep;
  sweep.base = scenario::spec_to_json(tiny_spec("fmnist-clustered"));
  sweep.derive_seeds = false;
  sweep.axes.push_back({"client.alpha", {scenario::Json(1.0), scenario::Json(10.0)}});
  const auto grid = scenario::expand_grid(sweep);
  ASSERT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid[0].second, grid[1].second);
}

TEST(Sweep, FromJsonResolvesRegistryBase) {
  const auto doc = scenario::Json::parse(
      R"({"base": "churn", "axes": {"rounds": [2, 3]}, "repeats": 2, "out": "x.jsonl"})");
  const scenario::SweepSpec sweep = scenario::sweep_from_json(doc);
  EXPECT_EQ(sweep.num_runs(), 4u);
  EXPECT_EQ(sweep.base.string_or("name", ""), "churn");
  EXPECT_THROW(scenario::sweep_from_json(scenario::Json::parse(R"({"axes": {}})")),
               scenario::JsonError);
  EXPECT_THROW(
      scenario::sweep_from_json(scenario::Json::parse(R"({"base": "churn", "axis": {}})")),
      scenario::JsonError);
}

// Every committed JSON document under examples/ parses: each sweep grid
// resolves its base, validates every grid point and has its expected number
// of runs; each scenario spec parses. A typo in a committed grid
// fails here in seconds instead of deep inside the slow tier.
TEST(Sweep, CommittedGridsParseAndExpand) {
  const std::map<std::string, std::size_t> expected_runs = {
      {"figures/ablation_async_latency.json", 4},  {"figures/ablation_baselines.json", 3},
      {"figures/ablation_num_parents.json", 4},    {"figures/ablation_partial_training.json", 2},
      {"figures/ablation_publish_gate.json", 2},   {"figures/ablation_random_weights.json", 4},
      {"figures/ablation_visibility_delay.json", 4}, {"figures/fig10_11_fedprox.json", 3},
      {"figures/fig12_13_accuracy.json", 3},       {"figures/fig12_13_random.json", 1},
      {"figures/fig15_scalability.json", 4},       {"figures/fig5_alpha_metrics.json", 3},
      {"figures/fig6_7_alpha_norm.json", 8},       {"figures/fig8_relaxed.json", 4},
      {"figures/fig9_cifar.json", 2},              {"figures/fig9_fmnist.json", 2},
      {"figures/fig9_poets.json", 2},              {"figures/table2_cifar.json", 1},
      {"figures/table2_fmnist.json", 1},           {"figures/table2_poets.json", 1},
      {"scenarios/alpha_grid.json", 6},            {"scenarios/dag_vs_baselines.json", 3},
  };
  namespace fs = std::filesystem;
  std::set<std::string> grids_seen;
  for (const char* dir : {"figures", "scenarios"}) {
    for (const fs::directory_entry& entry :
         fs::directory_iterator(fs::path(SPECDAG_EXAMPLES_DIR) / dir)) {
      if (entry.path().extension() != ".json") continue;
      const std::string name = std::string(dir) + "/" + entry.path().filename().string();
      SCOPED_TRACE(name);
      const scenario::Json doc = scenario::Json::parse_file(entry.path().string());
      if (doc.find("base") == nullptr) {
        EXPECT_NO_THROW(scenario::spec_from_json(doc));
        continue;
      }
      const scenario::SweepSpec sweep = scenario::sweep_from_json(doc);
      ASSERT_TRUE(expected_runs.count(name)) << "no expected run count for this grid";
      EXPECT_EQ(sweep.num_runs(), expected_runs.at(name));
      grids_seen.insert(name);
    }
  }
  EXPECT_EQ(grids_seen.size(), expected_runs.size());
}

}  // namespace
}  // namespace specdag
