// Adversary & baseline hooks of the scenario engine: spec round trips,
// attack-window boundaries, bit-exact determinism of poisoned histories,
// the baselines' pinned results, and the attacker's model-store integration.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "data/synthetic_digits.hpp"
#include "fl/attacker.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/experiment.hpp"

namespace specdag {
namespace {

scenario::ScenarioSpec tiny_spec() {
  scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
  spec.num_clients = 6;
  spec.samples_per_client = 40;
  spec.rounds = 8;
  spec.clients_per_round = 3;
  spec.client.train = {1, 4, 8, 0.05};
  return spec;
}

// ------------------------------------------------------------------ specs ---

TEST(AttackSpec, JsonRoundTripIsIdentity) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.attacks.metrics_every = 2;
  spec.attacks.random_weights = {1.5, 0.2, 3, 2, 6};
  spec.attacks.label_flip = {0.34, 3, 8, 4, 7};
  const scenario::Json json = scenario::spec_to_json(spec);
  EXPECT_EQ(scenario::spec_to_json(scenario::spec_from_json(json)), json);

  scenario::ScenarioSpec fedprox = tiny_spec();
  fedprox.algorithm = scenario::AlgorithmKind::kFedProx;
  fedprox.proximal_mu = 0.5;
  fedprox.record_client_accuracies = true;
  const scenario::Json fedprox_json = scenario::spec_to_json(fedprox);
  const scenario::ScenarioSpec reparsed = scenario::spec_from_json(fedprox_json);
  EXPECT_EQ(reparsed.algorithm, scenario::AlgorithmKind::kFedProx);
  EXPECT_DOUBLE_EQ(reparsed.proximal_mu, 0.5);
  EXPECT_TRUE(reparsed.record_client_accuracies);
}

TEST(AttackSpec, ValidatesWindowsAndAlgorithmCombinations) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.attacks.label_flip = {0.3, 3, 3, 0, 0};  // identical classes
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.attacks.label_flip = {0.3, 3, 8, 5, 4};  // stop before start
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.attacks.label_flip = {};
  spec.attacks.random_weights = {1.0, 0.1, 2, 5, 5};  // empty window
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  // Random-weight junk needs a DAG to publish into.
  spec.attacks.random_weights = {1.0, 0.1, 2, 0, 0};
  spec.algorithm = scenario::AlgorithmKind::kFedAvg;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.attacks.random_weights = {};
  EXPECT_NO_THROW(spec.validate());

  // Baselines are synchronous and do not model DAG network dynamics.
  spec.dynamics.churn = {0.3, 2, 4};
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.dynamics.churn = {};
  spec.simulator = scenario::SimKind::kAsync;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  scenario::ScenarioSpec prox = tiny_spec();
  prox.algorithm = scenario::AlgorithmKind::kFedProx;
  prox.proximal_mu = 0.0;
  EXPECT_THROW(prox.validate(), std::invalid_argument);
}

// ------------------------------------------------------------ determinism ---

TEST(Attacks, PoisonedHistoriesAreDeterministic) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.attacks.label_flip = {0.34, 3, 8, 3, 0};
  spec.attacks.random_weights = {1.0, 0.1, 2, 3, 0};
  spec.attacks.metrics_every = 1;
  const scenario::ScenarioResult a = scenario::run_scenario(spec);
  const scenario::ScenarioResult b = scenario::run_scenario(spec);

  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].mean_accuracy, b.series[i].mean_accuracy) << i;
    EXPECT_EQ(a.series[i].attacker_transactions, b.series[i].attacker_transactions) << i;
    EXPECT_EQ(a.series[i].flip_rate, b.series[i].flip_rate) << i;
    EXPECT_EQ(a.series[i].approved_poisoned, b.series[i].approved_poisoned) << i;
  }
  EXPECT_EQ(a.dag_size, b.dag_size);
  EXPECT_EQ(a.attacker_transactions, b.attacker_transactions);
  EXPECT_EQ(a.junk_reference_fraction, b.junk_reference_fraction);
  EXPECT_EQ(a.poisoned_clients, b.poisoned_clients);
}

// ------------------------------------------------------- window boundaries ---

TEST(Attacks, NoEffectBeforeStart) {
  scenario::ScenarioSpec clean = tiny_spec();
  const scenario::ScenarioResult baseline = scenario::run_scenario(clean);

  scenario::ScenarioSpec attacked = tiny_spec();
  attacked.attacks.label_flip = {0.34, 3, 8, 4, 0};
  attacked.attacks.random_weights = {2.0, 0.1, 2, 4, 0};
  attacked.attacks.metrics_every = 1;
  const scenario::ScenarioResult result = scenario::run_scenario(attacked);

  // Units 0-3 (series rounds 1-4) ran before either window opened: the
  // trajectories must be bit-identical to the attack-free run.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(result.series[i].mean_accuracy, baseline.series[i].mean_accuracy) << i;
    EXPECT_EQ(result.series[i].publishes, baseline.series[i].publishes) << i;
    EXPECT_EQ(result.series[i].attacker_transactions, 0u) << i;
    EXPECT_FALSE(result.series[i].has_attack_metrics) << i;
  }
  // From unit 4 on the attacker fires at its configured rate.
  for (std::size_t i = 4; i < result.series.size(); ++i) {
    EXPECT_EQ(result.series[i].attacker_transactions, 2u) << i;
    EXPECT_TRUE(result.series[i].has_attack_metrics) << i;
  }
  EXPECT_GT(result.poisoned_clients, 0u);
  EXPECT_EQ(result.attacker_transactions, 2u * 4u);
}

TEST(Attacks, StopRoundClosesTheWindow) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.attacks.random_weights = {1.0, 0.1, 2, 2, 5};
  spec.attacks.label_flip = {0.34, 3, 8, 2, 5};
  const scenario::ScenarioResult result = scenario::run_scenario(spec);

  for (const scenario::ScenarioPoint& point : result.series) {
    const std::size_t unit = point.round - 1;
    EXPECT_EQ(point.attacker_transactions, unit >= 2 && unit < 5 ? 1u : 0u) << unit;
  }
  EXPECT_EQ(result.attacker_transactions, 3u);
  // The label flip was reverted at the stop round, so no client is poisoned
  // at the end — the Figure 14 community distribution stays empty.
  EXPECT_GT(result.poisoned_clients, 0u);
  EXPECT_TRUE(result.poison_communities.empty());
}

TEST(Attacks, AsyncSimulatorRunsTheSameSchedules) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.simulator = scenario::SimKind::kAsync;
  spec.broadcast_latency = 0.4;
  spec.attacks.label_flip = {0.34, 3, 8, 3, 0};
  spec.attacks.random_weights = {1.0, 0.1, 2, 3, 6};
  spec.attacks.metrics_every = 2;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_EQ(result.attacker_transactions, 3u);
  EXPECT_GT(result.poisoned_clients, 0u);
  bool measured = false;
  for (const scenario::ScenarioPoint& point : result.series) {
    if (point.round - 1 < 3) EXPECT_EQ(point.attacker_transactions, 0u);
    measured |= point.has_attack_metrics;
  }
  EXPECT_TRUE(measured);
}

// ------------------------------------------------------- pinned baselines ---

// Each baseline's results, pinned to recorded values: a tiny run with
// per-client accuracies, consensus evaluation and a label flip from unit 2
// probed every unit. The series JSONL is compared as an FNV-1a digest of its
// bytes, which carry every double at round-trip precision, so any change to
// a draw order, a training stream or an evaluation shows here.
struct PinnedBaseline {
  scenario::AlgorithmKind algorithm;
  std::uint64_t series_digest;
  double final_accuracy;
  double consensus_accuracy;
  double mean_flip_rate;
  std::size_t poisoned_clients;
};

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Baselines, ResultsArePinned) {
  const PinnedBaseline pinned[] = {
      {scenario::AlgorithmKind::kFedAvg, 0x84FA4A5729BD21EBULL, 0.25, 0.16666666666666666,
       0.0625, 2},
      {scenario::AlgorithmKind::kFedProx, 0xA75FED8B6107AF15ULL, 0.25, 0.083333333333333329,
       0.0625, 2},
      {scenario::AlgorithmKind::kGossip, 0x3E7E159DAC310252ULL, 0.25, 0.375, 0.125, 2},
  };
  for (const PinnedBaseline& expected : pinned) {
    scenario::ScenarioSpec spec = tiny_spec();
    spec.rounds = 4;
    spec.algorithm = expected.algorithm;
    spec.record_client_accuracies = true;
    spec.evaluate_consensus = true;
    spec.attacks.label_flip = {0.34, 7, 9, 2, 0};
    spec.attacks.metrics_every = 1;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    std::ostringstream series;
    scenario::write_series_jsonl(result, series);
    const std::string algorithm = scenario::to_string(expected.algorithm);
    EXPECT_EQ(fnv1a(series.str()), expected.series_digest) << algorithm << "\n" << series.str();
    EXPECT_EQ(result.final_accuracy, expected.final_accuracy) << algorithm;
    EXPECT_EQ(result.consensus_accuracy, expected.consensus_accuracy) << algorithm;
    EXPECT_EQ(result.mean_flip_rate, expected.mean_flip_rate) << algorithm;
    EXPECT_EQ(result.poisoned_clients, expected.poisoned_clients) << algorithm;
  }
}

TEST(Baselines, GossipAndFedproxRunBehindTheRunner) {
  for (const scenario::AlgorithmKind algorithm :
       {scenario::AlgorithmKind::kGossip, scenario::AlgorithmKind::kFedProx}) {
    scenario::ScenarioSpec spec = tiny_spec();
    spec.rounds = 3;
    spec.algorithm = algorithm;
    spec.evaluate_consensus = true;
    spec.record_client_accuracies = true;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    EXPECT_EQ(result.algorithm, scenario::to_string(algorithm));
    ASSERT_EQ(result.series.size(), 3u);
    EXPECT_EQ(result.series[0].client_accuracies.size(), spec.clients_per_round);
    EXPECT_GE(result.consensus_accuracy, 0.0);
    EXPECT_EQ(result.dag_size, 0u);  // no DAG: the summary skips DAG metrics
    const scenario::Json json = scenario::result_to_json(result, false);
    EXPECT_EQ(json.find("summary")->find("dag_size"), nullptr);
    EXPECT_EQ(json.find("algorithm")->as_string(), result.algorithm);
  }
}

TEST(Baselines, LabelFlipAttackAppliesToFedAvg) {
  scenario::ScenarioSpec spec = tiny_spec();
  spec.algorithm = scenario::AlgorithmKind::kFedAvg;
  spec.attacks.label_flip = {0.34, 3, 8, 2, 0};
  spec.attacks.metrics_every = 1;
  const scenario::ScenarioResult result = scenario::run_scenario(spec);
  EXPECT_GT(result.poisoned_clients, 0u);
  EXPECT_GE(result.mean_flip_rate, 0.0);
  bool measured = false;
  for (const scenario::ScenarioPoint& point : result.series) {
    if (point.round - 1 < 2) EXPECT_FALSE(point.has_attack_metrics);
    if (point.has_attack_metrics) {
      measured = true;
      EXPECT_EQ(point.approved_poisoned, -1.0);  // no DAG to count approvals in
    }
  }
  EXPECT_TRUE(measured);
}

// ----------------------------------------------------- attacker vs store ---

TEST(Attacks, AttackerPayloadsAreInternedInTheModelStore) {
  // Every attacker transaction must flow through the DAG's ModelStore:
  // payload_hash is defined, store stats count the junk, and identical junk
  // payloads dedup like any replayed model.
  sim::ExperimentPreset preset = sim::fmnist_clustered_preset({7, false});
  data::SyntheticDigitsConfig config;
  config.seed = 7;
  config.num_clients = 4;
  config.samples_per_client = 30;
  preset.dataset = data::make_fmnist_clustered(config);
  preset.sim.clients_per_round = 2;
  preset.sim.rounds = 3;
  sim::DagSimulator simulator(std::move(preset.dataset), preset.factory, preset.sim);
  simulator.run_rounds(3);

  dag::Dag& dag = simulator.network().dag();
  nn::Sequential probe = preset.factory();
  fl::RandomWeightAttacker attacker(/*publisher_id=*/4, probe.num_weights(), {}, Rng(99));
  const dag::TxId junk = attacker.attack(dag, 3);

  const store::StoreStats before = dag.store().stats();
  EXPECT_EQ(before.payloads, dag.size());  // junk interned like every payload
  const store::ContentHash junk_hash = dag.payload_hash(junk);
  EXPECT_TRUE(junk_hash.hi != 0 || junk_hash.lo != 0);
  EXPECT_TRUE(dag.transaction(junk).poisoned_publisher);

  // A replayed (bit-identical) attack payload dedups against the store.
  const dag::WeightsPtr payload = dag.weights(junk);
  const dag::TxId replay = dag.add_transaction({junk}, payload, 4, 4, true);
  const store::StoreStats after = dag.store().stats();
  EXPECT_EQ(after.dedup_hits, before.dedup_hits + 1);
  EXPECT_EQ(after.payloads, before.payloads);
  EXPECT_EQ(dag.payload_hash(replay), junk_hash);
}

TEST(Attacks, AdversarialRunsAreDeltaTransparent) {
  // The delta-encoded store must not change one bit of an adversarial run:
  // junk payloads fall back to raw anchors when they do not compress, and
  // materialization is lossless either way.
  scenario::ScenarioSpec spec = tiny_spec();
  spec.rounds = 6;
  spec.attacks.random_weights = {1.0, 0.1, 2, 1, 0};
  spec.evaluate_consensus = true;
  spec.store.delta = true;
  spec.store.anchor_interval = 4;
  const scenario::ScenarioResult with_delta = scenario::run_scenario(spec);
  spec.store.delta = false;
  const scenario::ScenarioResult baseline = scenario::run_scenario(spec);

  EXPECT_EQ(with_delta.dag_size, baseline.dag_size);
  EXPECT_EQ(with_delta.attacker_transactions, baseline.attacker_transactions);
  EXPECT_EQ(with_delta.junk_reference_fraction, baseline.junk_reference_fraction);
  EXPECT_EQ(with_delta.consensus_accuracy, baseline.consensus_accuracy);
  for (std::size_t i = 0; i < with_delta.series.size(); ++i) {
    EXPECT_EQ(with_delta.series[i].mean_accuracy, baseline.series[i].mean_accuracy) << i;
  }
}

}  // namespace
}  // namespace specdag
