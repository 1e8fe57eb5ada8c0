// End-to-end checkpoint/resume equivalence (the slow ctest tier): an
// interrupted run resumed from any checkpoint must reproduce the
// uninterrupted run's JSONL series, final accuracies, and delta_ratio at any
// thread count — with dynamics (churn/stragglers) and both attack kinds
// active across the interruption point. Also the committed golden-replay
// regression: `specdag replay` over the fixture under tests/golden/ must
// match the committed window byte for byte (the series carries no wall
// clock, so the comparison needs no normalization).
//
// Regenerating the golden fixture after a deliberate format bump:
//   SPECDAG_REGEN_GOLDEN=1 ./specdag_slow_tests --gtest_filter='GoldenReplay*'
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/sweep.hpp"
#include "snapshot/checkpoint.hpp"

namespace specdag {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("specdag-slow-" + tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string file(const std::string& name) const { return (path_ / name).string(); }

 private:
  fs::path path_;
};

// The raw write_series_jsonl bytes: the stream carries no wall-clock field,
// so equivalence is byte equality with no normalization.
std::string series_jsonl(const scenario::ScenarioResult& result) {
  std::ostringstream out;
  scenario::write_series_jsonl(result, out);
  return out.str();
}

void expect_equivalent(const scenario::ScenarioResult& resumed,
                       const scenario::ScenarioResult& full, const std::string& label) {
  EXPECT_EQ(series_jsonl(resumed), series_jsonl(full)) << label;
  EXPECT_EQ(resumed.final_accuracy, full.final_accuracy) << label;
  EXPECT_EQ(resumed.dag_size, full.dag_size) << label;
  EXPECT_EQ(resumed.tips, full.tips) << label;
  EXPECT_EQ(resumed.pureness, full.pureness) << label;
  EXPECT_DOUBLE_EQ(resumed.store_stats.delta_ratio(), full.store_stats.delta_ratio()) << label;
  EXPECT_EQ(resumed.store_stats.anchors, full.store_stats.anchors) << label;
  EXPECT_EQ(resumed.store_stats.deltas, full.store_stats.deltas) << label;
}

TEST(ResumeEquivalence, RoundSimWithDynamicsAndAttacks) {
  TempDir dir("round");
  scenario::ScenarioSpec spec = scenario::get_scenario("churn");
  spec.num_clients = 8;
  spec.samples_per_client = 30;
  spec.rounds = 8;
  spec.clients_per_round = 4;
  spec.client.train = {1, 4, 8, 0.05};
  spec.dynamics.churn = {0.3, 2, 6};
  // Both attack kinds straddle the checkpoints: the attacker RNG, poisoned
  // labels, and attack metrics must all survive the restore.
  spec.attacks.random_weights.rate = 1.0;
  spec.attacks.random_weights.start_round = 3;
  spec.attacks.label_flip.fraction = 0.3;
  spec.attacks.label_flip.start_round = 2;
  spec.attacks.label_flip.stop_round = 6;
  spec.attacks.metrics_every = 1;
  spec.checkpoint.every_n_rounds = 2;
  spec.checkpoint.dir = dir.file("ckpts");

  const scenario::ScenarioResult full = scenario::run_scenario(spec);
  for (std::size_t unit : {2, 4, 6}) {
    for (std::size_t threads : {1, 2}) {
      scenario::ResumeOverrides overrides;
      overrides.has_threads = true;
      overrides.threads = threads;
      const scenario::ScenarioResult resumed = scenario::resume_scenario(
          snapshot::checkpoint_path(spec.checkpoint.dir, unit), overrides);
      expect_equivalent(resumed, full,
                        "unit " + std::to_string(unit) + " threads " + std::to_string(threads));
    }
  }
}

TEST(ResumeEquivalence, AsyncSimWithStragglers) {
  TempDir dir("async");
  scenario::ScenarioSpec spec = scenario::get_scenario("stragglers");
  spec.num_clients = 6;
  spec.samples_per_client = 30;
  spec.rounds = 6;
  spec.client.train = {1, 4, 8, 0.05};
  spec.checkpoint.every_n_rounds = 2;
  spec.checkpoint.dir = dir.file("ckpts");

  const scenario::ScenarioResult full = scenario::run_scenario(spec);
  for (std::size_t unit : {2, 4}) {
    for (std::size_t threads : {1, 2}) {
      scenario::ResumeOverrides overrides;
      overrides.has_threads = true;
      overrides.threads = threads;
      const scenario::ScenarioResult resumed = scenario::resume_scenario(
          snapshot::checkpoint_path(spec.checkpoint.dir, unit), overrides);
      expect_equivalent(resumed, full,
                        "unit " + std::to_string(unit) + " threads " + std::to_string(threads));
    }
  }
}

TEST(ResumeEquivalence, SweepResumeReusesFinishedRuns) {
  TempDir dir("sweep");
  scenario::SweepSpec sweep;
  {
    scenario::ScenarioSpec base = scenario::get_scenario("churn");
    base.num_clients = 6;
    base.samples_per_client = 30;
    base.rounds = 3;
    base.clients_per_round = 3;
    base.client.train = {1, 4, 8, 0.05};
    sweep.base = scenario::spec_to_json(base);
  }
  sweep.axes.push_back({"clients_per_round", {scenario::Json(2.0), scenario::Json(3.0)}});
  sweep.out_path = dir.file("sweep.jsonl");
  sweep.threads = 1;

  (void)scenario::run_sweep(sweep);
  ASSERT_TRUE(fs::exists(sweep.out_path));
  EXPECT_FALSE(fs::exists(sweep.out_path + ".partial"));  // removed on success

  // Simulate an interruption: keep only the first run's line as the
  // manifest, then resume. The reused line must survive verbatim.
  std::string first_line;
  {
    std::ifstream in(sweep.out_path);
    std::getline(in, first_line);
  }
  ASSERT_FALSE(first_line.empty());
  {
    std::ofstream manifest(sweep.out_path + ".partial");
    manifest << first_line << '\n';
  }
  sweep.resume = true;
  const std::vector<scenario::SweepRun> runs = scenario::run_sweep(sweep);
  ASSERT_EQ(runs.size(), 2u);

  std::vector<std::string> lines;
  std::ifstream in(sweep.out_path);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // two runs + footer
  EXPECT_EQ(lines[0], first_line);
  EXPECT_NE(lines[1].find("\"run\":1"), std::string::npos);
  EXPECT_NE(lines[2].find("\"reused\":1"), std::string::npos);
  EXPECT_FALSE(fs::exists(sweep.out_path + ".partial"));

  // A changed grid must be rejected, not silently mixed.
  {
    std::ofstream manifest(sweep.out_path + ".partial");
    manifest << first_line << '\n';
  }
  scenario::SweepSpec changed = sweep;
  changed.base.set("seed", 999);
  EXPECT_THROW((void)scenario::run_sweep(changed), std::invalid_argument);
}

// ----------------------------------------------------------------- golden ---

// The committed fixture: a checkpoint after round 2 of the golden scenario
// plus the JSONL of replaying rounds 3..5 from it.
constexpr std::size_t kGoldenFirst = 3;
constexpr std::size_t kGoldenLast = 5;

scenario::ScenarioSpec golden_spec(const std::string& checkpoint_dir) {
  scenario::ScenarioSpec spec = scenario::get_scenario("churn");
  spec.seed = 20260808;
  spec.num_clients = 6;
  spec.samples_per_client = 30;
  spec.rounds = 5;
  spec.clients_per_round = 3;
  spec.client.train = {1, 4, 8, 0.05};
  spec.dynamics.churn = {0.34, 2, 4};
  spec.checkpoint.every_n_rounds = 2;
  spec.checkpoint.dir = checkpoint_dir;
  return spec;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(GoldenReplay, WindowMatchesCommittedFixture) {
  const std::string golden_dir = SPECDAG_GOLDEN_DIR;
  const std::string ckpt = golden_dir + "/golden.ckpt";
  const std::string expected_path = golden_dir + "/golden-window.jsonl";

  if (std::getenv("SPECDAG_REGEN_GOLDEN") != nullptr) {
    // Regeneration mode (format bumps): rebuild the fixture, then fall
    // through and verify it round-trips.
    TempDir dir("golden-regen");
    scenario::ScenarioSpec spec = golden_spec(dir.file("ckpts"));
    (void)scenario::run_scenario(spec);
    fs::create_directories(golden_dir);
    fs::copy_file(snapshot::checkpoint_path(spec.checkpoint.dir, 2), ckpt,
                  fs::copy_options::overwrite_existing);
    const scenario::ScenarioResult window =
        scenario::replay_scenario(ckpt, kGoldenFirst, kGoldenLast);
    std::ofstream out(expected_path, std::ios::binary);
    out << series_jsonl(window);
  }

  ASSERT_TRUE(fs::exists(ckpt)) << "missing fixture " << ckpt
                                << " (regenerate with SPECDAG_REGEN_GOLDEN=1)";
  ASSERT_TRUE(fs::exists(expected_path));

  const snapshot::LoadedCheckpoint loaded = snapshot::load_checkpoint(ckpt);
  EXPECT_EQ(loaded.completed_units, 2u);

  for (std::size_t threads : {1, 2}) {
    scenario::ResumeOverrides overrides;
    overrides.has_threads = true;
    overrides.threads = threads;
    const scenario::ScenarioResult window =
        scenario::replay_scenario(ckpt, kGoldenFirst, kGoldenLast, overrides);
    EXPECT_EQ(series_jsonl(window), read_file(expected_path)) << "threads " << threads;
  }
}

}  // namespace
}  // namespace specdag
