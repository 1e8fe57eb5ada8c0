// The paper's evaluation figures (Figs. 5-15, Table 2) and the ablations,
// run from their committed sweep grids under examples/figures/ at seed 42.
// Each test asserts the shape claims that hold at this scale. The claims
// that do not hold are not asserted; the README lists them with their
// measured numbers ("Not reproduced at this scale").
//
// Run one figure: ./specdag_slow_tests --gtest_filter='Figures.Fig9*'
// The same grid from the CLI: specdag sweep examples/figures/fig9_fmnist.json
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <future>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "scenario/sweep.hpp"

namespace specdag {
namespace {

namespace fs = std::filesystem;
using scenario::Json;
using scenario::ScenarioPoint;
using scenario::ScenarioResult;
using scenario::SweepRun;

// Runs one committed grid with its JSONL redirected into the test temp dir.
std::vector<SweepRun> run_grid(const std::string& name) {
  scenario::SweepSpec sweep = scenario::sweep_from_json(
      Json::parse_file(std::string(SPECDAG_EXAMPLES_DIR) + "/figures/" + name + ".json"));
  sweep.out_path = (fs::path(::testing::TempDir()) / ("figures-" + name + ".jsonl")).string();
  std::vector<SweepRun> runs = scenario::run_sweep(sweep);
  fs::remove(sweep.out_path);
  return runs;
}

std::map<std::string, std::shared_future<std::vector<SweepRun>>>& started() {
  static std::map<std::string, std::shared_future<std::vector<SweepRun>>> grids;
  return grids;
}

// Starts the named grids side by side, each once per process (Figs. 6-8
// share one). Table 2 and Fig. 9 pair each dataset with its own settings, so
// their grids hold one or two runs each and only fill the cores together;
// the first test starts all six.
void start(std::initializer_list<std::string> names) {
  for (const std::string& name : names) {
    if (started().count(name) == 0) {
      started().emplace(name, std::async(std::launch::async, run_grid, name).share());
    }
  }
}

const std::vector<SweepRun>& grid(const std::string& name) {
  start({name});
  return started().at(name).get();
}

// The run whose params include every member of `params` (a JSON object).
const ScenarioResult& pick(const std::vector<SweepRun>& runs, const std::string& params) {
  const Json wanted = Json::parse(params);
  for (const SweepRun& run : runs) {
    const bool match = std::all_of(
        wanted.as_object().begin(), wanted.as_object().end(), [&](const Json::Member& member) {
          const Json* value = run.params.find(member.first);
          return value != nullptr && *value == member.second;
        });
    if (match) return run.result;
  }
  throw std::invalid_argument("no run with params " + params);
}

double accuracy_at(const ScenarioResult& result, std::size_t round) {
  for (const ScenarioPoint& point : result.series) {
    if (point.round == round) return point.mean_accuracy;
  }
  throw std::invalid_argument("no series point at round " + std::to_string(round));
}

// Mean of a per-point value over the last 10 series points.
double tail_mean(const ScenarioResult& result, double ScenarioPoint::*field) {
  const std::size_t n = std::min<std::size_t>(10, result.series.size());
  double sum = 0.0;
  for (std::size_t i = result.series.size() - n; i < result.series.size(); ++i) {
    sum += result.series[i].*field;
  }
  return sum / static_cast<double>(n);
}

// Linearly interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q) {
  const double position = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(position);
  std::nth_element(values.begin(), values.begin() + low, values.end());
  const double below = values[low];
  if (low + 1 == values.size()) return below;
  const double above = *std::min_element(values.begin() + low + 1, values.end());
  return below + (position - static_cast<double>(low)) * (above - below);
}

// The per-client accuracies of the last 5-round window (Fig. 9 boxes).
std::vector<double> last_window(const ScenarioResult& result) {
  std::vector<double> values;
  for (const ScenarioPoint& point : result.series) {
    if (point.round + 5 > result.rounds) {
      values.insert(values.end(), point.client_accuracies.begin(),
                    point.client_accuracies.end());
    }
  }
  return values;
}

TEST(Figures, Table2PurenessAboveBase) {
  start({"table2_fmnist", "table2_poets", "table2_cifar", "fig9_fmnist", "fig9_poets",
         "fig9_cifar"});
  for (const char* name : {"table2_fmnist", "table2_poets", "table2_cifar"}) {
    const ScenarioResult& result = grid(name).front().result;
    EXPECT_GT(result.pureness, result.base_pureness) << name;
  }
  // Fully disjoint clusters make FMNIST-clustered the purest.
  const double fmnist = grid("table2_fmnist").front().result.pureness;
  EXPECT_GT(fmnist, grid("table2_poets").front().result.pureness);
  EXPECT_GT(fmnist, grid("table2_cifar").front().result.pureness);
}

TEST(Figures, Fig5AlphaTenFindsTheThreeClusters) {
  const auto& runs = grid("fig5_alpha_metrics");
  auto community_points = [&](const std::string& alpha) {
    std::vector<const ScenarioPoint*> points;
    for (const ScenarioPoint& point : pick(runs, R"({"client.alpha": )" + alpha + "}").series) {
      if (point.has_community_metrics) points.push_back(&point);
    }
    return points;
  };
  const auto alpha10 = community_points("10");
  ASSERT_FALSE(alpha10.empty());
  EXPECT_EQ(alpha10.back()->communities, 3u);
  EXPECT_LE(alpha10.back()->misclassification, 0.01);
  const auto alpha1 = community_points("1");
  ASSERT_FALSE(alpha1.empty());
  EXPECT_LT(alpha1.back()->modularity, alpha1.front()->modularity);
}

TEST(Figures, Fig6EarlyAccuracyRisesWithAlpha) {
  const auto& runs = grid("fig6_7_alpha_norm");
  double previous = 0.0;
  for (const char* alpha : {"0.1", "1", "10", "100"}) {
    const double at20 = accuracy_at(
        pick(runs, std::string(R"({"client.normalization": "standard", "client.alpha": )") +
                       alpha + "}"),
        20);
    EXPECT_GE(at20, previous) << "alpha " << alpha;
    previous = at20;
  }
}

TEST(Figures, Fig8RelaxedClustersNarrowTheAlphaGap) {
  auto gap = [](const std::vector<SweepRun>& runs, const std::string& fixed) {
    return accuracy_at(pick(runs, "{" + fixed + R"("client.alpha": 100})"), 20) -
           accuracy_at(pick(runs, "{" + fixed + R"("client.alpha": 0.1})"), 20);
  };
  const double clustered =
      gap(grid("fig6_7_alpha_norm"), R"("client.normalization": "standard", )");
  const double relaxed = gap(grid("fig8_relaxed"), "");
  EXPECT_GT(clustered, 0.0);
  EXPECT_LT(relaxed, clustered);
}

TEST(Figures, Fig9DagSpecializesOnClusteredData) {
  // FMNIST-clustered: the DAG's last-window median is at least FedAvg's and
  // its spread across clients is smaller ("less variance across clients").
  const auto& fmnist = grid("fig9_fmnist");
  const std::vector<double> dag = last_window(pick(fmnist, R"({"algorithm": "dag"})"));
  const std::vector<double> fedavg = last_window(pick(fmnist, R"({"algorithm": "fedavg"})"));
  ASSERT_FALSE(dag.empty());
  ASSERT_FALSE(fedavg.empty());
  EXPECT_GE(quantile(dag, 0.5), quantile(fedavg, 0.5));
  EXPECT_LT(quantile(dag, 0.75) - quantile(dag, 0.25),
            quantile(fedavg, 0.75) - quantile(fedavg, 0.25));
  // Poets and CIFAR: no central server needed for similar accuracy.
  for (const char* name : {"fig9_poets", "fig9_cifar"}) {
    const auto& runs = grid(name);
    const double dag_median = quantile(last_window(pick(runs, R"({"algorithm": "dag"})")), 0.5);
    const double fedavg_median =
        quantile(last_window(pick(runs, R"({"algorithm": "fedavg"})")), 0.5);
    EXPECT_NEAR(dag_median, fedavg_median, 0.1) << name;
  }
}

TEST(Figures, Fig10And11DagLossAtMostFedAvg) {
  const auto& runs = grid("fig10_11_fedprox");
  EXPECT_LE(tail_mean(pick(runs, R"({"algorithm": "dag"})"), &ScenarioPoint::mean_loss),
            tail_mean(pick(runs, R"({"algorithm": "fedavg"})"), &ScenarioPoint::mean_loss));
}

TEST(Figures, Fig12And13PoisoningGrowsWithTheFraction) {
  const auto& runs = grid("fig12_13_accuracy");
  const ScenarioResult& clean = pick(runs, R"({"attacks.label_flip.fraction": 0})");
  const ScenarioResult& poisoned = pick(runs, R"({"attacks.label_flip.fraction": 0.3})");
  EXPECT_GT(poisoned.mean_flip_rate, clean.mean_flip_rate);
  EXPECT_GT(poisoned.mean_approved_poisoned, clean.mean_approved_poisoned);
}

TEST(Figures, Fig12AccuracySelectorContainsPoisoningBetterThanRandom) {
  const ScenarioResult& accuracy =
      pick(grid("fig12_13_accuracy"), R"({"attacks.label_flip.fraction": 0.2})");
  const ScenarioResult& random = grid("fig12_13_random").front().result;
  EXPECT_GT(random.mean_flip_rate, accuracy.mean_flip_rate);
  EXPECT_GT(random.mean_approved_poisoned, accuracy.mean_approved_poisoned);
}

TEST(Figures, Fig15WalkCountScalesWithActiveClients) {
  // Each active client walks three times per round (two parents and its
  // reference). The walk durations themselves are timing and not asserted.
  for (const SweepRun& run : grid("fig15_scalability")) {
    const std::size_t active = run.params.find("clients_per_round")->as_uint();
    EXPECT_EQ(run.result.obs_totals.counter("tipsel.walks"), run.result.rounds * active * 3)
        << active << " active clients";
  }
}

TEST(Figures, AblationAsyncLatencySustainsSpecialization) {
  for (const SweepRun& run : grid("ablation_async_latency")) {
    const double latency = run.params.find("broadcast_latency")->as_number();
    if (latency == 0.0) {
      EXPECT_LT(run.result.pureness, run.result.base_pureness);
    } else {
      EXPECT_GE(run.result.pureness, 0.85) << "latency " << latency;
    }
  }
}

TEST(Figures, AblationBaselinesDagBeatsFedAvg) {
  const auto& runs = grid("ablation_baselines");
  EXPECT_GT(tail_mean(pick(runs, R"({"algorithm": "dag"})"), &ScenarioPoint::mean_accuracy),
            tail_mean(pick(runs, R"({"algorithm": "fedavg"})"), &ScenarioPoint::mean_accuracy));
}

TEST(Figures, AblationNumParentsAccuracyDoesNotCollapse) {
  const auto& runs = grid("ablation_num_parents");
  const double paper = pick(runs, R"({"client.num_parents": 2})").final_accuracy;
  for (const SweepRun& run : runs) {
    EXPECT_GT(run.result.final_accuracy, paper - 0.1) << run.params.dump();
  }
}

TEST(Figures, AblationHeadOnlyTrainingStillSpecializes) {
  const ScenarioResult& head_only =
      pick(grid("ablation_partial_training"), R"({"client.train.freeze_prefix_params": 2})");
  EXPECT_GT(head_only.final_accuracy, 0.1);  // chance on ten classes
  EXPECT_GT(head_only.pureness, head_only.base_pureness);
}

TEST(Figures, AblationPublishGatePublishesLess) {
  auto published = [](const ScenarioResult& result) {
    std::size_t total = 0;
    for (const ScenarioPoint& point : result.series) total += point.publishes;
    return total;
  };
  const auto& runs = grid("ablation_publish_gate");
  EXPECT_LT(published(pick(runs, R"({"client.publish_gate": true})")),
            published(pick(runs, R"({"client.publish_gate": false})")));
}

TEST(Figures, AblationRandomWeightsJunkErodesTheConsensus) {
  double previous = 1.0;
  for (const SweepRun& run : grid("ablation_random_weights")) {
    EXPECT_LT(run.result.consensus_accuracy, previous) << run.params.dump();
    previous = run.result.consensus_accuracy;
  }
}

TEST(Figures, AblationVisibilityDelayDegradesGracefully) {
  const auto& runs = grid("ablation_visibility_delay");
  const ScenarioResult& prompt = pick(runs, R"({"visibility_delay_rounds": 0})");
  for (const SweepRun& run : runs) {
    EXPECT_GT(run.result.final_accuracy, prompt.final_accuracy - 0.1) << run.params.dump();
    EXPECT_GT(run.result.pureness, prompt.pureness - 0.1) << run.params.dump();
  }
}

}  // namespace
}  // namespace specdag
