// Figure 15 — time required for the biased random walk as the number of
// concurrently active clients grows (5, 10, 20, 40), on the FMNIST author
// split. Walks start at a transaction sampled 15-25 steps behind the tips
// (Popov), exactly as in the paper's §5.3.5 setup, and model evaluations are
// not cached across rounds so every walk pays its full evaluation cost.
//
// Paper shape: the per-walk duration differs only marginally across
// concurrency levels — concurrency has little impact on the walk cost, so
// the approach scales well. Absolute milliseconds are hardware- and
// model-size-dependent; the claim is the flat trend.
//
// Thin driver over the registry's "fig15-scalability" scenario: the runner
// records every walk's duration in the tipsel.walk_us obs histogram; this
// main only sweeps clients_per_round and reads that histogram back.
#include <algorithm>

#include "bench_common.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace specdag;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv);
  bench::print_header("Figure 15 — random-walk duration vs concurrently active clients",
                      "walk duration roughly flat in the number of active clients");
  const std::vector<std::size_t> active_counts = {5, 10, 20, 40};

  auto csv = bench::open_csv(args, "fig15_scalability",
                             {"active_clients", "walks", "mean_walk_ms", "p50_walk_ms_le",
                              "p99_walk_ms_le", "mean_evaluations", "dag_size"});

  std::vector<double> mean_by_concurrency;
  for (std::size_t active : active_counts) {
    scenario::ScenarioSpec spec = scenario::get_scenario("fig15-scalability");
    spec.seed = args.seed;
    if (args.rounds) spec.rounds = args.rounds;
    spec.clients_per_round = active;

    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    const obs::HistogramSnapshot walk_us = result.obs_totals.histogram("tipsel.walk_us");
    // Quantiles are histogram bucket upper bounds (powers of two).
    const double mean_ms = walk_us.mean() * 1e-3;
    const double p50_ms = static_cast<double>(walk_us.quantile_upper_bound(0.5)) * 1e-3;
    const double p99_ms = static_cast<double>(walk_us.quantile_upper_bound(0.99)) * 1e-3;
    double evaluations = 0.0;
    for (const scenario::ScenarioPoint& point : result.series) {
      evaluations += point.mean_walk_evaluations;
    }
    evaluations /= static_cast<double>(std::max<std::size_t>(1, result.series.size()));
    const std::size_t dag_size = result.series.empty() ? 0 : result.series.back().dag_size;
    mean_by_concurrency.push_back(mean_ms);
    csv.row({std::to_string(active), std::to_string(walk_us.count), bench::fmt(mean_ms),
             bench::fmt(p50_ms), bench::fmt(p99_ms), bench::fmt(evaluations, 1),
             std::to_string(dag_size)});
    std::cout << active << " active clients: mean walk " << bench::fmt(mean_ms, 2)
              << " ms over " << walk_us.count << " walks (p50 <= " << bench::fmt(p50_ms, 2)
              << ", p99 <= " << bench::fmt(p99_ms, 2) << ")\n";
  }

  const double spread = *std::max_element(mean_by_concurrency.begin(),
                                          mean_by_concurrency.end()) /
                        std::max(1e-9, *std::min_element(mean_by_concurrency.begin(),
                                                         mean_by_concurrency.end()));
  std::cout << "\nmax/min mean walk duration across concurrency levels: "
            << bench::fmt(spread, 2) << "x\n";
  std::cout << "Shape check: the ratio should stay small (paper: marginal differences"
               "\nbetween 5 and 40 active clients), indicating good scalability.\n";
  return 0;
}
