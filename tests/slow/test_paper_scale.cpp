// The paper-scale models end to end (the slow ctest tier: a paper-scale
// round costs seconds where the 16x16 presets cost milliseconds), and the
// paper-scale LSTM layer against its oracle.
#include <gtest/gtest.h>

#include <sstream>

#include "../lstm_oracle.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace specdag {
namespace {

// The paper-scale FEMNIST CNN (Conv2D, MaxPool2D and their fused BConv /
// BMaxPool lanes) is reachable only through `paper_scale`, which no registry
// scenario sets. One round of it, fused and scalar, must write the same
// series bytes.
TEST(PaperScale, CnnSeriesIsIdenticalFusedAndScalar) {
  scenario::ScenarioSpec spec = scenario::get_scenario("fmnist-clustered");
  spec.paper_scale = true;
  spec.rounds = 1;
  spec.num_clients = 4;
  spec.samples_per_client = 20;
  spec.clients_per_round = 2;
  const auto series = [&spec](std::size_t batch) {
    spec.client.train.batch = batch;
    const scenario::ScenarioResult result = scenario::run_scenario(spec);
    EXPECT_EQ(result.obs_totals.counter("train.batches") > 0, batch > 0) << batch;
    std::ostringstream out;
    scenario::write_series_jsonl(result, out);
    return out.str();
  };
  const std::string fused = series(16);
  EXPECT_FALSE(fused.empty());
  EXPECT_EQ(fused, series(0));
}

// The paper's Poets LSTM layer (embedding 8 -> 256 units, sequences of 80,
// batch 10), which only `paper_scale` builds: one forward/backward,
// bit-identical to the per-timestep oracle.
TEST(PaperScale, LstmLayerMatchesPerTimestepOracle) {
  testing::expect_lstm_matches_oracle(8, 256, 10, 80, 27, SIZE_MAX, /*steps=*/1);
}

}  // namespace
}  // namespace specdag
