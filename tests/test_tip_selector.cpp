#include "tipsel/tip_selector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>


namespace specdag::tipsel {
namespace {

using dag::Dag;
using dag::kGenesisTx;
using dag::TxId;

dag::WeightsPtr payload(float v) {
  return std::make_shared<const nn::WeightVector>(nn::WeightVector{v});
}

// Evaluator mapping a payload's single weight directly to an accuracy —
// gives tests precise control over the walk bias.
ModelEvaluator identity_evaluator() {
  return [](const nn::WeightVector& w) {
    return static_cast<double>(std::clamp(w.at(0), 0.0f, 1.0f));
  };
}

// ------------------------------------------------------- Eq. 1-3 weights ----

TEST(WalkWeights, StandardNormalization) {
  // Eq. 1-2: weight = exp(alpha * (acc - max)).
  const auto weights =
      AccuracyTipSelector::walk_weights({0.5, 0.9}, 10.0, Normalization::kStandard);
  EXPECT_NEAR(weights[1], 1.0, 1e-12);
  EXPECT_NEAR(weights[0], std::exp(10.0 * (0.5 - 0.9)), 1e-12);
}

TEST(WalkWeights, MaxAlwaysGetsWeightOne) {
  for (auto norm : {Normalization::kStandard, Normalization::kDynamic}) {
    const auto weights = AccuracyTipSelector::walk_weights({0.1, 0.7, 0.4}, 3.0, norm);
    EXPECT_NEAR(weights[1], 1.0, 1e-12);
    for (double w : weights) {
      EXPECT_GT(w, 0.0);
      EXPECT_LE(w, 1.0);
    }
  }
}

TEST(WalkWeights, DynamicNormalizationScalesBySpread) {
  // Eq. 3: with spread s, normalized* = (acc - max)/s, so the *relative*
  // weights are independent of the absolute spread.
  const auto tight =
      AccuracyTipSelector::walk_weights({0.50, 0.51}, 5.0, Normalization::kDynamic);
  const auto wide =
      AccuracyTipSelector::walk_weights({0.1, 0.9}, 5.0, Normalization::kDynamic);
  EXPECT_NEAR(tight[0], wide[0], 1e-12);
  EXPECT_NEAR(tight[0], std::exp(-5.0), 1e-12);
}

TEST(WalkWeights, DynamicDegeneratesToUniformWhenEqual) {
  const auto weights =
      AccuracyTipSelector::walk_weights({0.4, 0.4, 0.4}, 100.0, Normalization::kDynamic);
  for (double w : weights) EXPECT_NEAR(w, 1.0, 1e-12);
}

TEST(WalkWeights, AlphaZeroIsUniform) {
  const auto weights =
      AccuracyTipSelector::walk_weights({0.1, 0.9}, 0.0, Normalization::kStandard);
  EXPECT_NEAR(weights[0], 1.0, 1e-12);
  EXPECT_NEAR(weights[1], 1.0, 1e-12);
}

TEST(WalkWeights, HigherAlphaMoreDeterministic) {
  const auto soft = AccuracyTipSelector::walk_weights({0.5, 0.6}, 1.0, Normalization::kStandard);
  const auto hard =
      AccuracyTipSelector::walk_weights({0.5, 0.6}, 100.0, Normalization::kStandard);
  EXPECT_GT(soft[0], hard[0]);
}

TEST(WalkWeights, EmptyThrows) {
  EXPECT_THROW(AccuracyTipSelector::walk_weights({}, 1.0, Normalization::kStandard),
               std::invalid_argument);
}

// ---------------------------------------------------------- random walks ----

TEST(RandomTipSelector, ReachesATip) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.1f), 0, 1);
  const TxId b = dag.add_transaction({a}, payload(0.2f), 1, 2);
  const TxId c = dag.add_transaction({a}, payload(0.3f), 2, 2);
  RandomTipSelector selector;
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const TxId tip = selector.walk(dag, kGenesisTx, rng);
    EXPECT_TRUE(tip == b || tip == c);
  }
}

TEST(RandomTipSelector, GenesisOnlyDagReturnsGenesis) {
  Dag dag({0.0f});
  RandomTipSelector selector;
  Rng rng(2);
  EXPECT_EQ(selector.walk(dag, kGenesisTx, rng), kGenesisTx);
}

TEST(RandomTipSelector, RoughlyUniformOverBranches) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.1f), 0, 1);
  const TxId b = dag.add_transaction({kGenesisTx}, payload(0.2f), 1, 1);
  RandomTipSelector selector;
  Rng rng(3);
  std::map<TxId, int> counts;
  for (int i = 0; i < 2000; ++i) counts[selector.walk(dag, kGenesisTx, rng)]++;
  EXPECT_NEAR(static_cast<double>(counts[a]) / 2000.0, 0.5, 0.05);
  EXPECT_NEAR(static_cast<double>(counts[b]) / 2000.0, 0.5, 0.05);
}

TEST(WeightedTipSelector, PrefersHeavySubgraph) {
  // Branch a has a long chain behind it (heavy); branch b is a bare tip.
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.1f), 0, 1);
  TxId chain = a;
  for (int i = 0; i < 8; ++i) chain = dag.add_transaction({chain}, payload(0.1f), 0, 2 + i);
  const TxId b = dag.add_transaction({kGenesisTx}, payload(0.1f), 1, 1);
  WeightedTipSelector selector(2.0);
  Rng rng(4);
  int chose_heavy = 0;
  for (int i = 0; i < 200; ++i) {
    const TxId tip = selector.walk(dag, kGenesisTx, rng);
    if (tip != b) ++chose_heavy;
  }
  EXPECT_GT(chose_heavy, 190);
}

TEST(WeightedTipSelector, AlphaZeroActsRandom) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.1f), 0, 1);
  TxId chain = a;
  for (int i = 0; i < 8; ++i) chain = dag.add_transaction({chain}, payload(0.1f), 0, 2);
  const TxId b = dag.add_transaction({kGenesisTx}, payload(0.1f), 1, 1);
  WeightedTipSelector selector(0.0);
  Rng rng(5);
  int chose_b = 0;
  for (int i = 0; i < 2000; ++i) {
    if (selector.walk(dag, kGenesisTx, rng) == b) ++chose_b;
  }
  EXPECT_NEAR(chose_b / 2000.0, 0.5, 0.06);
  EXPECT_THROW(WeightedTipSelector(-1.0), std::invalid_argument);
}

// -------------------------------------------------- accuracy-biased walk ----

TEST(AccuracyTipSelector, FollowsAccurateBranch) {
  Dag dag({0.0f});
  const TxId good = dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  const TxId bad = dag.add_transaction({kGenesisTx}, payload(0.1f), 1, 1);
  AccuracyTipSelector selector(10.0, Normalization::kStandard, identity_evaluator());
  Rng rng(6);
  std::map<TxId, int> counts;
  for (int i = 0; i < 500; ++i) counts[selector.walk(dag, kGenesisTx, rng)]++;
  EXPECT_GT(counts[good], 490);
  EXPECT_LT(counts[bad], 10);
}

TEST(AccuracyTipSelector, LowAlphaIsNearlyRandom) {
  Dag dag({0.0f});
  const TxId good = dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  (void)good;
  dag.add_transaction({kGenesisTx}, payload(0.1f), 1, 1);
  AccuracyTipSelector selector(0.1, Normalization::kStandard, identity_evaluator());
  Rng rng(7);
  std::map<TxId, int> counts;
  for (int i = 0; i < 2000; ++i) counts[selector.walk(dag, kGenesisTx, rng)]++;
  // exp(-0.1*0.8)=0.92 relative weight: close to 50/50.
  EXPECT_NEAR(counts[good] / 2000.0, 0.52, 0.06);
}

TEST(AccuracyTipSelector, CachesEvaluations) {
  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  dag.add_transaction({kGenesisTx}, payload(0.1f), 1, 1);
  int evaluations = 0;
  auto counting_evaluator = [&evaluations](const nn::WeightVector& w) {
    ++evaluations;
    return static_cast<double>(w[0]);
  };
  AccuracyTipSelector selector(1.0, Normalization::kStandard, counting_evaluator,
                               std::make_shared<store::ShardedEvalCache>(), /*client=*/0);
  Rng rng(8);
  selector.walk(dag, kGenesisTx, rng);
  EXPECT_EQ(evaluations, 2);
  selector.walk(dag, kGenesisTx, rng);
  EXPECT_EQ(evaluations, 2);  // persistent cache: no re-evaluation
}

TEST(AccuracyTipSelector, PerCallCacheReevaluates) {
  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  int evaluations = 0;
  auto counting_evaluator = [&evaluations](const nn::WeightVector& w) {
    ++evaluations;
    return static_cast<double>(w[0]);
  };
  AccuracyTipSelector selector(1.0, Normalization::kStandard, counting_evaluator);
  Rng rng(9);
  selector.walk(dag, kGenesisTx, rng);
  selector.walk(dag, kGenesisTx, rng);
  EXPECT_EQ(evaluations, 2);  // one per walk: local cache cleared between walks
}

TEST(AccuracyTipSelector, RejectsBadEvaluator) {
  EXPECT_THROW(AccuracyTipSelector(1.0, Normalization::kStandard, nullptr),
               std::invalid_argument);
  EXPECT_THROW(AccuracyTipSelector(-1.0, Normalization::kStandard, identity_evaluator()),
               std::invalid_argument);

  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(5.0f), 0, 1);  // "accuracy" > 1
  AccuracyTipSelector selector(
      1.0, Normalization::kStandard,
      [](const nn::WeightVector& w) { return static_cast<double>(w[0]); });
  Rng rng(10);
  EXPECT_THROW(selector.walk(dag, kGenesisTx, rng), std::runtime_error);
}

TEST(AccuracyTipSelector, StatsCountStepsAndEvaluations) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.5f), 0, 1);
  dag.add_transaction({a}, payload(0.6f), 1, 2);
  AccuracyTipSelector selector(1.0, Normalization::kStandard, identity_evaluator());
  Rng rng(11);
  selector.select_tips(dag, 1, rng);
  EXPECT_EQ(selector.last_stats().steps, 2u);
  EXPECT_EQ(selector.last_stats().evaluations, 2u);
}

// ------------------------------------------------------------ select_tips --

TEST(SelectTips, DeduplicatesTips) {
  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  AccuracyTipSelector selector(100.0, Normalization::kStandard, identity_evaluator());
  Rng rng(12);
  const auto tips = selector.select_tips(dag, 2, rng);
  EXPECT_EQ(tips.size(), 1u);  // both walks reach the same single tip
}

TEST(SelectTips, CountZeroThrows) {
  Dag dag({0.0f});
  RandomTipSelector selector;
  Rng rng(13);
  EXPECT_THROW(selector.select_tips(dag, 0, rng), std::invalid_argument);
}

TEST(SelectTips, GenesisStartModeIgnoresDepthWindow) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(0.9f), 0, 1);
  RandomTipSelector selector;
  selector.set_walk_start(WalkStart::kGenesis);
  Rng rng(14);
  const auto tips = selector.select_tips(dag, 1, rng);
  EXPECT_EQ(tips.front(), a);
}

TEST(SelectTips, DepthSampledStartUsesWindow) {
  // Long chain: with window [2, 2] the start is exactly 2 behind the tip,
  // so the walk still reaches the unique tip.
  Dag dag({0.0f});
  TxId chain = kGenesisTx;
  for (int i = 0; i < 6; ++i) chain = dag.add_transaction({chain}, payload(0.5f), 0, 1);
  RandomTipSelector selector;
  selector.set_walk_start(WalkStart::kDepthSampled);
  selector.set_start_depth(2, 2);
  Rng rng(15);
  const auto tips = selector.select_tips(dag, 1, rng);
  EXPECT_EQ(tips.front(), chain);
  EXPECT_EQ(selector.last_stats().steps, 2u);
  EXPECT_THROW(selector.set_start_depth(3, 1), std::invalid_argument);
}

// ------------------------------------- batched cumulative-weight walks ------

// Builds a random-ish DAG: each transaction approves 1-2 random earlier
// transactions, publishers alternate between two groups.
Dag& random_dag() {
  static Dag dag({0.0f});
  if (dag.size() == 1) {
    Rng rng(77);
    for (int i = 0; i < 80; ++i) {
      const auto ids = dag.all_ids();
      std::vector<TxId> parents = {ids[rng.index(ids.size())]};
      const TxId other = ids[rng.index(ids.size())];
      if (other != parents[0]) parents.push_back(other);
      dag.add_transaction(parents, payload(0.5f), i % 2, 1 + static_cast<std::size_t>(i) / 10);
    }
  }
  return dag;
}

VisibilityMask even_round_mask() {
  // Arbitrary but non-trivial: hide transactions published by group 1 from
  // round 4 on (the shape of a partition mask).
  return [](const Dag& dag, TxId id) {
    return dag.publisher(id) != 1 || dag.round(id) < 4;
  };
}

// The pre-batching walk: per-step cumulative weights (BFS under a mask).
TxId reference_weighted_walk(const Dag& dag, double alpha, const VisibilityMask& mask,
                             Rng& rng) {
  const auto visible_children = [&](TxId id) {
    std::vector<TxId> children = dag.children(id);
    if (mask) std::erase_if(children, [&](TxId c) { return !mask(dag, c); });
    return children;
  };
  const auto masked_cw = [&](TxId id) -> std::size_t {
    if (!mask) return dag.cumulative_weight(id);
    std::set<TxId> visited{id};
    std::vector<TxId> frontier{id};
    while (!frontier.empty()) {
      const TxId cur = frontier.back();
      frontier.pop_back();
      for (TxId child : visible_children(cur)) {
        if (visited.insert(child).second) frontier.push_back(child);
      }
    }
    return visited.size();
  };
  TxId current = kGenesisTx;
  for (;;) {
    const std::vector<TxId> children = visible_children(current);
    if (children.empty()) return current;
    std::vector<double> weights(children.size());
    double cw_max = 0.0;
    std::vector<double> cw(children.size());
    for (std::size_t i = 0; i < children.size(); ++i) {
      cw[i] = static_cast<double>(masked_cw(children[i]));
      cw_max = std::max(cw_max, cw[i]);
    }
    for (std::size_t i = 0; i < children.size(); ++i) {
      weights[i] = std::exp(alpha * (cw[i] - cw_max));
    }
    current = children[rng.weighted_index(weights)];
  }
}

TEST(WeightedTipSelector, BatchedWalksMatchPerStepReference) {
  Dag& dag = random_dag();
  WeightedTipSelector selector(2.0);
  Rng walk_rng(123), ref_rng(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(selector.walk(dag, kGenesisTx, walk_rng),
              reference_weighted_walk(dag, 2.0, nullptr, ref_rng))
        << "walk " << i;
  }
}

TEST(WeightedTipSelector, BatchedMaskedWalksMatchPerStepReference) {
  Dag& dag = random_dag();
  WeightedTipSelector selector(2.0);
  selector.set_visibility_mask(even_round_mask());
  Rng walk_rng(321), ref_rng(321);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(selector.walk(dag, kGenesisTx, walk_rng),
              reference_weighted_walk(dag, 2.0, even_round_mask(), ref_rng))
        << "walk " << i;
  }
}

TEST(Dag, MaskedCumulativeWeightsAllMatchesBfs) {
  Dag& dag = random_dag();
  const VisibilityMask mask = even_round_mask();
  std::vector<char> visible(dag.size());
  for (TxId id : dag.all_ids()) visible[id] = mask(dag, id) ? 1 : 0;
  const std::vector<std::size_t> batched = dag.cumulative_weights_all(visible);

  RandomTipSelector probe;  // any selector exposes the per-id masked BFS path
  probe.set_visibility_mask(mask);
  for (TxId id : dag.all_ids()) {
    if (!visible[id]) {
      EXPECT_EQ(batched[id], 0u) << "invisible id " << id;
      continue;
    }
    // Reference: BFS over visible children only.
    std::set<TxId> visited{id};
    std::vector<TxId> frontier{id};
    while (!frontier.empty()) {
      const TxId cur = frontier.back();
      frontier.pop_back();
      for (TxId child : dag.children(cur)) {
        if (visible[child] && visited.insert(child).second) frontier.push_back(child);
      }
    }
    EXPECT_EQ(batched[id], visited.size()) << "id " << id;
  }
}

}  // namespace
}  // namespace specdag::tipsel
