// The incremental cumulative-weight index and the version-checked walk-start
// depth index: equivalence against the retained bit-parallel sweep oracle,
// the per-id BFS and depths_from_tips(), under randomized growth, masking,
// checkpoint restore and concurrent appends.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "dag/dag.hpp"
#include "metrics/dag_metrics.hpp"
#include "snapshot/access.hpp"
#include "tipsel/tip_selector.hpp"

namespace specdag::dag {
namespace {

WeightsPtr payload(float v = 0.0f) {
  return std::make_shared<const nn::WeightVector>(nn::WeightVector{v});
}

// Appends one random 1-2 parent transaction.
TxId grow(Dag& dag, Rng& rng, std::size_t round) {
  const std::size_t parents_count = std::min<std::size_t>(2, dag.size());
  const auto parent_idx = rng.sample_without_replacement(dag.size(), parents_count);
  return dag.add_transaction({parent_idx.begin(), parent_idx.end()}, payload(),
                             static_cast<int>(round % 7), round);
}

TEST(WeightIndex, MatchesSweepOracleDuringRandomizedGrowth) {
  Dag dag({0.0f});
  Rng rng(101);
  // Check at every intermediate size for the first stretch (the index is
  // maintained per append, so off-by-one bugs surface immediately), then at
  // coarser checkpoints across several 64-wide sweep chunks.
  for (std::size_t i = 1; i < 300; ++i) {
    grow(dag, rng, i);
    if (i < 40 || i % 37 == 0) {
      EXPECT_EQ(dag.cumulative_weights_all(), dag.cumulative_weights_reference())
          << "size " << dag.size();
    }
  }
  // Final state: index == sweep oracle == per-id BFS.
  const std::vector<std::size_t> index = dag.cumulative_weights_all();
  ASSERT_EQ(index, dag.cumulative_weights_reference());
  for (TxId id : dag.all_ids()) {
    EXPECT_EQ(index[id], dag.cumulative_weight(id)) << "id " << id;
  }
  EXPECT_EQ(index[kGenesisTx], dag.size());
}

TEST(WeightIndex, SizeCountsAppendsAndIndexCoversEveryTransaction) {
  Dag dag({0.0f});
  EXPECT_EQ(dag.size(), 1u);
  Rng rng(102);
  for (std::size_t i = 1; i <= 50; ++i) {
    grow(dag, rng, i);
    EXPECT_EQ(dag.size(), i + 1);
    EXPECT_EQ(dag.cumulative_weights_all().size(), dag.size());
  }
}

TEST(WeightIndex, MaskedSweepWithFullVisibilityMatchesIndex) {
  Dag dag({0.0f});
  Rng rng(103);
  for (std::size_t i = 1; i < 150; ++i) grow(dag, rng, i);
  const std::vector<char> all_visible(dag.size(), 1);
  EXPECT_EQ(dag.cumulative_weights_all(all_visible), dag.cumulative_weights_all());
}

TEST(WeightIndex, MaskedSweepMatchesMaskedBfsUnderRandomMasks) {
  // The masked path stays a sweep; pin it against a straightforward
  // visible-only BFS (the masked walker's view) on random masks.
  Dag dag({0.0f});
  Rng rng(104);
  for (std::size_t i = 1; i < 120; ++i) grow(dag, rng, i);
  const std::size_t n = dag.size();
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<char> visible(n, 0);
    for (std::size_t id = 0; id < n; ++id) visible[id] = rng.bernoulli(0.7) ? 1 : 0;
    const std::vector<std::size_t> masked = dag.cumulative_weights_all(visible);
    for (TxId id = 0; id < n; ++id) {
      if (!visible[id]) {
        EXPECT_EQ(masked[id], 0u);
        continue;
      }
      // BFS over children restricted to visible transactions.
      std::vector<char> seen(n, 0);
      std::vector<TxId> frontier{id};
      seen[id] = 1;
      std::size_t count = 1;
      while (!frontier.empty()) {
        const TxId cur = frontier.back();
        frontier.pop_back();
        for (TxId child : dag.children(cur)) {
          if (child < n && visible[child] && !seen[child]) {
            seen[child] = 1;
            frontier.push_back(child);
            ++count;
          }
        }
      }
      EXPECT_EQ(masked[id], count) << "trial " << trial << " id " << id;
    }
  }
}

TEST(WeightIndex, ConcurrentAppendsKeepSnapshotsCoherent) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  std::atomic<bool> stop{false};
  // Readers continuously snapshot while a writer appends: every snapshot
  // must be internally consistent — genesis counts everything.
  std::thread reader([&] {
    while (!stop.load()) {
      const std::vector<std::size_t> snapshot = dag.cumulative_weights_all();
      ASSERT_EQ(snapshot[kGenesisTx], snapshot.size());
      Rng rng(7);
      (void)dag.sample_walk_start(rng, 1, 3);
    }
  });
  Rng rng(105);
  for (std::size_t i = 0; i < 400; ++i) {
    const std::size_t parents_count = std::min<std::size_t>(2, dag.size());
    const auto parent_idx = rng.sample_without_replacement(dag.size(), parents_count);
    dag.add_transaction({parent_idx.begin(), parent_idx.end()}, payload(),
                        static_cast<int>(i % 3), 2);
  }
  stop = true;
  reader.join();
  (void)a;
  EXPECT_EQ(dag.cumulative_weights_all(), dag.cumulative_weights_reference());
}

TEST(WeightIndex, SampleWalkStartMatchesDepthsFromTipsReference) {
  // The size-checked depth index must sample exactly what the historical
  // per-walk depths_from_tips implementation sampled: identical candidate
  // sets in identical (ascending id) order, one rng draw per call.
  Dag dag({0.0f});
  Rng grow_rng(106);
  Rng sample_rng(55);
  Rng reference_rng(55);
  for (std::size_t i = 1; i < 200; ++i) {
    grow(dag, grow_rng, i);
    const TxId sampled = dag.sample_walk_start(sample_rng, 2, 5);

    const auto depth = dag.depths_from_tips();
    std::vector<TxId> candidates;
    for (TxId id = 0; id < depth.size(); ++id) {
      if (depth[id] >= 2 && depth[id] <= 5) candidates.push_back(id);
    }
    TxId expected = kGenesisTx;
    if (!candidates.empty()) {
      expected = candidates[reference_rng.index(candidates.size())];
    }
    EXPECT_EQ(sampled, expected) << "size " << dag.size();
  }
}

// Depth windows the sweep-built index is checked over: tips only, the
// shallow bands a wide DAG has, and the paper's 15-25 (§5.3.5).
const std::vector<std::pair<std::size_t, std::size_t>> kWindows = {
    {0, 0}, {1, 1}, {1, 3}, {2, 5}, {15, 25}};

// Samples one start per window from `dag` and from the depths_from_tips()
// reference (ascending candidates, one rng draw each, genesis when empty) and
// expects the same transaction.
void expect_starts_match_reference(const Dag& dag, Rng& sample_rng, Rng& reference_rng) {
  const auto depth = dag.depths_from_tips();
  ASSERT_EQ(depth.size(), dag.size());
  for (const auto& [min_depth, max_depth] : kWindows) {
    std::vector<TxId> candidates;
    for (TxId id = 0; id < depth.size(); ++id) {
      if (depth[id] >= min_depth && depth[id] <= max_depth) candidates.push_back(id);
    }
    const TxId expected =
        candidates.empty() ? kGenesisTx : candidates[reference_rng.index(candidates.size())];
    ASSERT_EQ(dag.sample_walk_start(sample_rng, min_depth, max_depth), expected)
        << "size " << dag.size() << " window " << min_depth << "-" << max_depth;
  }
}

// The scale-2k shape: most transactions are tips. A core of generations, 12
// wide, where transaction j approves j of the previous generation plus one
// other, then leaves on the top generation; one leaf in eight approves an
// older core transaction instead, which pulls that part of the core's depth
// back to 1 and changes the depths of everything below it.
TEST(WeightIndex, SampleWalkStartMatchesReferenceOnWideDag) {
  constexpr std::size_t kWidth = 12;
  constexpr std::size_t kGenerations = 30;
  Dag dag({0.0f});
  Rng grow_rng(111), sample_rng(56), reference_rng(56);
  for (std::size_t g = 0; g < kGenerations; ++g) {
    for (std::size_t j = 0; j < kWidth; ++j) {
      std::vector<TxId> parents{kGenesisTx};
      if (g > 0) {
        const TxId previous = 1 + (g - 1) * kWidth;
        parents = {previous + j, previous + (j + 1 + grow_rng.index(kWidth - 1)) % kWidth};
      }
      dag.add_transaction(parents, payload(), static_cast<int>(j), g);
      expect_starts_match_reference(dag, sample_rng, reference_rng);
    }
  }
  const TxId top = 1 + (kGenerations - 1) * kWidth;
  for (std::size_t leaf = 0; leaf < 1000; ++leaf) {
    const auto picks = grow_rng.sample_without_replacement(kWidth, 2);
    std::vector<TxId> parents{top + picks[0], top + picks[1]};
    if (leaf % 8 == 7) parents[1] = 1 + grow_rng.index(top - 1);
    dag.add_transaction(parents, payload(), static_cast<int>(leaf % 7), kGenerations);
    expect_starts_match_reference(dag, sample_rng, reference_rng);
  }
  EXPECT_GE(dag.tips().size() * 10, dag.size() * 7) << "not the wide shape";
}

TEST(WeightIndex, SampleWalkStartMatchesReferenceOnChain) {
  Dag dag({0.0f});
  Rng sample_rng(57), reference_rng(57);
  TxId chain = kGenesisTx;
  for (std::size_t i = 1; i < 80; ++i) {
    chain = dag.add_transaction({chain}, payload(), 0, i);
    expect_starts_match_reference(dag, sample_rng, reference_rng);
  }
  ASSERT_EQ(dag.tips(), std::vector<TxId>{chain});
}

// A DAG restored from a checkpoint rebuilds its depth index from the
// restored transactions alone: it must sample the same starts as the
// original from the same rng, before and after both grow further.
TEST(WeightIndex, SampleWalkStartMatchesAfterCheckpointRestore) {
  Dag original({0.0f});
  Rng grow_rng(112);
  for (std::size_t i = 1; i < 300; ++i) grow(original, grow_rng, i);
  Rng warm(1);
  (void)original.sample_walk_start(warm, 2, 5);  // a built index must not leak into the save

  snapshot::Writer w;
  snapshot::Access::save_dag(w, original);
  // Restore over a longer chain whose depth index is built, so a cache the
  // restore fails to drop would show.
  Dag restored({0.0f});
  TxId chain = kGenesisTx;
  for (std::size_t i = 1; i < 400; ++i) chain = restored.add_transaction({chain}, payload(), 0, i);
  (void)restored.sample_walk_start(warm, 2, 5);
  snapshot::Reader r(w.buffer());
  snapshot::Access::restore_dag(r, restored);
  ASSERT_EQ(restored.size(), original.size());

  Rng original_rng(58), restored_rng(58);
  for (std::size_t i = 300; i < 360; ++i) {
    for (const auto& [min_depth, max_depth] : kWindows) {
      ASSERT_EQ(restored.sample_walk_start(restored_rng, min_depth, max_depth),
                original.sample_walk_start(original_rng, min_depth, max_depth))
          << "size " << original.size();
    }
    Rng grow_a(i), grow_b(i);
    grow(original, grow_a, i);
    grow(restored, grow_b, i);
  }
  Rng sample_rng(59), reference_rng(59);
  expect_starts_match_reference(restored, sample_rng, reference_rng);
}

TEST(WeightIndex, SampleWalkStartServesMultipleDepthWindows) {
  Dag dag({0.0f});
  TxId chain = kGenesisTx;
  for (int i = 0; i < 12; ++i) chain = dag.add_transaction({chain}, payload(), 0, 1);
  Rng rng(66);
  const auto depth = dag.depths_from_tips();
  // Alternate between two windows against the same cached depth index.
  for (int i = 0; i < 20; ++i) {
    const TxId shallow = dag.sample_walk_start(rng, 1, 3);
    EXPECT_GE(depth.at(shallow), 1u);
    EXPECT_LE(depth.at(shallow), 3u);
    const TxId deep = dag.sample_walk_start(rng, 6, 9);
    EXPECT_GE(depth.at(deep), 6u);
    EXPECT_LE(depth.at(deep), 9u);
  }
  // A window beyond the DAG's depth falls back to genesis.
  EXPECT_EQ(dag.sample_walk_start(rng, 40, 50), kGenesisTx);
}

TEST(WeightIndex, DagWeightSummaryUsesIndexConsistently) {
  Dag dag({0.0f});
  Rng rng(107);
  for (std::size_t i = 1; i < 90; ++i) grow(dag, rng, i);
  const metrics::DagWeightSummary summary = metrics::dag_weight_summary(dag);
  const std::vector<std::size_t> reference = dag.cumulative_weights_reference();
  EXPECT_EQ(summary.transactions, reference.size());
  std::size_t max_cw = 0;
  double sum = 0.0;
  for (std::size_t id = 1; id < reference.size(); ++id) {
    sum += static_cast<double>(reference[id]);
    max_cw = std::max(max_cw, reference[id]);
  }
  EXPECT_EQ(summary.max_cumulative_weight, max_cw);
  EXPECT_DOUBLE_EQ(summary.mean_cumulative_weight,
                   sum / static_cast<double>(reference.size() - 1));
}

// A Weighted selector must walk the same once a mask is set and cleared:
// its masked-sweep scratch must not leak masked weights into unmasked walks
// (which read the live index) or vice versa.
TEST(WeightIndex, SelectorSnapshotSurvivesMaskTransitions) {
  Dag dag({0.0f});
  Rng rng(108);
  for (std::size_t i = 1; i < 80; ++i) grow(dag, rng, i);

  tipsel::WeightedTipSelector masked_then_unmasked(2.0);
  tipsel::WeightedTipSelector always_unmasked(2.0);
  // Odd-id transactions hidden (genesis stays visible).
  masked_then_unmasked.set_visibility_mask(
      [](const dag::Dag&, dag::TxId id) { return id % 2 == 0; });
  Rng walk_rng_a(9);
  (void)masked_then_unmasked.select_tips(dag, 2, walk_rng_a);

  // After clearing the mask the selector must walk exactly like a fresh
  // unmasked selector with the same rng stream.
  masked_then_unmasked.set_visibility_mask(nullptr);
  Rng walk_rng_b(10);
  Rng walk_rng_c(10);
  EXPECT_EQ(masked_then_unmasked.select_tips(dag, 3, walk_rng_b),
            always_unmasked.select_tips(dag, 3, walk_rng_c));

  // And both keep walking alike after the DAG grows.
  for (std::size_t i = 0; i < 30; ++i) grow(dag, rng, 90 + i);
  Rng walk_rng_d(11);
  Rng walk_rng_e(11);
  EXPECT_EQ(masked_then_unmasked.select_tips(dag, 3, walk_rng_d),
            always_unmasked.select_tips(dag, 3, walk_rng_e));
}

// Equal-sized DAGs share a size; a selector reused across them
// must walk DAG B with DAG B's weights, never weights kept from DAG A.
TEST(WeightIndex, SelectorSnapshotNotReusedAcrossDags) {
  Rng rng_a(201), rng_b(202);
  Dag dag_a({0.0f}), dag_b({0.0f});
  for (std::size_t i = 1; i < 60; ++i) {
    grow(dag_a, rng_a, i);
    grow(dag_b, rng_b, i);
  }
  ASSERT_EQ(dag_a.size(), dag_b.size());

  tipsel::WeightedTipSelector reused(2.0);
  tipsel::WeightedTipSelector fresh(2.0);
  Rng warm(12);
  (void)reused.select_tips(dag_a, 2, warm);
  Rng walk_a(13), walk_b(13);
  EXPECT_EQ(reused.select_tips(dag_b, 3, walk_a), fresh.select_tips(dag_b, 3, walk_b));
}

// The two weight sources of the Weighted walk: an always-true mask takes
// the masked sweep (once per walk), no mask reads the live incremental
// index per step. With the same rng they must pick exactly the same tips,
// across appends between walks and from depth-sampled starts.
TEST(WeightedTipSelector, AlwaysTrueMaskMatchesLiveIndexAcrossAppends) {
  Dag dag({0.0f});
  Rng grow_rng(113);
  for (std::size_t i = 1; i < 150; ++i) grow(dag, grow_rng, i);
  tipsel::WeightedTipSelector live(0.5);
  tipsel::WeightedTipSelector masked(0.5);
  masked.set_visibility_mask([](const Dag&, TxId) { return true; });
  for (auto* selector : {&live, &masked}) {
    selector->set_walk_start(tipsel::WalkStart::kDepthSampled);
    selector->set_start_depth(1, 3);
  }
  Rng live_rng(14), masked_rng(14);
  for (std::size_t walk = 0; walk < 60; ++walk) {
    ASSERT_EQ(live.select_tips(dag, 2, live_rng), masked.select_tips(dag, 2, masked_rng))
        << "walk " << walk << " size " << dag.size();
    ASSERT_EQ(live.last_stats().steps, masked.last_stats().steps);
    for (std::size_t k = 0; k <= walk % 3; ++k) grow(dag, grow_rng, 150 + walk);
  }
}

// Readers walk (depth-sampled, live weights) and read children with their
// weights while a writer appends: every tip is a real transaction and every
// weight lies in [1, DAG size].
TEST(WeightedTipSelector, ConcurrentDepthSampledWalksDuringAppends) {
  Dag dag({0.0f});
  Rng grow_rng(114);
  for (std::size_t i = 1; i < 50; ++i) grow(dag, grow_rng, i);
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (std::uint64_t reader = 0; reader < 3; ++reader) {
    readers.emplace_back([&dag, &stop, reader] {
      tipsel::WeightedTipSelector selector(1.0);
      selector.set_walk_start(tipsel::WalkStart::kDepthSampled);
      selector.set_start_depth(1, 3);
      Rng rng(300 + reader);
      std::vector<TxId> children;
      std::vector<std::size_t> weights;
      for (std::size_t iteration = 0; !stop.load() || iteration < 20; ++iteration) {
        for (TxId tip : selector.select_tips(dag, 2, rng)) ASSERT_LT(tip, dag.size());
        dag.children_with_weights_into(rng.index(dag.size()), children, weights);
        const std::size_t size = dag.size();
        ASSERT_EQ(children.size(), weights.size());
        for (std::size_t weight : weights) {
          ASSERT_GE(weight, 1u);
          ASSERT_LE(weight, size);
        }
      }
    });
  }
  for (std::size_t i = 0; i < 400; ++i) grow(dag, grow_rng, 50 + i);
  stop = true;
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(dag.cumulative_weights_all(), dag.cumulative_weights_reference());
}

}  // namespace
}  // namespace specdag::dag
