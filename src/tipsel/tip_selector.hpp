// Tip selection strategies (paper §4.2).
//
// A tip selector performs random walks through the DAG in the direction
// opposite to approvals (from old transactions towards tips). The three
// strategies the paper evaluates:
//   * RandomTipSelector       — uniformly random child at every step (the
//                               "random tip selector" poisoning baseline).
//   * WeightedTipSelector     — classic Tangle walk biased by cumulative
//                               weight (Figure 3).
//   * AccuracyTipSelector     — the paper's contribution: the walk is biased
//                               by each candidate model's accuracy on the
//                               client's local test data (Algorithm 1),
//                               with the standard (Eq. 1-2) or dynamic
//                               (Eq. 3) normalization.
//
// Selectors are per-client and walk sequentially, so every buffer the walk
// inner loops need (children, per-step weights, BFS scratch) is owned by
// the selector and reused across steps and walks — steady-state walks
// allocate nothing.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "dag/dag.hpp"
#include "store/eval_cache.hpp"
#include "util/rng.hpp"

namespace specdag::tipsel {

// Where walks begin.
//
// kGenesis starts every walk at the genesis transaction: the walk passes the
// branch point of all lineages, so the bias — not the start position —
// decides which specialized subgraph the walk enters. kDepthSampled starts
// at a transaction sampled 15-25 steps behind the tips (Popov's suggestion,
// used by the paper's §5.3.5 scalability measurements); it bounds the walk
// cost but can trap a walk inside whatever lineage the start belongs to.
enum class WalkStart {
  kGenesis,
  kDepthSampled,
};

// Instrumentation for the scalability evaluation (Figure 15).
struct WalkStats {
  std::size_t steps = 0;        // walk steps taken
  std::size_t evaluations = 0;  // candidate-model evaluations performed
};

// Per-client visibility filter over the shared DAG: a walk only traverses
// transactions for which the mask returns true. Empty mask = full
// visibility. Used by the simulators to model network partitions — during a
// partition each client's mask hides the other groups' new transactions, so
// walks terminate at the tips of the client's *visible* subgraph.
using VisibilityMask = std::function<bool(const dag::Dag&, dag::TxId)>;

// The partition mask both simulators install: a transaction is visible when
// its publisher carries no group information (genesis, external attackers),
// when it was committed before `start_round` (already broadcast network-wide),
// or when its publisher shares the client's group.
VisibilityMask make_group_visibility_mask(std::shared_ptr<const std::vector<int>> groups,
                                          int my_group, std::size_t start_round);

class TipSelector {
 public:
  virtual ~TipSelector() = default;

  // Walks from `start` to a tip. `start` must exist in `dag`.
  virtual dag::TxId walk(const dag::Dag& dag, dag::TxId start, Rng& rng) = 0;

  // Runs `count` independent walks and returns the reached tips
  // (deduplicated, so the result may be shorter than `count`).
  // Resets and accumulates `last_stats` across the walks of this call.
  std::vector<dag::TxId> select_tips(const dag::Dag& dag, std::size_t count, Rng& rng);

  void set_walk_start(WalkStart mode) { start_mode_ = mode; }
  WalkStart walk_start() const { return start_mode_; }

  // Depth window for WalkStart::kDepthSampled (paper §5.3.5: 15-25).
  void set_start_depth(std::size_t min_depth, std::size_t max_depth);
  std::size_t min_start_depth() const { return min_depth_; }
  std::size_t max_start_depth() const { return max_depth_; }

  // Restricts walks to the masked subgraph (empty mask = no restriction).
  void set_visibility_mask(VisibilityMask mask) { mask_ = std::move(mask); }
  bool has_visibility_mask() const { return static_cast<bool>(mask_); }

  const WalkStats& last_stats() const { return stats_; }

 protected:
  // Children of `id` that pass the visibility mask, copied into `out`
  // (cleared first). A visible transaction whose children are all masked
  // acts as a tip of the visible subgraph. `out` must be a selector-owned
  // scratch distinct from any buffer live in the caller's loop.
  void visible_children_into(const dag::Dag& dag, dag::TxId id,
                             std::vector<dag::TxId>& out) const;
  bool visible(const dag::Dag& dag, dag::TxId id) const {
    return !mask_ || mask_(dag, id);
  }

  // Cumulative weight as this walker perceives it: only the visible future
  // cone counts — a partitioned client must not rank candidates by the size
  // of subgraphs it cannot see. Uses selector-owned BFS scratch
  // (epoch-marked visited array), so repeated calls allocate nothing once
  // the buffers reach the DAG's high-water size.
  std::size_t walk_cumulative_weight(const dag::Dag& dag, dag::TxId id);

  // Masked cumulative weight of every transaction at once: one bit-parallel
  // sweep (masks are per-client state the DAG cannot index), run once per
  // walk. Transactions appended after the sweep are not covered; callers
  // fall back to walk_cumulative_weight for ids beyond the returned size.
  // The returned reference points into selector-owned scratch and stays
  // valid until the next call.
  const std::vector<std::size_t>& batched_cumulative_weights(const dag::Dag& dag);

  WalkStats stats_;

 private:
  WalkStart start_mode_ = WalkStart::kGenesis;
  std::size_t min_depth_ = 15;
  std::size_t max_depth_ = 25;
  VisibilityMask mask_;
  // Scratch for batched_cumulative_weights: result, sweep bit masks and the
  // visibility snapshot. Sized once per DAG high-water mark.
  std::vector<std::size_t> cw_scratch_;
  std::vector<std::uint64_t> reach_scratch_;
  std::vector<char> visible_scratch_;
  // Scratch for walk_cumulative_weight's BFS: epoch-marked visited array
  // (no O(n) clear per call), frontier, and a children buffer separate from
  // the walk loops' buffers (the BFS runs while a walk iterates its own).
  std::vector<std::uint64_t> bfs_mark_;
  std::uint64_t bfs_epoch_ = 0;
  std::vector<dag::TxId> bfs_frontier_;
  std::vector<dag::TxId> bfs_children_;
};

// Uniformly random walk.
class RandomTipSelector final : public TipSelector {
 public:
  dag::TxId walk(const dag::Dag& dag, dag::TxId start, Rng& rng) override;

 private:
  std::vector<dag::TxId> children_;  // per-step scratch
};

// Cumulative-weight biased walk: P(child) ∝ exp(alpha * (cw - cw_max)),
// the IOTA-style MCMC bias. alpha -> 0 degenerates to the random walk.
class WeightedTipSelector final : public TipSelector {
 public:
  explicit WeightedTipSelector(double alpha);

  dag::TxId walk(const dag::Dag& dag, dag::TxId start, Rng& rng) override;

  double alpha() const { return alpha_; }

 private:
  double alpha_;
  // Per-step scratch: candidate children, their cumulative weights, and the
  // exp-bias weights — reused across steps and walks.
  std::vector<dag::TxId> children_;
  std::vector<std::size_t> cw_;
  std::vector<double> weights_;
};

// Normalization variants of the accuracy bias (paper Eq. 1-3).
enum class Normalization {
  kStandard,  // normalized  = acc - max(accs);             weight = exp(alpha * normalized)
  kDynamic,   // normalized* = (acc - max) / (max - min);   weight = exp(alpha * normalized*)
};

// Evaluates a model payload on the calling client's local test data and
// returns its accuracy in [0, 1].
using ModelEvaluator = std::function<double(const nn::WeightVector&)>;

class AccuracyTipSelector final : public TipSelector {
 public:
  // Transaction payloads are immutable, so a model's accuracy on a fixed
  // local dataset never changes. With a `cache`, the selector reads and
  // fills `client`'s entries of the simulation-wide evaluation cache, keyed
  // by payload content, across rounds (the fast path). Without one,
  // evaluations are only memoized within a single walk (the paper's cost
  // model for the Figure 15 timing).
  AccuracyTipSelector(double alpha, Normalization normalization, ModelEvaluator evaluator);
  AccuracyTipSelector(double alpha, Normalization normalization, ModelEvaluator evaluator,
                      std::shared_ptr<store::ShardedEvalCache> cache, int client);

  dag::TxId walk(const dag::Dag& dag, dag::TxId start, Rng& rng) override;

  double alpha() const { return alpha_; }
  Normalization normalization() const { return normalization_; }

  // Accuracy of one transaction's model on local data, via the cache.
  double evaluate(const dag::Dag& dag, dag::TxId id);

  // Computes the walk weights for a set of candidate accuracies — exposed
  // for unit tests of Eq. 1-3. `walk_weights_into` is the allocation-free
  // variant the walk loops use.
  static std::vector<double> walk_weights(const std::vector<double>& accuracies, double alpha,
                                          Normalization normalization);
  static void walk_weights_into(const std::vector<double>& accuracies, double alpha,
                                Normalization normalization, std::vector<double>& out);

 private:
  double alpha_;
  Normalization normalization_;
  ModelEvaluator evaluator_;
  std::shared_ptr<store::ShardedEvalCache> cache_;
  int client_;
  std::unordered_map<dag::TxId, double> local_cache_;  // per-walk, when no cache was given
  // Per-step scratch: candidate children, accuracies, walk weights.
  std::vector<dag::TxId> children_;
  std::vector<double> accuracies_;
  std::vector<double> weights_;
};

}  // namespace specdag::tipsel
