#include "tipsel/tip_selector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace specdag::tipsel {
namespace {

struct WalkMetrics {
  obs::Counter& walks = obs::Registry::counter("tipsel.walks");
  obs::Counter& restarts = obs::Registry::counter("tipsel.walk_restarts");
  obs::Counter& evaluations = obs::Registry::counter("tipsel.evaluations");
  obs::Histogram& walk_steps = obs::Registry::histogram("tipsel.walk_steps");
  obs::Histogram& walk_us = obs::Registry::histogram("tipsel.walk_us");
  obs::Histogram& start_us = obs::Registry::histogram("tipsel.start_us");
};

WalkMetrics& walk_metrics() {
  static WalkMetrics metrics;
  return metrics;
}

}  // namespace

void TipSelector::set_start_depth(std::size_t min_depth, std::size_t max_depth) {
  if (min_depth > max_depth) {
    throw std::invalid_argument("TipSelector::set_start_depth: min > max");
  }
  min_depth_ = min_depth;
  max_depth_ = max_depth;
}

VisibilityMask make_group_visibility_mask(std::shared_ptr<const std::vector<int>> groups,
                                          int my_group, std::size_t start_round) {
  return [groups = std::move(groups), my_group, start_round](const dag::Dag& dag,
                                                             dag::TxId id) {
    const int publisher = dag.publisher(id);
    if (publisher < 0 || static_cast<std::size_t>(publisher) >= groups->size()) return true;
    if (dag.round(id) < start_round) return true;
    return (*groups)[static_cast<std::size_t>(publisher)] == my_group;
  };
}

void TipSelector::visible_children_into(const dag::Dag& dag, dag::TxId id,
                                        std::vector<dag::TxId>& out) const {
  dag.children_into(id, out);
  if (!mask_) return;
  std::erase_if(out, [&](dag::TxId child) { return !mask_(dag, child); });
}

std::size_t TipSelector::walk_cumulative_weight(const dag::Dag& dag, dag::TxId id) {
  // Epoch-marked visited array: bumping the epoch invalidates every mark
  // from previous calls without touching the memory.
  if (bfs_mark_.size() <= id) bfs_mark_.resize(id + 1, 0);
  ++bfs_epoch_;
  bfs_mark_[id] = bfs_epoch_;
  bfs_frontier_.assign(1, id);
  std::size_t count = 1;
  while (!bfs_frontier_.empty()) {
    const dag::TxId cur = bfs_frontier_.back();
    bfs_frontier_.pop_back();
    visible_children_into(dag, cur, bfs_children_);
    for (dag::TxId child : bfs_children_) {
      if (bfs_mark_.size() <= child) bfs_mark_.resize(child + 1, 0);
      if (bfs_mark_[child] != bfs_epoch_) {
        bfs_mark_[child] = bfs_epoch_;
        bfs_frontier_.push_back(child);
        ++count;
      }
    }
  }
  return count;
}

const std::vector<std::size_t>& TipSelector::batched_cumulative_weights(const dag::Dag& dag) {
  const std::size_t n = dag.size();
  visible_scratch_.assign(n, 0);
  for (dag::TxId id = 0; id < n; ++id) {
    if (mask_(dag, id)) visible_scratch_[id] = 1;
  }
  dag.cumulative_weights_all_into(visible_scratch_, cw_scratch_, reach_scratch_);
  // A transaction appended between the two dag calls would land inside
  // the result as invisible (weight 0) even though the mask never saw it.
  // Clamp to the snapshot so post-snapshot ids hit the per-id fallback.
  if (cw_scratch_.size() > visible_scratch_.size()) cw_scratch_.resize(visible_scratch_.size());
  return cw_scratch_;
}

std::vector<dag::TxId> TipSelector::select_tips(const dag::Dag& dag, std::size_t count,
                                                Rng& rng) {
  if (count == 0) throw std::invalid_argument("TipSelector::select_tips: count == 0");
  stats_ = WalkStats{};
  std::vector<dag::TxId> selected;
  selected.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    dag::TxId start = dag::kGenesisTx;
    if (start_mode_ == WalkStart::kDepthSampled) {
      const std::uint64_t start_begin = obs::now_ns();
      start = dag.sample_walk_start(rng, min_start_depth(), max_start_depth());
      walk_metrics().start_us.record((obs::now_ns() - start_begin) / 1000);
    }
    // A depth-sampled start can land on a masked transaction; genesis is
    // always visible (publisher -1, round 0).
    if (!visible(dag, start)) {
      start = dag::kGenesisTx;
      walk_metrics().restarts.add();
    }
    const std::uint64_t steps_before = stats_.steps;
    const std::uint64_t walk_start = obs::now_ns();
    selected.push_back(walk(dag, start, rng));
    walk_metrics().walks.add();
    walk_metrics().walk_steps.record(stats_.steps - steps_before);
    walk_metrics().walk_us.record((obs::now_ns() - walk_start) / 1000);
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()), selected.end());
  walk_metrics().evaluations.add(stats_.evaluations);
  return selected;
}

dag::TxId RandomTipSelector::walk(const dag::Dag& dag, dag::TxId start, Rng& rng) {
  dag::TxId current = start;
  for (;;) {
    visible_children_into(dag, current, children_);
    if (children_.empty()) return current;
    current = children_[rng.index(children_.size())];
    ++stats_.steps;
  }
}

WeightedTipSelector::WeightedTipSelector(double alpha) : alpha_(alpha) {
  if (alpha < 0.0) throw std::invalid_argument("WeightedTipSelector: negative alpha");
}

dag::TxId WeightedTipSelector::walk(const dag::Dag& dag, dag::TxId start, Rng& rng) {
  // Unmasked, each step reads its children's weights straight from the DAG's
  // incremental index. Masked weights count only the visible future cone,
  // which the DAG cannot index: one masked sweep per walk, hoisted above
  // the step loop, with ids appended after it falling back to the per-id
  // BFS. Commits are serialized outside the prepare phase, so both read the
  // DAG as of the walk's start.
  const std::vector<std::size_t>* masked_cw =
      has_visibility_mask() ? &batched_cumulative_weights(dag) : nullptr;
  dag::TxId current = start;
  for (;;) {
    if (masked_cw == nullptr) {
      dag.children_with_weights_into(current, children_, cw_);
    } else {
      visible_children_into(dag, current, children_);
      cw_.resize(children_.size());
      for (std::size_t i = 0; i < children_.size(); ++i) {
        const dag::TxId child = children_[i];
        cw_[i] = child < masked_cw->size() ? (*masked_cw)[child]
                                           : walk_cumulative_weight(dag, child);
      }
    }
    if (children_.empty()) return current;
    const double cw_max = static_cast<double>(*std::max_element(cw_.begin(), cw_.end()));
    weights_.resize(children_.size());
    for (std::size_t i = 0; i < children_.size(); ++i) {
      weights_[i] = std::exp(alpha_ * (static_cast<double>(cw_[i]) - cw_max));
    }
    current = children_[rng.weighted_index(weights_)];
    ++stats_.steps;
  }
}

AccuracyTipSelector::AccuracyTipSelector(double alpha, Normalization normalization,
                                         ModelEvaluator evaluator)
    : AccuracyTipSelector(alpha, normalization, std::move(evaluator), nullptr, 0) {}

AccuracyTipSelector::AccuracyTipSelector(double alpha, Normalization normalization,
                                         ModelEvaluator evaluator,
                                         std::shared_ptr<store::ShardedEvalCache> cache,
                                         int client)
    : alpha_(alpha),
      normalization_(normalization),
      evaluator_(std::move(evaluator)),
      cache_(std::move(cache)),
      client_(client) {
  if (alpha < 0.0) throw std::invalid_argument("AccuracyTipSelector: negative alpha");
  if (!evaluator_) throw std::invalid_argument("AccuracyTipSelector: null evaluator");
}

double AccuracyTipSelector::evaluate(const dag::Dag& dag, dag::TxId id) {
  if (cache_) {
    if (const std::optional<double> cached = cache_->lookup(client_, dag.payload_hash(id))) {
      return *cached;
    }
  } else if (auto it = local_cache_.find(id); it != local_cache_.end()) {
    return it->second;
  }
  const dag::WeightsPtr weights = dag.weights(id);
  const double acc = evaluator_(*weights);
  if (acc < 0.0 || acc > 1.0 || !std::isfinite(acc)) {
    throw std::runtime_error("AccuracyTipSelector: evaluator returned accuracy outside [0,1]");
  }
  ++stats_.evaluations;
  if (cache_) {
    cache_->insert(client_, dag.payload_hash(id), acc);
  } else {
    local_cache_.emplace(id, acc);
  }
  return acc;
}

void AccuracyTipSelector::walk_weights_into(const std::vector<double>& accuracies,
                                            double alpha, Normalization normalization,
                                            std::vector<double>& out) {
  if (accuracies.empty()) throw std::invalid_argument("walk_weights: empty accuracies");
  const auto [mn_it, mx_it] = std::minmax_element(accuracies.begin(), accuracies.end());
  const double mn = *mn_it, mx = *mx_it;
  out.resize(accuracies.size());
  for (std::size_t i = 0; i < accuracies.size(); ++i) {
    double normalized = accuracies[i] - mx;  // Eq. 1: <= 0
    if (normalization == Normalization::kDynamic) {
      // Eq. 3: scale by the spread so the bias adapts to how different the
      // candidate models actually are. Equal accuracies -> no bias.
      const double spread = mx - mn;
      normalized = spread > 0.0 ? normalized / spread : 0.0;
    }
    out[i] = std::exp(normalized * alpha);  // Eq. 2, in (0, 1]
  }
}

std::vector<double> AccuracyTipSelector::walk_weights(const std::vector<double>& accuracies,
                                                      double alpha,
                                                      Normalization normalization) {
  std::vector<double> weights;
  walk_weights_into(accuracies, alpha, normalization, weights);
  return weights;
}

dag::TxId AccuracyTipSelector::walk(const dag::Dag& dag, dag::TxId start, Rng& rng) {
  if (!cache_) local_cache_.clear();
  dag::TxId current = start;
  for (;;) {
    visible_children_into(dag, current, children_);
    if (children_.empty()) return current;
    // Algorithm 1: evaluate every reachable next model on local data, then
    // make a weighted random choice.
    accuracies_.resize(children_.size());
    for (std::size_t i = 0; i < children_.size(); ++i) {
      accuracies_[i] = evaluate(dag, children_[i]);
    }
    walk_weights_into(accuracies_, alpha_, normalization_, weights_);
    current = children_[rng.weighted_index(weights_)];
    ++stats_.steps;
  }
}

}  // namespace specdag::tipsel
