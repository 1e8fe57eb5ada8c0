#include "metrics/dag_metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace specdag::metrics {

PurenessResult approval_pureness(const dag::Dag& dag, const std::vector<int>& client_clusters) {
  PurenessResult result;
  const auto known = [&](int publisher) {
    return publisher >= 0 && static_cast<std::size_t>(publisher) < client_clusters.size();
  };
  for (const auto& [approver, approved] : dag.approval_publishers()) {
    // Genesis and publishers without a known cluster (external attackers)
    // contribute no pureness information.
    if (!known(approver) || !known(approved)) continue;
    ++result.total_edges;
    if (client_clusters[static_cast<std::size_t>(approved)] ==
        client_clusters[static_cast<std::size_t>(approver)]) {
      ++result.pure_edges;
    }
  }
  result.pureness = result.total_edges == 0
                        ? 0.0
                        : static_cast<double>(result.pure_edges) /
                              static_cast<double>(result.total_edges);
  return result;
}

double base_pureness(const std::vector<std::size_t>& cluster_sizes) {
  if (cluster_sizes.empty()) throw std::invalid_argument("base_pureness: no clusters");
  double total = 0.0;
  for (std::size_t s : cluster_sizes) total += static_cast<double>(s);
  if (total <= 0.0) throw std::invalid_argument("base_pureness: empty clusters");
  double base = 0.0;
  for (std::size_t s : cluster_sizes) {
    const double share = static_cast<double>(s) / total;
    base += share * share;
  }
  return base;
}

std::size_t approved_poisoned_count(const dag::Dag& dag, dag::TxId reference) {
  std::size_t count = dag.transaction(reference).poisoned_publisher ? 1 : 0;
  for (dag::TxId id : dag.past_cone(reference)) {
    if (dag.transaction(id).poisoned_publisher) ++count;
  }
  return count;
}

DagWeightSummary dag_weight_summary(const dag::Dag& dag) {
  DagWeightSummary summary;
  const std::vector<std::size_t> weights = dag.cumulative_weights_all();
  summary.transactions = weights.size();
  summary.tips = dag.tips().size();
  double sum = 0.0;
  // Genesis is approved by everything; skipping it keeps the mean about the
  // actual model updates.
  for (std::size_t id = 1; id < weights.size(); ++id) {
    sum += static_cast<double>(weights[id]);
    summary.max_cumulative_weight = std::max(summary.max_cumulative_weight, weights[id]);
  }
  if (weights.size() > 1) {
    summary.mean_cumulative_weight = sum / static_cast<double>(weights.size() - 1);
  }
  return summary;
}

}  // namespace specdag::metrics
