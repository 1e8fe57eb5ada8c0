// A dense client graph with its modularity and Louvain, the reference the
// sparse metrics::ClientGraph is held to bit for bit.
//
// DenseClientGraph is the graph's original form, kept only here: an n x n
// row-major matrix of doubles whose degree and total sums add every entry,
// zeros included, and whose modularity visits all n^2 pairs. dense_louvain
// is the library's Louvain reading its input through DenseClientGraph. The
// production graph keeps sorted sparse rows; on any sequence of add_weight
// calls both must give the same bits for degree, total_weight, neighbors,
// modularity and the Louvain result.
#pragma once

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "metrics/community.hpp"
#include "util/rng.hpp"

namespace specdag::testing {

class DenseClientGraph {
 public:
  explicit DenseClientGraph(std::size_t n) : n_(n), w_(n * n, 0.0) {}

  std::size_t size() const { return n_; }

  double weight(std::size_t a, std::size_t b) const { return a == b ? 0.0 : w_[a * n_ + b]; }

  void add_weight(std::size_t a, std::size_t b, double delta) {
    w_[a * n_ + b] += delta;
    w_[b * n_ + a] += delta;
  }

  double degree(std::size_t a) const {
    double d = 0.0;
    for (std::size_t b = 0; b < n_; ++b) d += w_[a * n_ + b];
    return d;
  }

  double total_weight() const {
    double total = 0.0;
    for (std::size_t a = 0; a < n_; ++a) {
      for (std::size_t b = a + 1; b < n_; ++b) total += w_[a * n_ + b];
    }
    return total;
  }

  std::vector<std::size_t> neighbors(std::size_t a) const {
    std::vector<std::size_t> nbrs;
    for (std::size_t b = 0; b < n_; ++b) {
      if (b != a && w_[a * n_ + b] > 0.0) nbrs.push_back(b);
    }
    return nbrs;
  }

 private:
  std::size_t n_;
  std::vector<double> w_;  // row-major n x n, symmetric, zero diagonal
};

inline double dense_modularity(const DenseClientGraph& graph, const metrics::Partition& partition) {
  const double m = graph.total_weight();
  if (m <= 0.0) return 0.0;
  std::vector<double> degree(graph.size());
  for (std::size_t a = 0; a < graph.size(); ++a) degree[a] = graph.degree(a);
  double q = 0.0;
  for (std::size_t a = 0; a < graph.size(); ++a) {
    for (std::size_t b = 0; b < graph.size(); ++b) {
      if (partition[a] != partition[b]) continue;
      const double expected = degree[a] * degree[b] / (2.0 * m);
      q += graph.weight(a, b) - expected;
    }
  }
  return q / (2.0 * m);
}

namespace dense_detail {

struct LouvainGraph {
  std::vector<std::unordered_map<std::size_t, double>> adj;
  std::vector<double> self_loop;

  std::size_t size() const { return adj.size(); }

  double degree(std::size_t v) const {
    double d = 2.0 * self_loop[v];
    for (const auto& [u, w] : adj[v]) d += w;
    return d;
  }

  double two_m() const {
    double total = 0.0;
    for (std::size_t v = 0; v < size(); ++v) total += degree(v);
    return total;
  }
};

inline bool local_move_pass(const LouvainGraph& graph, metrics::Partition& community, Rng& rng) {
  const std::size_t n = graph.size();
  const double two_m = graph.two_m();
  if (two_m <= 0.0) return false;
  std::unordered_map<int, double> community_degree;
  for (std::size_t v = 0; v < n; ++v) community_degree[community[v]] += graph.degree(v);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  bool moved = false;
  for (std::size_t v : order) {
    const int own = community[v];
    const double deg_v = graph.degree(v);
    std::unordered_map<int, double> links;
    for (const auto& [u, w] : graph.adj[v]) links[community[u]] += w;
    community_degree[own] -= deg_v;
    int best_community = own;
    double best_gain = 0.0;
    const double own_links = links.count(own) ? links[own] : 0.0;
    const double base = own_links - community_degree[own] * deg_v / two_m;
    for (const auto& [c, w_in] : links) {
      if (c == own) continue;
      const double gain = (w_in - community_degree[c] * deg_v / two_m) - base;
      if (gain > best_gain + 1e-12) {
        best_gain = gain;
        best_community = c;
      }
    }
    community[v] = best_community;
    community_degree[best_community] += deg_v;
    if (best_community != own) moved = true;
  }
  return moved;
}

inline metrics::Partition compact_labels(const metrics::Partition& partition) {
  std::map<int, int> relabel;
  for (int c : partition) relabel.emplace(c, 0);
  int next = 0;
  for (auto& [old_id, new_id] : relabel) new_id = next++;
  metrics::Partition out(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) out[i] = relabel[partition[i]];
  return out;
}

}  // namespace dense_detail

inline metrics::LouvainResult dense_louvain(const DenseClientGraph& graph, Rng& rng) {
  using dense_detail::LouvainGraph;
  const std::size_t n = graph.size();
  metrics::Partition node_community(n);
  std::iota(node_community.begin(), node_community.end(), 0);

  LouvainGraph current;
  current.adj.resize(n);
  current.self_loop.assign(n, 0.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b : graph.neighbors(a)) current.adj[a][b] = graph.weight(a, b);
  }
  std::vector<int> node_to_aggregate(n);
  std::iota(node_to_aggregate.begin(), node_to_aggregate.end(), 0);

  metrics::LouvainResult result;
  for (;;) {
    metrics::Partition community(current.size());
    std::iota(community.begin(), community.end(), 0);
    bool any_move = false;
    while (dense_detail::local_move_pass(current, community, rng)) any_move = true;
    for (std::size_t v = 0; v < n; ++v) {
      node_community[v] = community[static_cast<std::size_t>(node_to_aggregate[v])];
    }
    ++result.levels;
    if (!any_move) break;
    metrics::Partition compact = dense_detail::compact_labels(community);
    const std::size_t num_comms =
        static_cast<std::size_t>(*std::max_element(compact.begin(), compact.end())) + 1;
    if (num_comms == current.size()) break;
    LouvainGraph aggregated;
    aggregated.adj.resize(num_comms);
    aggregated.self_loop.assign(num_comms, 0.0);
    for (std::size_t a = 0; a < current.size(); ++a) {
      const auto ca = static_cast<std::size_t>(compact[a]);
      aggregated.self_loop[ca] += current.self_loop[a];
      for (const auto& [b, w] : current.adj[a]) {
        const auto cb = static_cast<std::size_t>(compact[b]);
        if (ca == cb) {
          if (a < b) aggregated.self_loop[ca] += w;
        } else {
          aggregated.adj[ca][cb] += w;
        }
      }
    }
    for (std::size_t v = 0; v < n; ++v) {
      node_to_aggregate[v] = compact[static_cast<std::size_t>(node_to_aggregate[v])];
    }
    current = std::move(aggregated);
  }
  result.partition = dense_detail::compact_labels(node_community);
  result.num_communities = metrics::count_communities(result.partition);
  result.modularity = dense_modularity(graph, result.partition);
  return result;
}

}  // namespace specdag::testing
