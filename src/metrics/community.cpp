#include "metrics/community.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace specdag::metrics {

double modularity(const ClientGraph& graph, const Partition& partition) {
  if (partition.size() != graph.size()) {
    throw std::invalid_argument("modularity: partition size mismatch");
  }
  const double m = graph.total_weight();
  if (m <= 0.0) return 0.0;
  std::vector<double> degree(graph.size());
  for (std::size_t a = 0; a < graph.size(); ++a) degree[a] = graph.degree(a);
  // Every same-community pair (a, b) contributes weight - expected, the
  // zero-weight ones included, in a-major ascending order: each community's
  // members are listed ascending and merged with a's sorted edge row.
  std::map<int, std::vector<std::size_t>> members;
  for (std::size_t a = 0; a < graph.size(); ++a) members[partition[a]].push_back(a);
  double q = 0.0;
  for (std::size_t a = 0; a < graph.size(); ++a) {
    const std::vector<ClientGraph::Edge>& row = graph.edges(a);
    auto edge = row.begin();
    for (std::size_t b : members[partition[a]]) {
      while (edge != row.end() && edge->to < b) ++edge;
      const double w = edge != row.end() && edge->to == b ? edge->weight : 0.0;
      const double expected = degree[a] * degree[b] / (2.0 * m);
      q += w - expected;
    }
  }
  return q / (2.0 * m);
}

namespace {

// Internal Louvain graph: adjacency maps plus self-loop weights (aggregated
// communities fold their internal weight into a self-loop, which must count
// towards node degrees for the gain formula to stay exact across levels).
struct LouvainGraph {
  std::vector<std::unordered_map<std::size_t, double>> adj;  // no self entries
  std::vector<double> self_loop;

  std::size_t size() const { return adj.size(); }

  double degree(std::size_t v) const {
    double d = 2.0 * self_loop[v];  // a self-loop contributes twice
    for (const auto& [u, w] : adj[v]) d += w;
    return d;
  }

  double two_m() const {
    double total = 0.0;
    for (std::size_t v = 0; v < size(); ++v) total += degree(v);
    return total;
  }
};

LouvainGraph to_louvain_graph(const ClientGraph& graph) {
  LouvainGraph g;
  g.adj.resize(graph.size());
  g.self_loop.assign(graph.size(), 0.0);
  // Ascending neighbour order: the maps' insertion order, and with it their
  // iteration order and Louvain's tie-breaking, depend on it.
  for (std::size_t a = 0; a < graph.size(); ++a) {
    for (const ClientGraph::Edge& e : graph.edges(a)) {
      if (e.weight > 0.0) g.adj[a][e.to] = e.weight;
    }
  }
  return g;
}

// One pass of greedy local moves; returns true if any node moved.
bool local_move_pass(const LouvainGraph& graph, Partition& community, Rng& rng) {
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

    // Edge weight from v into each neighbouring community (self-loop
    // excluded: it moves with v and cancels in the gain difference).
    std::unordered_map<int, double> links;
    for (const auto& [u, w] : graph.adj[v]) links[community[u]] += w;

    // Remove v from its community for the gain computation.
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

Partition compact_labels(const Partition& partition) {
  std::map<int, int> relabel;  // ordered map keeps ids deterministic
  for (int c : partition) relabel.emplace(c, 0);
  int next = 0;
  for (auto& [old_id, new_id] : relabel) new_id = next++;
  Partition out(partition.size());
  for (std::size_t i = 0; i < partition.size(); ++i) out[i] = relabel[partition[i]];
  return out;
}

}  // namespace

LouvainResult louvain(const ClientGraph& graph, Rng& rng) {
  const std::size_t n = graph.size();
  // node -> current community over the *original* nodes.
  Partition node_community(n);
  std::iota(node_community.begin(), node_community.end(), 0);

  LouvainGraph current = to_louvain_graph(graph);
  std::vector<int> node_to_aggregate(n);
  std::iota(node_to_aggregate.begin(), node_to_aggregate.end(), 0);

  LouvainResult result;
  result.levels = 0;

  for (;;) {
    Partition community(current.size());
    std::iota(community.begin(), community.end(), 0);
    bool any_move = false;
    while (local_move_pass(current, community, rng)) any_move = true;

    // Fold the move results into the original-node partition.
    for (std::size_t v = 0; v < n; ++v) {
      node_community[v] = community[static_cast<std::size_t>(node_to_aggregate[v])];
    }
    ++result.levels;
    if (!any_move) break;

    // Aggregate: one node per community; intra-community weight (including
    // existing self-loops) becomes the aggregate node's self-loop.
    Partition compact = compact_labels(community);
    const std::size_t num_comms =
        static_cast<std::size_t>(*std::max_element(compact.begin(), compact.end())) + 1;
    if (num_comms == current.size()) break;  // nothing merged; fixed point
    LouvainGraph aggregated;
    aggregated.adj.resize(num_comms);
    aggregated.self_loop.assign(num_comms, 0.0);
    for (std::size_t a = 0; a < current.size(); ++a) {
      const auto ca = static_cast<std::size_t>(compact[a]);
      aggregated.self_loop[ca] += current.self_loop[a];
      for (const auto& [b, w] : current.adj[a]) {
        const auto cb = static_cast<std::size_t>(compact[b]);
        if (ca == cb) {
          if (a < b) aggregated.self_loop[ca] += w;  // count each edge once
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

  result.partition = compact_labels(node_community);
  result.num_communities = count_communities(result.partition);
  result.modularity = modularity(graph, result.partition);
  return result;
}

double misclassification_fraction(const Partition& partition,
                                  const std::vector<int>& true_clusters) {
  if (partition.size() != true_clusters.size()) {
    throw std::invalid_argument("misclassification_fraction: size mismatch");
  }
  if (partition.empty()) throw std::invalid_argument("misclassification_fraction: empty input");

  // Majority true cluster per inferred community (smallest id wins ties, so
  // the result is deterministic).
  std::map<int, std::map<int, std::size_t>> counts;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    counts[partition[i]][true_clusters[i]]++;
  }
  std::map<int, int> majority;
  for (const auto& [comm, hist] : counts) {
    int best_cluster = -1;
    std::size_t best_count = 0;
    for (const auto& [cluster, count] : hist) {
      if (count > best_count) {
        best_count = count;
        best_cluster = cluster;
      }
    }
    majority[comm] = best_cluster;
  }

  std::size_t misclassified = 0;
  for (std::size_t i = 0; i < partition.size(); ++i) {
    if (majority[partition[i]] != true_clusters[i]) ++misclassified;
  }
  return static_cast<double>(misclassified) / static_cast<double>(partition.size());
}

std::size_t count_communities(const Partition& partition) {
  std::vector<int> ids(partition);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids.size();
}

}  // namespace specdag::metrics
