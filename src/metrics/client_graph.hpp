// The derived client graph G_clients (paper §4.3).
//
// Nodes are the (known, fixed) participating clients. The edge weight
// between clients a and b is the number of transactions published by a that
// directly approve a transaction of b, or vice versa. Genesis approvals and
// self-approvals are excluded: they carry no information about communities.
#pragma once

#include <cstddef>
#include <vector>

#include "dag/dag.hpp"

namespace specdag::metrics {

// Sparse symmetric weighted graph without self-loops. Each node keeps its
// incident edges sorted by neighbour index: G_clients is sparse (a
// 2,000-client DAG yields about 10K edges), and walking a row in ascending
// order adds the same terms in the same order as a dense n x n row minus
// its untouched +0.0 entries, which change no sum.
class ClientGraph {
 public:
  struct Edge {
    std::size_t to;
    double weight;
  };

  explicit ClientGraph(std::size_t num_clients);

  std::size_t size() const { return rows_.size(); }

  double weight(std::size_t a, std::size_t b) const;
  void add_weight(std::size_t a, std::size_t b, double delta);

  // Weighted degree of a node: sum of incident edge weights.
  double degree(std::size_t a) const;

  // Sum of edge weights over unordered pairs (the "m" of modularity).
  double total_weight() const;

  // Neighbours with non-zero edge weight.
  std::vector<std::size_t> neighbors(std::size_t a) const;

  // Every pair add_weight has touched at `a` (a weight may still be 0),
  // ascending by neighbour.
  const std::vector<Edge>& edges(std::size_t a) const;

 private:
  void check(std::size_t a, std::size_t b) const;

  std::vector<std::vector<Edge>> rows_;
};

// Builds G_clients from the DAG's approval edges.
ClientGraph build_client_graph(const dag::Dag& dag, std::size_t num_clients);

}  // namespace specdag::metrics
