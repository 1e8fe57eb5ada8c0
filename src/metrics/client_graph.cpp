#include "metrics/client_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace specdag::metrics {

namespace {

void add_to_row(std::vector<ClientGraph::Edge>& row, std::size_t to, double delta) {
  auto it = std::lower_bound(row.begin(), row.end(), to,
                             [](const ClientGraph::Edge& e, std::size_t b) { return e.to < b; });
  if (it == row.end() || it->to != to) it = row.insert(it, ClientGraph::Edge{to, 0.0});
  it->weight += delta;
}

}  // namespace

ClientGraph::ClientGraph(std::size_t num_clients) : rows_(num_clients) {
  if (num_clients == 0) throw std::invalid_argument("ClientGraph: zero clients");
}

void ClientGraph::check(std::size_t a, std::size_t b) const {
  if (a >= size() || b >= size()) {
    throw std::out_of_range("ClientGraph: node index out of range");
  }
}

double ClientGraph::weight(std::size_t a, std::size_t b) const {
  check(a, b);
  const std::vector<Edge>& row = rows_[a];
  const auto it = std::lower_bound(row.begin(), row.end(), b,
                                   [](const Edge& e, std::size_t to) { return e.to < to; });
  return it != row.end() && it->to == b ? it->weight : 0.0;
}

void ClientGraph::add_weight(std::size_t a, std::size_t b, double delta) {
  check(a, b);
  if (a == b) throw std::invalid_argument("ClientGraph: self-loops not supported");
  if (delta < 0.0) throw std::invalid_argument("ClientGraph: negative weight delta");
  add_to_row(rows_[a], b, delta);
  add_to_row(rows_[b], a, delta);
}

double ClientGraph::degree(std::size_t a) const {
  check(a, a);
  double d = 0.0;
  for (const Edge& e : rows_[a]) d += e.weight;
  return d;
}

double ClientGraph::total_weight() const {
  double total = 0.0;
  for (std::size_t a = 0; a < size(); ++a) {
    for (const Edge& e : rows_[a]) {
      if (e.to > a) total += e.weight;
    }
  }
  return total;
}

std::vector<std::size_t> ClientGraph::neighbors(std::size_t a) const {
  check(a, a);
  std::vector<std::size_t> nbrs;
  for (const Edge& e : rows_[a]) {
    if (e.weight > 0.0) nbrs.push_back(e.to);
  }
  return nbrs;
}

const std::vector<ClientGraph::Edge>& ClientGraph::edges(std::size_t a) const {
  check(a, a);
  return rows_[a];
}

ClientGraph build_client_graph(const dag::Dag& dag, std::size_t num_clients) {
  ClientGraph graph(num_clients);
  for (const auto& [approver, approved] : dag.approval_publishers()) {
    // Genesis (publisher -1) carries no community information, and neither
    // do publishers outside the known client range (external attackers).
    if (approver < 0 || approved < 0) continue;
    const auto a = static_cast<std::size_t>(approver);
    const auto b = static_cast<std::size_t>(approved);
    if (a >= num_clients || b >= num_clients) continue;
    if (a != b) graph.add_weight(a, b, 1.0);
  }
  return graph;
}

}  // namespace specdag::metrics
