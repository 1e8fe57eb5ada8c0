#include "dag/dag.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>

namespace specdag::dag {

Dag::Dag(nn::WeightVector initial_weights, store::StoreConfig store_config)
    : store_(store_config) {
  Transaction genesis;
  genesis.payload =
      store_.put(std::make_shared<const nn::WeightVector>(std::move(initial_weights)), {});
  std::unique_lock lock(mutex_);
  reset_locked(std::move(genesis));
}

const Transaction& Dag::tx_locked(TxId id) const {
  if (id >= transactions_.size()) {
    throw std::out_of_range("Dag: unknown transaction id " + std::to_string(id));
  }
  return transactions_[id];
}

void Dag::reset_locked(Transaction genesis) {
  genesis.id = kGenesisTx;
  transactions_.assign(1, std::move(genesis));
  children_.assign(1, {});
  cum_weights_.assign(1, 1);
  std::lock_guard walk_lock(walk_index_mutex_);
  walk_index_size_ = 0;  // stale: rebuilt by the next sample_walk_start
  sweep_parents_.clear();
  sweep_parents_end_.clear();
}

TxId Dag::add_transaction(std::vector<TxId> parents, WeightsPtr weights, int publisher,
                          std::size_t round, bool poisoned_publisher,
                          WeightsPtr encode_base) {
  if (!weights) throw std::invalid_argument("Dag::add_transaction: null weights");
  Transaction tx;
  tx.parents = std::move(parents);
  tx.publisher = publisher;
  tx.round = round;
  tx.poisoned_publisher = poisoned_publisher;
  std::unique_lock lock(mutex_);
  return append_locked(std::move(tx), std::move(weights), std::move(encode_base));
}

TxId Dag::append_locked(Transaction tx, WeightsPtr weights, WeightsPtr encode_base) {
  const std::vector<TxId>& parents = tx.parents;
  if (parents.empty()) throw std::invalid_argument("Dag::add_transaction: no parents");
  std::vector<TxId> sorted = parents;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Dag::add_transaction: duplicate parents");
  }
  if (sorted.back() >= transactions_.size()) {
    throw std::invalid_argument("Dag::add_transaction: unknown parent " +
                                std::to_string(sorted.back()));
  }
  if (weights) {
    // Intern the payload, delta-encoded against the average of the parents'
    // payloads — the exact base the publisher trained from.
    std::vector<store::PayloadId> bases;
    bases.reserve(parents.size());
    for (TxId p : parents) bases.push_back(transactions_[p].payload);
    tx.payload = store_.put(std::move(weights), bases, std::move(encode_base));
  }
  const TxId id = transactions_.size();
  tx.id = id;
  for (TxId p : parents) children_[p].push_back(id);
  children_.emplace_back();

  // Incremental weight maintenance: the new transaction is the one and only
  // new descendant of every transaction in its past cone, so each ancestor's
  // cumulative weight grows by exactly one. Parents always have smaller ids
  // than their children, so one descending-id sweep from the highest parent
  // marks the exact cone a BFS would (every in-cone node is marked by an
  // in-cone child before the sweep reaches it) with sequential access
  // instead of frontier pointer-chasing — the cone is nearly the whole DAG
  // once the graph is dense, so the constant factor dominates.
  cum_weights_.push_back(1);
  cone_seen_.assign(id, 0);
  for (TxId p : parents) cone_seen_[p] = 1;
  for (TxId cur = sorted.back() + 1; cur-- > 0;) {
    if (!cone_seen_[cur]) continue;
    ++cum_weights_[cur];
    for (TxId p : transactions_[cur].parents) cone_seen_[p] = 1;
  }
  transactions_.push_back(std::move(tx));
  return id;
}

std::size_t Dag::size() const {
  std::shared_lock lock(mutex_);
  return transactions_.size();
}

Transaction Dag::transaction(TxId id) const {
  std::shared_lock lock(mutex_);
  return tx_locked(id);
}

WeightsPtr Dag::weights(TxId id) const {
  store::PayloadId payload;
  {
    std::shared_lock lock(mutex_);
    payload = tx_locked(id).payload;
  }
  // Materialize outside the DAG lock — the store synchronizes itself.
  return store_.get(payload);
}

store::ContentHash Dag::payload_hash(TxId id) const {
  store::PayloadId payload;
  {
    std::shared_lock lock(mutex_);
    payload = tx_locked(id).payload;
  }
  return store_.hash_of(payload);
}

std::vector<TxId> Dag::parents(TxId id) const {
  std::shared_lock lock(mutex_);
  return tx_locked(id).parents;
}

std::vector<TxId> Dag::children(TxId id) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);  // bounds check
  return children_[id];
}

void Dag::children_into(TxId id, std::vector<TxId>& out) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);  // bounds check
  out.assign(children_[id].begin(), children_[id].end());
}

void Dag::children_with_weights_into(TxId id, std::vector<TxId>& children,
                                     std::vector<std::size_t>& weights) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);  // bounds check
  children.assign(children_[id].begin(), children_[id].end());
  weights.clear();
  for (TxId child : children) weights.push_back(cum_weights_[child]);
}

int Dag::publisher(TxId id) const {
  std::shared_lock lock(mutex_);
  return tx_locked(id).publisher;
}

std::size_t Dag::round(TxId id) const {
  std::shared_lock lock(mutex_);
  return tx_locked(id).round;
}

bool Dag::is_tip(TxId id) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);
  return children_[id].empty();
}

std::vector<TxId> Dag::tips() const {
  std::shared_lock lock(mutex_);
  std::vector<TxId> tips;
  for (TxId id = 0; id < children_.size(); ++id) {
    if (children_[id].empty()) tips.push_back(id);
  }
  return tips;
}

std::size_t Dag::cumulative_weight(TxId id) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);
  std::vector<char> visited(transactions_.size(), 0);
  visited[id] = 1;
  std::size_t count = 1;
  std::deque<TxId> frontier{id};
  while (!frontier.empty()) {
    const TxId cur = frontier.front();
    frontier.pop_front();
    for (TxId child : children_[cur]) {
      if (visited[child]) continue;
      visited[child] = 1;
      ++count;
      frontier.push_back(child);
    }
  }
  return count;
}

std::vector<std::size_t> Dag::cumulative_weights_all() const {
  std::shared_lock lock(mutex_);
  return cum_weights_;
}

std::vector<std::size_t> Dag::cumulative_weights_reference() const {
  std::vector<std::size_t> weights;
  std::vector<std::uint64_t> reach;
  cumulative_weights_reference_into(weights, reach);
  return weights;
}

void Dag::cumulative_weights_reference_into(std::vector<std::size_t>& weights,
                                            std::vector<std::uint64_t>& reach) const {
  std::shared_lock lock(mutex_);
  const std::size_t n = transactions_.size();
  // weights[x] = 1 + |future cone of x|. Future cones are counted exactly
  // with a bit-parallel sweep: each pass tracks, per transaction, which of a
  // chunk of 64 candidate descendants can reach it. Parents always have
  // smaller ids than their children (the DAG is append-only), so a single
  // reverse-insertion-order pass sees every child before its parents.
  weights.assign(n, 1);
  reach.resize(n);
  for (std::size_t chunk = 0; chunk < n; chunk += 64) {
    std::fill(reach.begin(), reach.end(), 0);
    const std::size_t chunk_end = std::min(chunk + 64, n);
    for (std::size_t id = n; id-- > 0;) {
      std::uint64_t mask = reach[id];
      if (id >= chunk && id < chunk_end) mask |= std::uint64_t{1} << (id - chunk);
      if (mask == 0) continue;
      reach[id] = mask;
      for (TxId p : transactions_[id].parents) reach[p] |= mask;
    }
    for (std::size_t id = 0; id < n; ++id) {
      // Descendants only: drop the transaction's own bit before counting.
      std::uint64_t mask = reach[id];
      if (id >= chunk && id < chunk_end) mask &= ~(std::uint64_t{1} << (id - chunk));
      weights[id] += static_cast<std::size_t>(std::popcount(mask));
    }
  }
}

std::vector<std::size_t> Dag::cumulative_weights_all(const std::vector<char>& visible) const {
  std::vector<std::size_t> weights;
  std::vector<std::uint64_t> reach;
  cumulative_weights_all_into(visible, weights, reach);
  return weights;
}

void Dag::cumulative_weights_all_into(const std::vector<char>& visible,
                                      std::vector<std::size_t>& weights,
                                      std::vector<std::uint64_t>& reach) const {
  std::shared_lock lock(mutex_);
  const std::size_t n = transactions_.size();
  const auto is_visible = [&](std::size_t id) { return id < visible.size() && visible[id]; };
  // Same bit-parallel sweep as the reference variant, but reach masks only
  // flow through visible transactions: a descendant counts towards an
  // ancestor only when a chain of visible transactions connects them —
  // exactly the masked walker's BFS view.
  weights.assign(n, 0);
  reach.resize(n);
  for (std::size_t id = 0; id < n; ++id) {
    if (is_visible(id)) weights[id] = 1;
  }
  for (std::size_t chunk = 0; chunk < n; chunk += 64) {
    std::fill(reach.begin(), reach.end(), 0);
    const std::size_t chunk_end = std::min(chunk + 64, n);
    for (std::size_t id = n; id-- > 0;) {
      if (!is_visible(id)) {
        reach[id] = 0;  // paths through an invisible transaction are broken
        continue;
      }
      std::uint64_t mask = reach[id];
      if (id >= chunk && id < chunk_end) mask |= std::uint64_t{1} << (id - chunk);
      if (mask == 0) continue;
      reach[id] = mask;
      for (TxId p : transactions_[id].parents) reach[p] |= mask;
    }
    for (std::size_t id = 0; id < n; ++id) {
      if (!is_visible(id)) continue;
      std::uint64_t mask = reach[id];
      if (id >= chunk && id < chunk_end) mask &= ~(std::uint64_t{1} << (id - chunk));
      weights[id] += static_cast<std::size_t>(std::popcount(mask));
    }
  }
}

std::vector<TxId> Dag::past_cone(TxId id) const {
  std::shared_lock lock(mutex_);
  tx_locked(id);
  std::vector<char> visited(transactions_.size(), 0);
  std::deque<TxId> frontier{id};
  std::vector<TxId> cone;
  while (!frontier.empty()) {
    const TxId cur = frontier.front();
    frontier.pop_front();
    for (TxId p : transactions_[cur].parents) {
      if (visited[p]) continue;
      visited[p] = 1;
      cone.push_back(p);
      frontier.push_back(p);
    }
  }
  return cone;
}

std::vector<std::size_t> Dag::depths_from_tips() const {
  std::shared_lock lock(mutex_);
  constexpr std::size_t kUnset = ~std::size_t{0};
  std::vector<std::size_t> depth(transactions_.size(), kUnset);
  std::deque<TxId> frontier;
  for (TxId id = 0; id < children_.size(); ++id) {
    if (!children_[id].empty()) continue;
    depth[id] = 0;
    frontier.push_back(id);
  }
  // BFS along parent edges assigns each node its minimum distance to a tip.
  while (!frontier.empty()) {
    const TxId cur = frontier.front();
    frontier.pop_front();
    const std::size_t d = depth[cur];
    for (TxId p : transactions_[cur].parents) {
      if (depth[p] > d + 1) {
        depth[p] = d + 1;
        frontier.push_back(p);
      }
    }
  }
  return depth;
}

void Dag::refresh_walk_index_locked() const {
  if (walk_index_size_ == transactions_.size()) return;
  // Extend the flat parent lists by the transactions appended since the
  // last rebuild: the sweep then reads one contiguous array instead of
  // chasing a heap-allocated parents vector per transaction.
  for (TxId id = sweep_parents_end_.size(); id < transactions_.size(); ++id) {
    const std::vector<TxId>& parents = transactions_[id].parents;
    sweep_parents_.insert(sweep_parents_.end(), parents.begin(), parents.end());
    sweep_parents_end_.push_back(sweep_parents_.size());
  }
  constexpr std::size_t kUnset = ~std::size_t{0};
  depth_index_.assign(transactions_.size(), kUnset);
  // One descending-id sweep. Parents always have smaller ids than their
  // children, so every child has pushed its depth into a transaction before
  // the sweep reaches it: a transaction still unset there has no children
  // (a tip, depth 0), and any other holds 1 + min over its children — the
  // same minimum tip distance depths_from_tips() computes, without
  // listing the tips.
  for (TxId cur = depth_index_.size(); cur-- > 0;) {
    if (depth_index_[cur] == kUnset) depth_index_[cur] = 0;
    const std::size_t d = depth_index_[cur] + 1;
    const std::size_t begin = cur == 0 ? 0 : sweep_parents_end_[cur - 1];
    for (std::size_t k = begin; k < sweep_parents_end_[cur]; ++k) {
      depth_index_[sweep_parents_[k]] = std::min(depth_index_[sweep_parents_[k]], d);
    }
  }
  start_candidates_.clear();
  walk_index_size_ = transactions_.size();
}

TxId Dag::sample_walk_start(Rng& rng, std::size_t min_depth, std::size_t max_depth) const {
  if (min_depth > max_depth) {
    throw std::invalid_argument("Dag::sample_walk_start: min_depth > max_depth");
  }
  std::shared_lock lock(mutex_);
  std::lock_guard index_lock(walk_index_mutex_);
  refresh_walk_index_locked();
  const std::vector<TxId>* candidates = nullptr;
  for (const auto& [window, ids] : start_candidates_) {
    if (window.first == min_depth && window.second == max_depth) {
      candidates = &ids;
      break;
    }
  }
  if (candidates == nullptr) {
    // Ascending id scan yields the candidates already sorted — identical to
    // the historical collect-then-sort over depths_from_tips().
    std::vector<TxId> ids;
    for (TxId id = 0; id < depth_index_.size(); ++id) {
      if (depth_index_[id] >= min_depth && depth_index_[id] <= max_depth) ids.push_back(id);
    }
    start_candidates_.emplace_back(std::make_pair(min_depth, max_depth), std::move(ids));
    candidates = &start_candidates_.back().second;
  }
  if (candidates->empty()) return kGenesisTx;
  return (*candidates)[rng.index(candidates->size())];
}

std::vector<TxId> Dag::all_ids() const {
  std::shared_lock lock(mutex_);
  std::vector<TxId> ids(transactions_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return ids;
}

std::vector<std::pair<int, int>> Dag::approval_publishers() const {
  std::shared_lock lock(mutex_);
  std::vector<std::pair<int, int>> edges;
  for (const Transaction& tx : transactions_) {
    for (TxId parent : tx.parents) {
      edges.emplace_back(tx.publisher, transactions_[parent].publisher);
    }
  }
  return edges;
}

}  // namespace specdag::dag
