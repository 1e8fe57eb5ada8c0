// Append-only DAG of model-weight transactions (paper §4.1).
//
// The DAG starts from a genesis transaction holding the initial model
// weights. New transactions approve >= 1 previous transactions (2 in the
// paper). The transaction records are the only primary state; everything
// else is derived from their approvals by the one private append routine
// (append_locked) that add_transaction and checkpoint restore both call:
// the id-indexed children lists (approvals in reverse, the direction the
// random walk travels) and the cumulative-weight index. A tip is a
// transaction without children. Helpers cover depth-based walk starts and
// past-cone queries used by the evaluation.
//
// Weight index: cumulative weights are maintained *incrementally* — each
// append adds exactly one new descendant (the appended transaction) to
// every transaction in its past cone, so the append bumps those entries by
// one and the full table is always current. Walks read it live, a step's
// children at a time (children_with_weights_into). The bit-parallel sweep
// is retained as the masked-visibility path (per-client partition views
// cannot be maintained incrementally) and as the reference oracle for
// tests.
//
// Thread safety: reads and writes are internally synchronized with a
// shared_mutex; the simulator trains the active clients of a round in
// parallel while they walk the same DAG.
#pragma once

#include <mutex>
#include <shared_mutex>
#include <utility>

#include "dag/transaction.hpp"
#include "util/rng.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::dag {

class Dag {
 public:
  // Creates the DAG with a genesis transaction carrying `initial_weights`.
  // `store_config` controls the payload store (delta encoding, LRU size).
  explicit Dag(nn::WeightVector initial_weights, store::StoreConfig store_config = {});

  Dag(const Dag&) = delete;
  Dag& operator=(const Dag&) = delete;

  // Appends a transaction approving `parents` (must exist, non-empty,
  // duplicates rejected). Returns the new id. `encode_base`, when the
  // publisher still holds its training start point (the average of the
  // parents' payloads), is forwarded to the store as the delta-encode base
  // so the encoder skips re-materializing the parents.
  TxId add_transaction(std::vector<TxId> parents, WeightsPtr weights, int publisher,
                       std::size_t round, bool poisoned_publisher = false,
                       WeightsPtr encode_base = nullptr);

  // Number of transactions, genesis included. Grows by one per append; the
  // walk-start depth index is keyed on it.
  std::size_t size() const;

  // Copy of the transaction record. Throws on unknown id.
  Transaction transaction(TxId id) const;

  // Payload access without copying the record; materializes delta-encoded
  // payloads through the store's LRU. The returned vector is bit-identical
  // to the one passed to add_transaction.
  WeightsPtr weights(TxId id) const;

  // Content hash of the transaction's payload (the evaluation-cache key).
  store::ContentHash payload_hash(TxId id) const;

  // The payload store backing this DAG (memory statistics, configuration).
  const store::ModelStore& store() const { return store_; }

  std::vector<TxId> parents(TxId id) const;
  std::vector<TxId> children(TxId id) const;
  // Copies the children of `id` into `out` (cleared first) without
  // allocating a fresh vector — the walk-loop accessor.
  void children_into(TxId id, std::vector<TxId>& out) const;
  // The children of `id` and their current cumulative weights (parallel
  // arrays, both cleared first), read under one lock — the unmasked
  // weighted walk's per-step accessor, O(children) whatever the DAG size.
  void children_with_weights_into(TxId id, std::vector<TxId>& children,
                                  std::vector<std::size_t>& weights) const;
  bool is_tip(TxId id) const;

  // Lightweight metadata accessors (no record copy) — used by per-client
  // visibility masks on the walk hot path.
  int publisher(TxId id) const;
  std::size_t round(TxId id) const;

  // Current tips (transactions without approvals), in ascending id order.
  std::vector<TxId> tips() const;

  // Number of transactions that directly or indirectly approve `id`,
  // plus one for the transaction itself — the classic cumulative weight
  // ("weight of transaction", Figure 3). Exact (BFS over the future cone,
  // independent of the incremental index — kept as a per-id oracle).
  std::size_t cumulative_weight(TxId id) const;

  // Cumulative weight of *every* transaction, indexed by id — a copy of the
  // incrementally maintained index (O(n) copy, no recomputation).
  std::vector<std::size_t> cumulative_weights_all() const;

  // Reference implementation: recomputes the full table with bit-parallel
  // reverse-insertion-order sweeps (64 descendant candidates per sweep,
  // O((n + edges) * n / 64)). This was the pre-index hot path; it is kept
  // as the oracle the incremental index is tested against. `reach_scratch`
  // holds the sweep's bit masks and is reusable across calls.
  std::vector<std::size_t> cumulative_weights_reference() const;
  void cumulative_weights_reference_into(std::vector<std::size_t>& weights,
                                         std::vector<std::uint64_t>& reach_scratch) const;

  // Masked variant for the per-walk batching of the tip selectors: only
  // transactions with `visible[id] != 0` count, and reachability must pass
  // exclusively through visible transactions (matching a masked walker's
  // BFS view). Ids at or beyond visible.size() are treated as invisible;
  // invisible ids get weight 0. Masks are per-client and change round to
  // round, so this stays a bit-parallel sweep (no incremental index).
  std::vector<std::size_t> cumulative_weights_all(const std::vector<char>& visible) const;
  void cumulative_weights_all_into(const std::vector<char>& visible,
                                   std::vector<std::size_t>& weights,
                                   std::vector<std::uint64_t>& reach_scratch) const;

  // All ids in the past cone of `id` (ancestors via approvals), excluding
  // `id` itself. Used to count approved poisoned transactions (Figure 13).
  std::vector<TxId> past_cone(TxId id) const;

  // Depth of every transaction measured from the tip set, indexed by id:
  // tips have depth 0 and depth(x) = 1 + min over children. Genesis-only
  // DAG: genesis depth 0. A BFS from the tips, independent of the walk-start
  // index — kept as its oracle.
  std::vector<std::size_t> depths_from_tips() const;

  // Samples a walk-start transaction uniformly among those at depth in
  // [min_depth, max_depth] from the tips (paper §5.3.5 / Popov: 15-25).
  // Falls back to genesis when the DAG is shallower than min_depth.
  // Backed by a size-checked depth index: one descending-id sweep and the
  // sorted candidate list are rebuilt at most once per append instead of
  // once per walk, so concurrent per-walk calls cost O(1) on an unchanged DAG.
  TxId sample_walk_start(Rng& rng, std::size_t min_depth, std::size_t max_depth) const;

  // All transaction ids in insertion order (genesis first).
  std::vector<TxId> all_ids() const;

  // The (approver, approved) publisher pair of every approval edge:
  // transactions in id order, each one's parents in approval order. Read
  // under one lock and without copying a record; the metrics' view of the
  // DAG (client graph, approval pureness).
  std::vector<std::pair<int, int>> approval_publishers() const;

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  const Transaction& tx_locked(TxId id) const;
  // Drops every transaction and derived index and records `genesis` as id 0
  // (construction and checkpoint restore). Caller holds mutex_ exclusively.
  void reset_locked(Transaction genesis);
  // The one append path. Rejects an empty parent list, a parent listed
  // twice or an unknown parent (std::invalid_argument), then interns
  // `weights` as the payload (restore passes null and keeps tx.payload),
  // records `tx` under the next id and derives its children entries and
  // weight-index bumps. Caller holds mutex_ exclusively.
  TxId append_locked(Transaction tx, WeightsPtr weights, WeightsPtr encode_base);
  // Rebuilds depth_index_ / start candidates when stale. Caller must hold
  // mutex_ (shared suffices) and walk_index_mutex_.
  void refresh_walk_index_locked() const;

  store::ModelStore store_;  // owns every payload (internally synchronized)
  mutable std::shared_mutex mutex_;
  std::vector<Transaction> transactions_;  // id == index; the primary state

  // --- derived by append_locked (guarded by mutex_) -----------------------
  std::vector<std::vector<TxId>> children_;  // id -> approvers, ascending
  std::vector<std::size_t> cum_weights_;  // exact, unmasked, id-indexed
  std::vector<char> cone_seen_;  // scratch for the append-time cone sweep

  // --- walk-start depth index ---------------------------------------------
  // Lazily rebuilt caches; guarded by walk_index_mutex_ *in addition to* a
  // shared hold of mutex_ (rebuilds read transactions_). The critical
  // section is O(1) between appends.
  mutable std::mutex walk_index_mutex_;
  mutable std::size_t walk_index_size_ = 0;  // size() the index was built at
  mutable std::vector<std::size_t> depth_index_;  // id -> depth from tips
  // Every transaction's parents in id order, flattened for the sweep:
  // transaction id's parents are sweep_parents_[end[id - 1], end[id]).
  mutable std::vector<TxId> sweep_parents_;
  mutable std::vector<std::size_t> sweep_parents_end_;
  // Sorted candidate ids per (min_depth, max_depth) window, valid at
  // walk_index_size_. A handful of distinct windows exist per run.
  mutable std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::vector<TxId>>>
      start_candidates_;
};

}  // namespace specdag::dag
