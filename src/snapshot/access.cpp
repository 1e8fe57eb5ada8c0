#include "snapshot/access.hpp"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

#include "core/specializing_dag.hpp"
#include "dag/dag.hpp"
#include "scenario/attacks.hpp"
#include "sim/async_simulator.hpp"
#include "sim/simulator.hpp"
#include "store/eval_cache.hpp"
#include "store/model_store.hpp"
#include "tipsel/tip_selector.hpp"

namespace specdag::snapshot {
namespace {

void save_chars(Writer& w, const std::vector<char>& v) {
  w.u64(v.size());
  for (char c : v) w.u8(static_cast<std::uint8_t>(c));
}

void load_chars_into(Reader& r, std::vector<char>& v, const char* what) {
  const std::uint64_t n = r.u64();
  if (n != v.size()) {
    throw SnapshotError(std::string("snapshot: ") + what + " count mismatch (checkpoint has " +
                        std::to_string(n) + ", simulator has " + std::to_string(v.size()) + ")");
  }
  for (auto& c : v) c = static_cast<char>(r.u8());
}

void save_weights_ptr(Writer& w, const store::WeightsPtr& weights) {
  w.u8(weights ? 1 : 0);
  if (weights) w.vec_f32(*weights);
}

store::WeightsPtr load_weights_ptr(Reader& r) {
  if (r.u8() == 0) return nullptr;
  return std::make_shared<const nn::WeightVector>(r.vec_f32());
}

}  // namespace

void Access::save_result(Writer& w, const fl::DagRoundResult& result) {
  w.i64(result.client_id);
  w.u64(result.published);
  w.u64(result.parents.size());
  for (dag::TxId p : result.parents) w.u64(p);
  w.u64(result.reference);
  save_weights_ptr(w, result.trained_weights);
  save_weights_ptr(w, result.averaged_base);
  for (const fl::EvalResult* eval : {&result.trained_eval, &result.reference_eval}) {
    w.f64(eval->loss);
    w.f64(eval->accuracy);
    w.u64(eval->num_examples);
  }
  w.f64(result.train_loss);
  w.u64(result.walk_stats.steps);
  w.u64(result.walk_stats.evaluations);
}

fl::DagRoundResult Access::load_result(Reader& r) {
  fl::DagRoundResult result;
  result.client_id = static_cast<int>(r.i64());
  result.published = r.u64();
  const std::uint64_t num_parents = r.u64();
  result.parents.reserve(static_cast<std::size_t>(num_parents));
  for (std::uint64_t i = 0; i < num_parents; ++i) result.parents.push_back(r.u64());
  result.reference = r.u64();
  result.trained_weights = load_weights_ptr(r);
  result.averaged_base = load_weights_ptr(r);
  for (fl::EvalResult* eval : {&result.trained_eval, &result.reference_eval}) {
    eval->loss = r.f64();
    eval->accuracy = r.f64();
    eval->num_examples = static_cast<std::size_t>(r.u64());
  }
  result.train_loss = r.f64();
  result.walk_stats.steps = static_cast<std::size_t>(r.u64());
  result.walk_stats.evaluations = static_cast<std::size_t>(r.u64());
  return result;
}

// --- model store ------------------------------------------------------------

void Access::save_store(Writer& w, const store::ModelStore& store) {
  using EntryState = store::ModelStore::EntryState;
  std::shared_lock lock(store.entries_mutex_);
  w.u64(store.entries_.size());
  for (const auto& entry : store.entries_) {
    if (entry.state == EntryState::kPending) {
      throw SnapshotError(
          "snapshot: store has unsettled async encodes — drain() before checkpointing");
    }
    w.u64(entry.hash.hi);
    w.u64(entry.hash.lo);
    w.u8(static_cast<std::uint8_t>(entry.state));
    w.u32(entry.num_floats);
    w.u64(entry.bases.size());
    for (store::PayloadId base : entry.bases) w.u32(base);
    if (entry.state == EntryState::kDelta) {
      w.bytes(entry.encoded);
    } else {
      if (!entry.raw) throw SnapshotError("snapshot: anchor entry without raw payload");
      w.vec_f32(*entry.raw);
    }
  }
  w.u64(store.dedup_hits_);
}

void Access::restore_store(Reader& r, store::ModelStore& store) {
  using EntryState = store::ModelStore::EntryState;
  std::unique_lock lock(store.entries_mutex_);
  if (store.pending_ != 0) {
    throw SnapshotError("snapshot: cannot restore into a store with pending encodes");
  }
  store.entries_.clear();
  store.by_hash_.clear();
  store.full_payload_bytes_ = 0;
  store.resident_payload_bytes_ = 0;
  store.anchor_count_ = 0;
  const std::uint64_t num_entries = r.u64();
  for (std::uint64_t id = 0; id < num_entries; ++id) {
    store::ModelStore::Entry entry;
    entry.hash.hi = r.u64();
    entry.hash.lo = r.u64();
    const std::uint8_t state = r.u8();
    if (state != static_cast<std::uint8_t>(EntryState::kAnchor) &&
        state != static_cast<std::uint8_t>(EntryState::kDelta)) {
      throw SnapshotError("snapshot: corrupt store entry state " + std::to_string(state));
    }
    entry.state = static_cast<EntryState>(state);
    entry.num_floats = r.u32();
    const std::uint64_t num_bases = r.u64();
    for (std::uint64_t i = 0; i < num_bases; ++i) {
      const store::PayloadId base = r.u32();
      if (base >= id) throw SnapshotError("snapshot: store entry base out of order");
      if (store.entries_[base].num_floats != entry.num_floats) {
        throw SnapshotError("snapshot: store entry base length mismatch");
      }
      // A delta's chain depth is one more than its deepest base's.
      entry.chain_depth = std::max(entry.chain_depth, store.entries_[base].chain_depth + 1);
      entry.bases.push_back(base);
    }
    if (entry.state == EntryState::kDelta) {
      if (entry.bases.empty()) throw SnapshotError("snapshot: delta store entry without bases");
      entry.encoded = r.bytes();
      store.resident_payload_bytes_ += entry.encoded.size();
    } else {
      if (!entry.bases.empty()) throw SnapshotError("snapshot: anchor store entry with bases");
      auto raw = std::make_shared<nn::WeightVector>(r.vec_f32());
      if (raw->size() != entry.num_floats) {
        throw SnapshotError("snapshot: store entry payload length mismatch");
      }
      entry.raw = std::move(raw);
      store.resident_payload_bytes_ += entry.num_floats * sizeof(float);
      ++store.anchor_count_;
    }
    store.full_payload_bytes_ += entry.num_floats * sizeof(float);
    // by_hash_ is populated in id order — the same insertion history the
    // original store built up, so re-serialization is byte-identical.
    store.by_hash_.emplace(entry.hash, static_cast<store::PayloadId>(id));
    store.entries_.push_back(std::move(entry));
  }
  store.dedup_hits_ = static_cast<std::size_t>(r.u64());
  // Deterministic-rebuild rule: the materialization LRU restarts empty (it
  // only holds decoded copies), and its hit/miss/decode counters restart.
  {
    std::lock_guard lru_lock(store.lru_mutex_);
    store.lru_order_.clear();
    store.lru_.clear();
    store.lru_bytes_ = 0;
    store.lru_hits_ = 0;
    store.lru_misses_ = 0;
    store.decoded_payloads_ = 0;
  }
}

// --- DAG --------------------------------------------------------------------

void Access::save_dag(Writer& w, const dag::Dag& dag) {
  save_store(w, dag.store_);
  std::shared_lock lock(dag.mutex_);
  w.u64(dag.transactions_.size());
  for (const auto& tx : dag.transactions_) {
    w.u64(tx.parents.size());
    for (dag::TxId p : tx.parents) w.u64(p);
    w.u32(tx.payload);
    w.i64(tx.publisher);
    w.u64(tx.round);
    w.u8(tx.poisoned_publisher ? 1 : 0);
  }
}

void Access::restore_dag(Reader& r, dag::Dag& dag) {
  restore_store(r, dag.store_);
  std::unique_lock lock(dag.mutex_);
  const std::uint64_t num_txs = r.u64();
  if (num_txs == 0) throw SnapshotError("snapshot: checkpoint DAG has no genesis");
  // Replay the records through the DAG's own append path: children and the
  // weight index are derived exactly as the original run derived them, and
  // each record passes add_transaction's validation.
  for (std::uint64_t id = 0; id < num_txs; ++id) {
    dag::Transaction tx;
    const std::uint64_t num_parents = r.u64();
    for (std::uint64_t i = 0; i < num_parents; ++i) tx.parents.push_back(r.u64());
    tx.payload = r.u32();
    if (tx.payload >= dag.store_.size()) {
      throw SnapshotError("snapshot: DAG payload handle out of range");
    }
    tx.publisher = static_cast<int>(r.i64());
    tx.round = static_cast<std::size_t>(r.u64());
    tx.poisoned_publisher = r.u8() != 0;
    if (id == 0) {
      if (num_parents != 0) throw SnapshotError("snapshot: genesis with parents");
      dag.reset_locked(std::move(tx));
      continue;
    }
    try {
      dag.append_locked(std::move(tx), nullptr, nullptr);
    } catch (const std::invalid_argument& e) {
      throw SnapshotError(std::string("snapshot: transaction ") + std::to_string(id) + ": " +
                          e.what());
    }
  }
}

// --- eval cache -------------------------------------------------------------

void Access::save_eval_cache(Writer& w, const store::ShardedEvalCache& cache) {
  struct Row {
    int client;
    store::ContentHash hash;
    double accuracy;
  };
  std::vector<Row> rows;
  for (const auto& shard : cache.shards_) {
    std::shared_lock lock(shard->mutex);
    for (const auto& [key, accuracy] : shard->map) {
      rows.push_back({key.client, key.hash, accuracy});
    }
  }
  // Canonical order, so identical cache contents serialize byte-identically
  // regardless of shard/bucket iteration order.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.client != b.client) return a.client < b.client;
    if (a.hash.hi != b.hash.hi) return a.hash.hi < b.hash.hi;
    return a.hash.lo < b.hash.lo;
  });
  w.u64(rows.size());
  for (const Row& row : rows) {
    w.i64(row.client);
    w.u64(row.hash.hi);
    w.u64(row.hash.lo);
    w.f64(row.accuracy);
  }
  w.u64(cache.hits_.load(std::memory_order_relaxed));
  w.u64(cache.misses_.load(std::memory_order_relaxed));
  w.u64(cache.invalidations_.load(std::memory_order_relaxed));
}

void Access::restore_eval_cache(Reader& r, store::ShardedEvalCache& cache) {
  for (const auto& shard : cache.shards_) {
    std::unique_lock lock(shard->mutex);
    shard->map.clear();
  }
  const std::uint64_t num_rows = r.u64();
  for (std::uint64_t i = 0; i < num_rows; ++i) {
    store::ShardedEvalCache::Key key;
    key.client = static_cast<int>(r.i64());
    key.hash.hi = r.u64();
    key.hash.lo = r.u64();
    const double accuracy = r.f64();
    auto& shard = cache.shard_of(key);
    std::unique_lock lock(shard.mutex);
    shard.map.emplace(key, accuracy);
  }
  cache.hits_.store(r.u64(), std::memory_order_relaxed);
  cache.misses_.store(r.u64(), std::memory_order_relaxed);
  cache.invalidations_.store(r.u64(), std::memory_order_relaxed);
}

// --- clients ----------------------------------------------------------------

void Access::save_client_rngs(Writer& w, core::SpecializingDag& net) {
  w.u64(net.num_clients());
  for (std::size_t i = 0; i < net.num_clients(); ++i) {
    save_rng(w, net.client(static_cast<int>(i)).rng_);
  }
}

void Access::restore_client_rngs(Reader& r, core::SpecializingDag& net) {
  const std::uint64_t n = r.u64();
  if (n != net.num_clients()) {
    throw SnapshotError("snapshot: client count mismatch (checkpoint has " + std::to_string(n) +
                        ", network has " + std::to_string(net.num_clients()) + ")");
  }
  for (std::size_t i = 0; i < net.num_clients(); ++i) {
    net.client(static_cast<int>(i)).rng_ = load_rng(r);
  }
}

// --- client population (shared by both simulators) --------------------------

void Access::save_population(Writer& w, const sim::ClientPopulation& population) {
  const auto& groups = population.partition_groups_;
  w.u8(groups ? 1 : 0);
  if (groups) {
    w.u64(groups->size());
    for (int g : *groups) w.i64(g);
    w.u64(population.partition_start_round_);
  }
  w.i64(population.poison_class_a_);
  w.i64(population.poison_class_b_);
}

void Access::restore_population(Reader& r, sim::ClientPopulation& population) {
  std::shared_ptr<const std::vector<int>> groups;
  std::size_t start_round = 0;
  if (r.u8() != 0) {
    const std::uint64_t n = r.u64();
    if (n != population.dataset_.clients.size()) {
      throw SnapshotError("snapshot: partition group count mismatch");
    }
    std::vector<int> group_of_client;
    group_of_client.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) group_of_client.push_back(static_cast<int>(r.i64()));
    start_round = static_cast<std::size_t>(r.u64());
    groups = std::make_shared<const std::vector<int>>(std::move(group_of_client));
  }
  // The masks bake the partition's start round, so they are rebuilt from
  // the recorded grouping rather than derived from the spec.
  population.install_partition(std::move(groups), start_round);
  population.poison_class_a_ = static_cast<int>(r.i64());
  population.poison_class_b_ = static_cast<int>(r.i64());
}

// --- round simulator --------------------------------------------------------

void Access::save_sim(Writer& w, const sim::DagSimulator& sim) {
  save_rng(w, sim.round_rng_);
  w.u64(sim.round_);
  save_chars(w, sim.active_);
  save_population(w, sim);
  w.u64(sim.pending_.size());
  for (const auto& pending : sim.pending_) {
    w.i64(pending.handle);
    save_result(w, pending.result);
    w.u64(pending.publish_round);
    w.u64(pending.release_round);
  }
}

void Access::restore_sim(Reader& r, sim::DagSimulator& sim) {
  sim.round_rng_ = load_rng(r);
  sim.round_ = static_cast<std::size_t>(r.u64());
  load_chars_into(r, sim.active_, "client");
  restore_population(r, sim);
  sim.pending_.clear();
  const std::uint64_t num_pending = r.u64();
  sim.pending_.reserve(static_cast<std::size_t>(num_pending));
  for (std::uint64_t i = 0; i < num_pending; ++i) {
    sim::DagSimulator::PendingCommit pending;
    pending.handle = static_cast<int>(r.i64());
    pending.result = load_result(r);
    pending.publish_round = static_cast<std::size_t>(r.u64());
    pending.release_round = static_cast<std::size_t>(r.u64());
    sim.pending_.push_back(std::move(pending));
  }
  sim.history_.clear();
}

// --- async simulator --------------------------------------------------------

void Access::save_sim(Writer& w, const sim::AsyncDagSimulator& sim) {
  save_rng(w, sim.rng_);
  w.f64(sim.now_);
  w.u64(sim.next_seq_);
  w.u64(sim.total_steps_);
  save_chars(w, sim.active_);
  save_chars(w, sim.clock_armed_);
  save_population(w, sim);
  // Drain a copy of the event queue into (time, seq) order. Restoring by
  // pushing them back yields the identical pop sequence — (time, seq) is a
  // total order, the heap's internal array layout is irrelevant.
  auto queue = sim.events_;
  w.u64(queue.size());
  while (!queue.empty()) {
    const auto& event = queue.top();
    w.f64(event.time);
    w.u64(event.seq);
    w.u8(static_cast<std::uint8_t>(event.kind));
    w.i64(event.client);
    const bool has_result = event.kind == sim::AsyncDagSimulator::Event::Kind::kBroadcast;
    w.u8(has_result ? 1 : 0);
    if (has_result) save_result(w, event.result);
    queue.pop();
  }
}

void Access::restore_sim(Reader& r, sim::AsyncDagSimulator& sim) {
  using Event = sim::AsyncDagSimulator::Event;
  sim.rng_ = load_rng(r);
  sim.now_ = r.f64();
  sim.next_seq_ = r.u64();
  sim.total_steps_ = static_cast<std::size_t>(r.u64());
  load_chars_into(r, sim.active_, "client");
  load_chars_into(r, sim.clock_armed_, "clock");
  restore_population(r, sim);
  sim.events_ = {};
  const std::uint64_t num_events = r.u64();
  for (std::uint64_t i = 0; i < num_events; ++i) {
    Event event;
    event.time = r.f64();
    event.seq = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(Event::Kind::kBroadcast)) {
      throw SnapshotError("snapshot: corrupt event kind " + std::to_string(kind));
    }
    event.kind = static_cast<Event::Kind>(kind);
    event.client = static_cast<int>(r.i64());
    if (r.u8() != 0) event.result = load_result(r);
    sim.events_.push(std::move(event));
  }
}

// --- attack controller ------------------------------------------------------

void Access::save_attacks(Writer& w, const scenario::AttackController& attacks) {
  save_rng(w, attacks.attacker_rng_);
  w.f64(attacks.budget_);
  w.u64(attacks.total_published_);
  w.u8(attacks.attacker_ ? 1 : 0);
  if (attacks.attacker_) save_rng(w, attacks.attacker_->rng_);
}

void Access::restore_attacks(Reader& r, scenario::AttackController& attacks,
                             const dag::Dag& dag) {
  attacks.attacker_rng_ = load_rng(r);
  attacks.budget_ = r.f64();
  attacks.total_published_ = static_cast<std::size_t>(r.u64());
  attacks.attacker_.reset();
  if (r.u8() != 0) {
    // Recreate the attacker exactly like its lazy construction on the first
    // attack step, then overwrite its advanced RNG stream.
    attacks.create_attacker(dag);
    attacks.attacker_->rng_ = load_rng(r);
  }
}

}  // namespace specdag::snapshot
