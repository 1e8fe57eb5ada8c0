#include "store/model_store.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "store/delta_codec.hpp"
#include "util/rng.hpp"

namespace specdag::store {
namespace {

struct StoreMetrics {
  obs::Counter& puts = obs::Registry::counter("store.puts");
  obs::Counter& dedup_hits = obs::Registry::counter("store.dedup_hits");
  obs::Counter& decodes = obs::Registry::counter("store.decodes");
  obs::Counter& lru_hits = obs::Registry::counter("store.lru_hits");
  obs::Counter& lru_misses = obs::Registry::counter("store.lru_misses");
  obs::Histogram& encode_queue_depth =
      obs::Registry::histogram("store.encode_queue_depth");
};

StoreMetrics& store_metrics() {
  static StoreMetrics metrics;
  return metrics;
}

}  // namespace

ContentHash hash_weights(const nn::WeightVector& weights) {
  // Both 64-bit mixes in one pass over the data: each splitmix chain is
  // serial (latency-bound), but the two chains are independent, so
  // interleaving them hides most of that latency behind ILP. Chain values
  // are identical to running the two streams separately.
  std::uint64_t hi = 0x5EED5EED5EED5EEDULL;
  std::uint64_t lo = 0xC0FFEE00C0FFEE00ULL;
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(weights.data());
  std::size_t remaining = weights.size() * sizeof(float);
  while (remaining >= 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, 8);
    hi = splitmix64(hi ^ word);
    lo = splitmix64(lo ^ word);
    bytes += 8;
    remaining -= 8;
  }
  if (remaining > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes, remaining);
    hi = splitmix64(hi ^ word);
    lo = splitmix64(lo ^ word);
  }
  // Fold in the length so a zero-padded tail cannot alias a longer vector.
  return ContentHash{splitmix64(hi ^ weights.size()), splitmix64(lo ^ weights.size())};
}

ModelStore::ModelStore(StoreConfig config)
    : config_(config), obs_(&obs::Context::current()) {
  if (config_.anchor_interval == 0) {
    throw std::invalid_argument("ModelStore: anchor_interval must be > 0");
  }
  if (config_.delta && config_.async_encode) {
    encode_pool_ = std::make_unique<ThreadPool>(1, "encode");
  }
}

ModelStore::~ModelStore() {
  // The pool's destructor completes every queued encode, but wait here too
  // so the store is quiescent before any member teardown begins.
  if (encode_pool_) drain();
}

nn::WeightVector ModelStore::base_vector_locked(const std::vector<PayloadId>& bases) const {
  std::vector<WeightsPtr> held;
  std::vector<const nn::WeightVector*> ptrs;
  held.reserve(bases.size());
  for (PayloadId base : bases) {
    held.push_back(materialize_locked(base));
    ptrs.push_back(held.back().get());
  }
  // Matches the base the publishing client trained from (DagClient averages
  // its deduplicated parent payloads with the same function).
  return nn::average_weights(ptrs);
}

PayloadId ModelStore::put(WeightsPtr weights, const std::vector<PayloadId>& bases,
                          WeightsPtr encode_base) {
  if (!weights) throw std::invalid_argument("ModelStore::put: null payload");
  if (encode_base && encode_base->size() != weights->size()) encode_base = nullptr;
  store_metrics().puts.add();
  const ContentHash hash = hash_weights(*weights);
  const bool encodable = config_.delta && !bases.empty();

  std::unique_lock<std::mutex> inline_lock(inline_mutex_, std::defer_lock);
  if (!encode_pool_) inline_lock.lock();
  std::unique_lock lock(entries_mutex_);
  if (auto it = by_hash_.find(hash); it != by_hash_.end()) {
    ++dedup_hits_;
    store_metrics().dedup_hits.add();
    return it->second;
  }

  Entry entry;
  entry.hash = hash;
  entry.num_floats = static_cast<std::uint32_t>(weights->size());
  if (encodable) {
    for (PayloadId base : bases) {
      if (base >= entries_.size()) {
        throw std::invalid_argument("ModelStore::put: unknown base payload");
      }
      if (entries_[base].num_floats != entry.num_floats) {
        throw std::invalid_argument("ModelStore::put: base length mismatch");
      }
    }
    entry.state = EntryState::kPending;
    entry.bases = bases;
    entry.encode_base = std::move(encode_base);
    ++pending_;
  } else {
    ++anchor_count_;
  }
  const std::size_t raw_bytes = weights->size() * sizeof(float);
  entry.raw = std::move(weights);
  full_payload_bytes_ += raw_bytes;
  resident_payload_bytes_ += raw_bytes;  // raw until a delta lands
  const auto id = static_cast<PayloadId>(entries_.size());
  entries_.push_back(std::move(entry));
  by_hash_.emplace(hash, id);
  if (!encodable) return id;

  if (!encode_pool_) {
    lock.unlock();
    settle(id);
    return id;
  }
  // Posted under the append lock, so the worker's queue is in put order.
  peak_pending_ = std::max(peak_pending_, pending_);
  store_metrics().encode_queue_depth.record(pending_);
  // Flow event links this put() to its background encode completion in the
  // trace viewer (an arrow from the committing thread to the worker).
  if (obs::tracing_enabled()) obs::trace_detail::flow_start("encode", id);
  try {
    encode_pool_->post([this, id] { settle(id); });
  } catch (...) {
    // Enqueue failed (allocation / pool shutdown): the payload is already
    // committed raw, so it settles as a raw anchor, like a failed encode.
    settle_locked(id, 0, {});
  }
  return id;
}

void ModelStore::settle(PayloadId id) noexcept {
  std::uint32_t chain_depth = 0;
  std::vector<std::uint8_t> encoded;  // stays empty for an anchor
  try {
    WeightsPtr raw;
    {
      // Closes before the entry flips, so whoever sees it settled sees its
      // time.
      obs::ScopedSpan span(encode_pool_ ? obs::Phase::kEncodeAsync : obs::Phase::kEncodeInline,
                           {{"payload", id}});
      // Flow end emitted after the span's B event so the 'f' (bp:"e") lands
      // inside the encode.async slice and the put->encode arrow binds to it.
      if (encode_pool_ && obs::tracing_enabled()) obs::trace_detail::flow_finish("encode", id);
      std::vector<PayloadId> bases;
      WeightsPtr base_hint;
      {
        std::shared_lock lock(entries_mutex_);
        const Entry& entry = entries_[id];
        bases = entry.bases;
        raw = entry.raw;
        base_hint = entry.encode_base;
        for (PayloadId base : bases) {
          chain_depth = std::max(chain_depth, entries_[base].chain_depth + 1);
        }
      }
      if (chain_depth <= config_.anchor_interval) {
        nn::WeightVector base_storage;
        const nn::WeightVector* base = base_hint.get();
        if (base == nullptr) {
          std::shared_lock lock(entries_mutex_);
          base_storage = base_vector_locked(bases);
          base = &base_storage;
        }
        encoded = encode_delta(raw->data(), base->data(), raw->size());
        if (encoded.size() >= raw->size() * sizeof(float)) encoded = {};
      }
    }
    // The publisher and its neighbors read the fresh payload at once: seed
    // the LRU so the first walks after the flip do not pay a decode.
    if (!encoded.empty()) lru_insert(id, std::move(raw));
  } catch (...) {
    encoded = {};
  }
  std::unique_lock lock(entries_mutex_);
  settle_locked(id, chain_depth, std::move(encoded));
}

void ModelStore::settle_locked(PayloadId id, std::uint32_t chain_depth,
                               std::vector<std::uint8_t> encoded) {
  Entry& entry = entries_[id];
  if (encoded.empty()) {
    entry.state = EntryState::kAnchor;
    entry.bases.clear();
    ++anchor_count_;  // residency already counted raw at put()
  } else {
    entry.state = EntryState::kDelta;
    entry.chain_depth = chain_depth;
    resident_payload_bytes_ -= entry.num_floats * sizeof(float);
    resident_payload_bytes_ += encoded.size();
    entry.encoded = std::move(encoded);
    entry.raw = nullptr;
  }
  entry.encode_base = nullptr;  // the hint served its one encode
  --pending_;
}

void ModelStore::drain() const {
  // Every pending entry has a queued or running settle, so an idle pool
  // means a settled store.
  if (encode_pool_) encode_pool_->wait_idle();
}

WeightsPtr ModelStore::materialize_locked(PayloadId id) const {
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore: unknown payload " + std::to_string(id));
  }
  const Entry& entry = entries_[id];
  // The entry's state is the authority: anchors and pending entries serve
  // the retained raw vector; only settled deltas take the LRU/decode path
  // below.
  if (entry.state != EntryState::kDelta) return entry.raw;

  {
    std::lock_guard lru_lock(lru_mutex_);
    if (auto it = lru_.find(id); it != lru_.end()) {
      ++lru_hits_;
      store_metrics().lru_hits.add();
      lru_order_.splice(lru_order_.begin(), lru_order_, it->second.position);
      return it->second.vector;
    }
    ++lru_misses_;
    store_metrics().lru_misses.add();
  }

  const nn::WeightVector base = base_vector_locked(entry.bases);
  auto decoded = std::make_shared<nn::WeightVector>(entry.num_floats);
  decode_delta(entry.encoded.data(), entry.encoded.size(), base.data(), decoded->data(),
               entry.num_floats);
  {
    std::lock_guard lru_lock(lru_mutex_);
    ++decoded_payloads_;
  }
  store_metrics().decodes.add();
  WeightsPtr result = std::move(decoded);
  lru_insert(id, result);
  return result;
}

void ModelStore::lru_insert(PayloadId id, WeightsPtr vector) const {
  std::lock_guard lru_lock(lru_mutex_);
  if (lru_.count(id) > 0) return;  // a concurrent decode of `id` won the race
  const std::size_t bytes = vector->size() * sizeof(float);
  lru_order_.push_front(id);
  lru_.emplace(id, LruNode{std::move(vector), lru_order_.begin()});
  lru_bytes_ += bytes;
  while (lru_bytes_ > config_.lru_bytes && lru_.size() > 1) {
    const PayloadId victim = lru_order_.back();
    auto it = lru_.find(victim);
    lru_bytes_ -= it->second.vector->size() * sizeof(float);
    lru_.erase(it);
    lru_order_.pop_back();
  }
}

WeightsPtr ModelStore::get(PayloadId id) const {
  std::shared_lock lock(entries_mutex_);
  return materialize_locked(id);
}

ContentHash ModelStore::hash_of(PayloadId id) const {
  std::shared_lock lock(entries_mutex_);
  if (id >= entries_.size()) {
    throw std::out_of_range("ModelStore: unknown payload " + std::to_string(id));
  }
  return entries_[id].hash;
}

std::size_t ModelStore::size() const {
  std::shared_lock lock(entries_mutex_);
  return entries_.size();
}

StoreStats ModelStore::stats() const {
  StoreStats out;
  std::shared_lock lock(entries_mutex_);
  out.payloads = entries_.size();
  out.anchors = anchor_count_;
  out.dedup_hits = dedup_hits_;
  out.resident_payload_bytes = resident_payload_bytes_;
  out.full_payload_bytes = full_payload_bytes_;
  out.pending_encodes = pending_;
  out.peak_pending_encodes = peak_pending_;
  out.deltas = entries_.size() - anchor_count_ - out.pending_encodes;
  out.encode_seconds = static_cast<double>(obs::phase_nanos(*obs_, obs::Phase::kEncodeInline) +
                                           obs::phase_nanos(*obs_, obs::Phase::kEncodeAsync)) *
                       1e-9;
  std::lock_guard lru_lock(lru_mutex_);
  out.lru_bytes = lru_bytes_;
  out.lru_entries = lru_.size();
  out.lru_hits = lru_hits_;
  out.lru_misses = lru_misses_;
  out.decoded_payloads = decoded_payloads_;
  return out;
}

}  // namespace specdag::store
