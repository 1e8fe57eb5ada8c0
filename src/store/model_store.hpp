// Content-addressed model payload store (the "model store" subsystem).
//
// Every weight vector that enters the DAG is interned here exactly once:
//
//   * payloads are content-addressed by a 128-bit hash, so identical vectors
//     (re-published models, replayed attacks) share one entry;
//   * most payloads are stored as a bit-packed XOR *delta* against the
//     elementwise average of their base payloads — the same average the
//     publishing client trained from, so the delta is exactly the local
//     training update and compresses well once training converges;
//   * delta payloads are materialized on demand and kept in a bounded LRU of
//     decoded vectors, so hot DAG regions (tips, walk corridors) stay
//     copy-free while cold history costs only its encoded bytes;
//   * payloads whose delta chain would grow past `anchor_interval`, or whose
//     encoded delta would not actually shrink (early training, attacker
//     noise), are stored raw ("anchors") to bound reconstruction cost.
//
// Encode pipeline: put() appends each encodable payload (delta storage on,
// at least one base) as a *pending* entry holding its raw vector, and one
// routine, settle(), turns it into its final form:
//
//     pending (raw) -> delta | anchor
//
// With `async_encode` off, put() runs settle() inline before returning;
// with it on, put() posts settle() to a one-worker FIFO pool and returns at
// once, and readers materialize from the retained raw vector until the
// entry settles. The single worker settles entries in put order, so every
// base is settled before the entry that references it: each delta/anchor
// decision — and therefore the post-drain delta_ratio — is bit-identical to
// synchronous encoding. drain() is the barrier the runner (and the tests)
// use to wait for the queue to empty.
//
// The store is internally synchronized; readers share materialized vectors
// through shared_ptr exactly like the previous Transaction::weights field,
// so averaging and walks stay copy-free.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "nn/model.hpp"
#include "util/thread_pool.hpp"

namespace specdag::obs {
class Context;
}

namespace specdag::snapshot {
struct Access;
}

namespace specdag::store {

using WeightsPtr = std::shared_ptr<const nn::WeightVector>;

// 128-bit content hash (two independently seeded 64-bit mixes); collisions
// are negligible at any realistic payload count, so equality of hashes is
// treated as equality of content.
struct ContentHash {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const ContentHash& a, const ContentHash& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
};

struct ContentHashHasher {
  std::size_t operator()(const ContentHash& h) const {
    return static_cast<std::size_t>(h.hi ^ (h.lo * 0x9E3779B97F4A7C15ULL));
  }
};

ContentHash hash_weights(const nn::WeightVector& weights);

// Handle to an interned payload. Indexes the store's entry table.
using PayloadId = std::uint32_t;
inline constexpr PayloadId kInvalidPayload = 0xFFFFFFFFu;

struct StoreConfig {
  // Store payloads as deltas against their bases (false = every payload is
  // a raw anchor — the pre-store behavior, used as the memory baseline).
  bool delta = true;
  // Encode deltas on a background worker instead of inside put(): the
  // commit path returns as soon as the raw payload is hashed and appended,
  // and the codec runs off the hot path. Results (payload contents,
  // delta/anchor decisions, post-drain delta_ratio) are bit-identical to
  // synchronous encoding.
  bool async_encode = false;
  // A payload whose delta chain (hops to the nearest anchor) would exceed
  // this becomes an anchor itself. Bounds worst-case reconstruction work.
  std::size_t anchor_interval = 8;
  // Capacity of the materialized-vector LRU, in bytes.
  std::size_t lru_bytes = std::size_t{64} << 20;
  // Shard count of the evaluation cache built next to this store (consumed
  // by core::SpecializingDag, not by ModelStore itself).
  std::size_t eval_cache_shards = 16;
};

struct StoreStats {
  std::size_t payloads = 0;
  std::size_t anchors = 0;         // raw entries (incl. codec fallbacks)
  std::size_t deltas = 0;          // delta-encoded entries
  std::size_t pending_encodes = 0;  // entries not yet settled (raw until then)
  std::size_t peak_pending_encodes = 0;  // high-water mark of the async encode queue
  std::size_t dedup_hits = 0;      // put() calls answered by an existing entry
  std::size_t resident_payload_bytes = 0;  // raw anchors + pending raws + encoded deltas
  std::size_t full_payload_bytes = 0;      // what full-vector storage would hold
  std::size_t lru_bytes = 0;
  std::size_t lru_entries = 0;
  std::uint64_t lru_hits = 0;
  std::uint64_t lru_misses = 0;    // materializations that had to decode
  std::uint64_t decoded_payloads = 0;  // total delta decodes performed
  // Time spent in the XOR codec + base materialization for encoding,
  // wherever it ran: the `encode.inline` (in put()) and `encode.async` (on
  // the workers) phase spans of the obs context the store was built under.
  // Reads 0 when that context records no metrics.
  double encode_seconds = 0.0;

  // Resident fraction of the full-vector baseline (1.0 when delta is off).
  double delta_ratio() const {
    return full_payload_bytes == 0
               ? 1.0
               : static_cast<double>(resident_payload_bytes) /
                     static_cast<double>(full_payload_bytes);
  }
  double lru_hit_rate() const {
    const double total = static_cast<double>(lru_hits + lru_misses);
    return total == 0.0 ? 0.0 : static_cast<double>(lru_hits) / total;
  }
};

class ModelStore {
 public:
  explicit ModelStore(StoreConfig config = {});
  ~ModelStore();

  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  // Interns `weights`. `bases` are the payloads of the new payload's parent
  // transactions; when delta storage is enabled the vector is encoded
  // against their elementwise average (the exact base the publisher trained
  // from). An empty `bases` forces an anchor. Returns the id of the interned
  // (or pre-existing identical) payload. With async_encode the encoding is
  // deferred to the background worker and this returns immediately.
  // `encode_base`, when given, must be the average of the bases' payloads
  // (what base_vector_locked would compute — decode recomputes that average,
  // so a mismatching hint would corrupt the payload). Publishers already
  // hold this vector as their training start point; passing it here skips
  // re-materializing and re-averaging the bases on the encode path. A hint
  // of the wrong length is ignored.
  PayloadId put(WeightsPtr weights, const std::vector<PayloadId>& bases,
                WeightsPtr encode_base = nullptr);

  // Materializes the payload (LRU-cached for delta entries; entries still
  // awaiting their async encode serve the retained raw vector). The
  // returned vector is bit-identical to the one passed to put().
  WeightsPtr get(PayloadId id) const;

  ContentHash hash_of(PayloadId id) const;
  std::size_t size() const;

  // Blocks until every queued async encode has settled (no-op in
  // synchronous mode). The runner calls this at run end; tests use it as
  // the barrier before asserting delta_ratio.
  void drain() const;


  StoreStats stats() const;
  const StoreConfig& config() const { return config_; }

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  // Lifecycle of an entry's payload representation: encodable puts enter
  // kPending and settle() flips them once, to kDelta or kAnchor.
  enum class EntryState : std::uint8_t { kAnchor, kPending, kDelta };

  struct Entry {
    ContentHash hash;
    EntryState state = EntryState::kAnchor;
    std::uint32_t num_floats = 0;
    std::uint32_t chain_depth = 0;  // 0 for anchors
    std::vector<PayloadId> bases;   // empty for anchors
    std::vector<std::uint8_t> encoded;  // delta entries only
    WeightsPtr raw;  // anchors stay materialized; pending entries hold it too
    WeightsPtr encode_base;  // put()'s base hint, held until the entry settles
  };

  struct LruNode {
    WeightsPtr vector;
    std::list<PayloadId>::iterator position;
  };

  // Requires entries_mutex_ (shared suffices); takes lru_mutex_ internally.
  WeightsPtr materialize_locked(PayloadId id) const;
  nn::WeightVector base_vector_locked(const std::vector<PayloadId>& bases) const;
  void lru_insert(PayloadId id, WeightsPtr vector) const;
  // The one delta/anchor decision: encodes pending entry `id` against its
  // bases (an encode.inline span in put(), encode.async on the worker) and
  // flips it to kDelta, or to a raw anchor when its chain would pass
  // anchor_interval, the delta would not shrink it, or the encode fails
  // (realistically only bad_alloc; the content is already served from
  // `raw`, and settling keeps drain() from hanging). Requires every base to
  // be settled. Never throws.
  void settle(PayloadId id) noexcept;
  // Flips pending entry `id` to its final state; empty `encoded` means a
  // raw anchor. Requires entries_mutex_ held exclusively.
  void settle_locked(PayloadId id, std::uint32_t chain_depth,
                     std::vector<std::uint8_t> encoded);

  const StoreConfig config_;
  // The context the store was built under (it must outlive the store):
  // stats() reads the encode spans' totals from it.
  const obs::Context* obs_;

  // Lock order: entries_mutex_ before lru_mutex_ (each may be taken alone;
  // never in reverse). Entries are append-only and immutable once
  // *settled*; pending entries are flipped exactly once by settle() under
  // the exclusive lock, which never covers the base materialization or the
  // codec. Readers share entries_mutex_ (raw anchors and pending raws are
  // returned without ever touching the LRU lock); put() takes it
  // exclusively to append. The LRU bookkeeping has its own short-lived
  // mutex so concurrent walkers only serialize on the cache update, not on
  // whole-chain decodes. Two threads may race to decode the same payload —
  // both produce the bit-identical vector, one insert wins, the duplicate
  // work is benign.
  mutable std::shared_mutex entries_mutex_;
  std::vector<Entry> entries_;
  std::unordered_map<ContentHash, PayloadId, ContentHashHasher> by_hash_;
  std::size_t full_payload_bytes_ = 0;      // guarded by entries_mutex_
  std::size_t resident_payload_bytes_ = 0;  // guarded by entries_mutex_
  std::size_t dedup_hits_ = 0;              // guarded by entries_mutex_
  std::size_t anchor_count_ = 0;            // guarded by entries_mutex_
  std::size_t pending_ = 0;                 // guarded by entries_mutex_
  std::size_t peak_pending_ = 0;            // guarded by entries_mutex_

  // Synchronous mode: put() holds this from its dedup lookup through its
  // inline settle, so no put sees another put's entry pending and every
  // settle finds its bases settled — the order the async worker's FIFO
  // gives.
  std::mutex inline_mutex_;

  // Materialized delta payloads, most recently used first.
  mutable std::mutex lru_mutex_;
  mutable std::list<PayloadId> lru_order_;
  mutable std::unordered_map<PayloadId, LruNode> lru_;
  mutable std::size_t lru_bytes_ = 0;
  mutable std::uint64_t lru_hits_ = 0;
  mutable std::uint64_t lru_misses_ = 0;
  mutable std::uint64_t decoded_payloads_ = 0;

  // Declared last so its destructor (which completes every queued settle)
  // runs while the rest of the store is still alive.
  std::unique_ptr<ThreadPool> encode_pool_;  // one worker; null in synchronous mode
};

}  // namespace specdag::store
