// Sharded evaluation cache shared by every client of a simulation.
//
// Model accuracy on a client's local test data depends only on the payload
// content and the client's (immutable) data, so it is cached under the key
// (client id, payload content hash). One striped-lock cache replaces the
// per-client private maps the DAG clients used to hold: concurrently
// prepared clients hit different shards instead of growing duplicate
// structures, content-identical payloads share entries per client, and the
// sweep executor's worker threads can safely share one cache per run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "store/model_store.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::store {

struct EvalCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  std::uint64_t invalidations = 0;  // entries dropped by invalidate_client

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total == 0.0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

class ShardedEvalCache {
 public:
  explicit ShardedEvalCache(std::size_t num_shards = 16);

  ShardedEvalCache(const ShardedEvalCache&) = delete;
  ShardedEvalCache& operator=(const ShardedEvalCache&) = delete;

  std::optional<double> lookup(int client, const ContentHash& hash) const;
  void insert(int client, const ContentHash& hash, double accuracy);

  // Drops every entry of one client (its local data changed, e.g. a
  // poisoning attack flipped its labels).
  void invalidate_client(int client);

  std::size_t size() const;
  std::size_t num_shards() const { return shards_.size(); }
  EvalCacheStats stats() const;

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  struct Key {
    int client;
    ContentHash hash;

    friend bool operator==(const Key& a, const Key& b) {
      return a.client == b.client && a.hash == b.hash;
    }
  };
  struct KeyHasher {
    std::size_t operator()(const Key& key) const;
  };
  struct Shard {
    mutable std::shared_mutex mutex;
    std::unordered_map<Key, double, KeyHasher> map;
  };

  Shard& shard_of(const Key& key) const;

  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace specdag::store
