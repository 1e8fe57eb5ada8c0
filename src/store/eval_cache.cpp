#include "store/eval_cache.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace specdag::store {
namespace {

obs::Counter& hit_counter() {
  static obs::Counter& counter = obs::Registry::counter("evalcache.hits");
  return counter;
}

obs::Counter& miss_counter() {
  static obs::Counter& counter = obs::Registry::counter("evalcache.misses");
  return counter;
}

}  // namespace

std::size_t ShardedEvalCache::KeyHasher::operator()(const Key& key) const {
  return static_cast<std::size_t>(
      splitmix64(key.hash.lo ^ (key.hash.hi * 0x9E3779B97F4A7C15ULL) ^
                 static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.client))));
}

ShardedEvalCache::ShardedEvalCache(std::size_t num_shards) {
  if (num_shards == 0) throw std::invalid_argument("ShardedEvalCache: zero shards");
  shards_.reserve(num_shards);
  for (std::size_t i = 0; i < num_shards; ++i) shards_.push_back(std::make_unique<Shard>());
}

ShardedEvalCache::Shard& ShardedEvalCache::shard_of(const Key& key) const {
  return *shards_[KeyHasher{}(key) % shards_.size()];
}

std::optional<double> ShardedEvalCache::lookup(int client, const ContentHash& hash) const {
  const Key key{client, hash};
  Shard& shard = shard_of(key);
  std::shared_lock lock(shard.mutex);
  auto it = shard.map.find(key);
  if (it == shard.map.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    miss_counter().add();
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hit_counter().add();
  return it->second;
}

void ShardedEvalCache::insert(int client, const ContentHash& hash, double accuracy) {
  const Key key{client, hash};
  Shard& shard = shard_of(key);
  std::unique_lock lock(shard.mutex);
  shard.map.emplace(key, accuracy);
}

void ShardedEvalCache::invalidate_client(int client) {
  std::uint64_t dropped = 0;
  for (auto& shard : shards_) {
    std::unique_lock lock(shard->mutex);
    for (auto it = shard->map.begin(); it != shard->map.end();) {
      if (it->first.client == client) {
        it = shard->map.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
  }
  invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

std::size_t ShardedEvalCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::shared_lock lock(shard->mutex);
    total += shard->map.size();
  }
  return total;
}

EvalCacheStats ShardedEvalCache::stats() const {
  EvalCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.entries = size();
  stats.invalidations = invalidations_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace specdag::store
