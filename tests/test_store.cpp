// Model store subsystem: delta codec round-trips, content-address dedup,
// LRU eviction determinism, the sharded evaluation cache under concurrent
// access, and the store wired into the DAG.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <mutex>
#include <thread>

#include "dag/dag.hpp"
#include "store/delta_codec.hpp"
#include "store/eval_cache.hpp"
#include "store/model_store.hpp"
#include "tipsel/tip_selector.hpp"
#include "util/rng.hpp"

namespace specdag::store {
namespace {

nn::WeightVector random_vector(Rng& rng, std::size_t n, double stddev = 0.1) {
  nn::WeightVector v(n);
  for (float& w : v) w = static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

// Perturbs `base` by a small update, mimicking one local SGD step.
nn::WeightVector perturb(const nn::WeightVector& base, Rng& rng, double stddev = 1e-3) {
  nn::WeightVector v = base;
  for (float& w : v) w += static_cast<float>(rng.normal(0.0, stddev));
  return v;
}

WeightsPtr share(nn::WeightVector v) {
  return std::make_shared<const nn::WeightVector>(std::move(v));
}

// ------------------------------------------------------------ delta codec ---

TEST(DeltaCodec, RoundTripIsBitExact) {
  Rng rng(1);
  for (const double update : {1e-6, 1e-3, 1e-1, 10.0}) {
    const nn::WeightVector base = random_vector(rng, 1337);
    const nn::WeightVector values = perturb(base, rng, update);
    const std::vector<std::uint8_t> encoded =
        encode_delta(values.data(), base.data(), values.size());
    nn::WeightVector decoded(values.size());
    decode_delta(encoded.data(), encoded.size(), base.data(), decoded.data(), decoded.size());
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded[i]),
                std::bit_cast<std::uint32_t>(values[i]))
          << "update stddev " << update << ", index " << i;
    }
  }
}

TEST(DeltaCodec, RoundTripsSpecialValues) {
  const nn::WeightVector base = {0.0f, -0.0f, 1.0f, -1.0f, 1e-40f, 3.0f, 0.5f, 0.0f};
  const nn::WeightVector values = {
      std::numeric_limits<float>::quiet_NaN(), std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), std::numeric_limits<float>::denorm_min(),
      -1e-40f, 3.0f, std::nextafterf(0.5f, 1.0f), -0.0f};
  const std::vector<std::uint8_t> encoded =
      encode_delta(values.data(), base.data(), values.size());
  nn::WeightVector decoded(values.size());
  decode_delta(encoded.data(), encoded.size(), base.data(), decoded.data(), decoded.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded[i]), std::bit_cast<std::uint32_t>(values[i]))
        << "index " << i;
  }
}

TEST(DeltaCodec, IdenticalVectorsCollapse) {
  Rng rng(2);
  const nn::WeightVector base = random_vector(rng, 4096);
  const std::vector<std::uint8_t> encoded = encode_delta(base.data(), base.data(), base.size());
  // 4096 zero flags -> 512 bytes, 3% of the 16 KiB raw size.
  EXPECT_EQ(encoded.size(), base.size() / 8);
  nn::WeightVector decoded(base.size());
  decode_delta(encoded.data(), encoded.size(), base.data(), decoded.data(), decoded.size());
  EXPECT_EQ(decoded, base);
}

TEST(DeltaCodec, SmallUpdatesCompress) {
  Rng rng(3);
  const nn::WeightVector base = random_vector(rng, 8192);
  // ~1e-5 relative updates (converged training): well below half the raw
  // size. Larger updates compress less; the store falls back to raw storage
  // when encoding stops paying, so the codec only needs to win here.
  const nn::WeightVector values = perturb(base, rng, 1e-6);
  const std::vector<std::uint8_t> encoded =
      encode_delta(values.data(), base.data(), values.size());
  EXPECT_LT(encoded.size(), values.size() * sizeof(float) / 2)
      << "small-update delta should compress below 50% of raw";
  // A coarser update still shrinks, just less.
  const nn::WeightVector coarse = perturb(base, rng, 1e-4);
  const std::vector<std::uint8_t> coarse_encoded =
      encode_delta(coarse.data(), base.data(), coarse.size());
  EXPECT_LT(coarse_encoded.size(), coarse.size() * sizeof(float) * 3 / 4);
}

TEST(DeltaCodec, TruncatedStreamThrows) {
  Rng rng(4);
  const nn::WeightVector base = random_vector(rng, 64);
  const nn::WeightVector values = perturb(base, rng, 0.5);
  std::vector<std::uint8_t> encoded = encode_delta(values.data(), base.data(), values.size());
  encoded.resize(encoded.size() / 2);
  nn::WeightVector decoded(values.size());
  EXPECT_THROW(
      decode_delta(encoded.data(), encoded.size(), base.data(), decoded.data(), decoded.size()),
      std::invalid_argument);
}

// ------------------------------------------------------------- ModelStore ---

TEST(ModelStore, ContentAddressDedup) {
  ModelStore store;
  Rng rng(5);
  const nn::WeightVector v = random_vector(rng, 128);
  const PayloadId a = store.put(share(v), {});
  const StoreStats before = store.stats();
  const PayloadId b = store.put(share(v), {});  // distinct allocation, same content
  EXPECT_EQ(a, b);
  const StoreStats after = store.stats();
  EXPECT_EQ(after.payloads, before.payloads);
  EXPECT_EQ(after.resident_payload_bytes, before.resident_payload_bytes);
  EXPECT_EQ(after.dedup_hits, before.dedup_hits + 1);
  EXPECT_TRUE(store.hash_of(a) == hash_weights(v));
}

TEST(ModelStore, DeltaPayloadsRoundTripThroughChains) {
  StoreConfig config;
  config.anchor_interval = 4;
  config.lru_bytes = 1;  // evict aggressively: every get() must decode
  ModelStore store(config);
  Rng rng(6);

  nn::WeightVector current = random_vector(rng, 512);
  std::vector<PayloadId> ids = {store.put(share(current), {})};
  std::vector<nn::WeightVector> originals = {current};
  for (int i = 0; i < 20; ++i) {
    current = perturb(current, rng, 1e-3);
    ids.push_back(store.put(share(current), {ids.back()}));
    originals.push_back(current);
  }
  const StoreStats stats = store.stats();
  EXPECT_GT(stats.deltas, 10u);  // most of the chain is delta-encoded
  EXPECT_GT(stats.anchors, 2u);  // anchor every 4 hops + genesis
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*store.get(ids[i]), originals[i]) << "payload " << i;
  }
}

TEST(ModelStore, MultiBaseDeltaUsesAveragedParents) {
  ModelStore store;
  Rng rng(7);
  const nn::WeightVector a = random_vector(rng, 256);
  const nn::WeightVector b = random_vector(rng, 256);
  const PayloadId pa = store.put(share(a), {});
  const PayloadId pb = store.put(share(b), {});
  const nn::WeightVector averaged = nn::average_weights(a, b);
  const nn::WeightVector child = perturb(averaged, rng, 1e-4);
  const PayloadId pc = store.put(share(child), {pa, pb});
  EXPECT_EQ(*store.get(pc), child);
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.deltas, 1u);
  // The delta against the averaged parents is the small training update, so
  // the child's resident cost must be well below its full size.
  EXPECT_LT(stats.resident_payload_bytes, 3 * 256 * sizeof(float));
}

TEST(ModelStore, UncompressiblePayloadsFallBackToRaw) {
  ModelStore store;
  Rng rng(8);
  const PayloadId base = store.put(share(random_vector(rng, 256)), {});
  // A payload unrelated to its base: the xor stream carries no shared bits,
  // so the store must keep it raw instead of an expanded delta.
  const PayloadId unrelated = store.put(share(random_vector(rng, 256, 100.0)), {base});
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.anchors, 2u);
  EXPECT_EQ(stats.deltas, 0u);
  EXPECT_EQ(stats.resident_payload_bytes, 2 * 256 * sizeof(float));
  EXPECT_NE(base, unrelated);
}

TEST(ModelStore, DeltaOffMatchesFullBaseline) {
  StoreConfig config;
  config.delta = false;
  ModelStore store(config);
  Rng rng(9);
  nn::WeightVector current = random_vector(rng, 128);
  PayloadId id = store.put(share(current), {});
  for (int i = 0; i < 5; ++i) {
    current = perturb(current, rng);
    id = store.put(share(current), {id});
  }
  const StoreStats stats = store.stats();
  EXPECT_EQ(stats.deltas, 0u);
  EXPECT_EQ(stats.resident_payload_bytes, stats.full_payload_bytes);
  EXPECT_DOUBLE_EQ(stats.delta_ratio(), 1.0);
}

// Runs a fixed access pattern and returns the store's final statistics.
StoreStats run_lru_pattern(std::uint64_t seed) {
  StoreConfig config;
  config.lru_bytes = 6 * 256 * sizeof(float);  // room for ~6 materialized payloads
  ModelStore store(config);
  Rng rng(seed);
  nn::WeightVector current = random_vector(rng, 256);
  std::vector<PayloadId> ids = {store.put(share(current), {})};
  for (int i = 0; i < 30; ++i) {
    current = perturb(current, rng, 1e-3);
    ids.push_back(store.put(share(current), {ids.back()}));
  }
  Rng access(seed ^ 0xACCE55);
  for (int i = 0; i < 200; ++i) {
    (void)store.get(ids[access.index(ids.size())]);
  }
  return store.stats();
}

TEST(ModelStore, LruEvictionIsDeterministic) {
  const StoreStats a = run_lru_pattern(42);
  const StoreStats b = run_lru_pattern(42);
  EXPECT_EQ(a.lru_hits, b.lru_hits);
  EXPECT_EQ(a.lru_misses, b.lru_misses);
  EXPECT_EQ(a.decoded_payloads, b.decoded_payloads);
  EXPECT_EQ(a.lru_entries, b.lru_entries);
  EXPECT_EQ(a.lru_bytes, b.lru_bytes);
  EXPECT_GT(a.lru_misses, 0u);  // the pattern actually exercised eviction
  EXPECT_LE(a.lru_bytes, 6 * 256 * sizeof(float));
}

// ------------------------------------------------------- ShardedEvalCache ---

TEST(ShardedEvalCache, InsertLookupInvalidate) {
  ShardedEvalCache cache(4);
  const ContentHash h1{1, 2};
  const ContentHash h2{3, 4};
  EXPECT_FALSE(cache.lookup(0, h1).has_value());
  cache.insert(0, h1, 0.25);
  cache.insert(0, h2, 0.5);
  cache.insert(1, h1, 0.75);
  EXPECT_EQ(cache.lookup(0, h1).value(), 0.25);
  EXPECT_EQ(cache.lookup(1, h1).value(), 0.75);
  EXPECT_EQ(cache.size(), 3u);

  cache.invalidate_client(0);
  EXPECT_FALSE(cache.lookup(0, h1).has_value());
  EXPECT_FALSE(cache.lookup(0, h2).has_value());
  EXPECT_EQ(cache.lookup(1, h1).value(), 0.75);  // other clients keep entries
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidations, 2u);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
}

TEST(ShardedEvalCache, ConcurrentAccessFromManyThreads) {
  // The shape of the sweep executor's access: many workers hammering the
  // same cache with interleaved inserts and lookups.
  ShardedEvalCache cache(8);
  constexpr int kThreads = 8;
  constexpr int kKeysPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int k = 0; k < kKeysPerThread; ++k) {
        const ContentHash hash{static_cast<std::uint64_t>(t),
                               static_cast<std::uint64_t>(k)};
        cache.insert(t, hash, static_cast<double>(k) / kKeysPerThread);
        // Re-read own keys and probe other threads' keys concurrently.
        const auto mine = cache.lookup(t, hash);
        ASSERT_TRUE(mine.has_value());
        ASSERT_EQ(*mine, static_cast<double>(k) / kKeysPerThread);
        (void)cache.lookup((t + 1) % kThreads,
                           ContentHash{static_cast<std::uint64_t>((t + 1) % kThreads),
                                       static_cast<std::uint64_t>(k)});
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kThreads) * kKeysPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kKeysPerThread; ++k) {
      const auto value = cache.lookup(
          t, ContentHash{static_cast<std::uint64_t>(t), static_cast<std::uint64_t>(k)});
      ASSERT_TRUE(value.has_value());
      EXPECT_EQ(*value, static_cast<double>(k) / kKeysPerThread);
    }
  }
}

// --------------------------------------------------- async encode pipeline ---

// Feeds the same deterministic payload graph (chains with an occasional
// two-base average and one uncompressible junk payload) into a store built
// with `config`, returning ids in feed order. The decisions a correct store
// makes are independent of encode scheduling, so a synchronous and an
// asynchronous store fed by this must agree entry for entry.
std::vector<PayloadId> feed_payload_graph(ModelStore& store, std::uint64_t seed,
                                          std::vector<nn::WeightVector>* originals) {
  Rng rng(seed);
  std::vector<PayloadId> ids;
  std::vector<nn::WeightVector> values;
  nn::WeightVector current = random_vector(rng, 384);
  values.push_back(current);
  ids.push_back(store.put(share(current), {}));
  for (int i = 0; i < 40; ++i) {
    if (i == 17) {
      // Uncorrelated junk: must fall back to a raw anchor in either mode.
      current = random_vector(rng, 384, 100.0);
      values.push_back(current);
      ids.push_back(store.put(share(current), {ids.back()}));
      continue;
    }
    if (i % 7 == 3 && ids.size() >= 4) {
      // Two-base payload trained from the averaged parents.
      const PayloadId a = ids[ids.size() - 1];
      const PayloadId b = ids[ids.size() - 3];
      current = perturb(nn::average_weights(values[a], values[b]), rng, 1e-3);
      values.push_back(current);
      ids.push_back(store.put(share(current), {a, b}));
      continue;
    }
    current = perturb(current, rng, 1e-3);
    values.push_back(current);
    ids.push_back(store.put(share(current), {ids.back()}));
  }
  if (originals != nullptr) *originals = std::move(values);
  return ids;
}

TEST(AsyncEncode, DrainedPipelineMatchesSynchronousDecisions) {
  StoreConfig sync_config;
  sync_config.anchor_interval = 5;
  ModelStore sync_store(sync_config);
  std::vector<nn::WeightVector> originals;
  feed_payload_graph(sync_store, 21, &originals);

  StoreConfig config = sync_config;
  config.async_encode = true;
  ModelStore store(config);
  const std::vector<PayloadId> ids = feed_payload_graph(store, 21, nullptr);
  // Reads while encodes are still in flight must already be bit-exact
  // (they serve the retained raw vector or the settled delta).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*store.get(ids[i]), originals[i]) << "pre-drain payload " << i;
  }
  store.drain();
  const StoreStats stats = store.stats();
  const StoreStats expected = sync_store.stats();
  EXPECT_EQ(stats.pending_encodes, 0u);
  EXPECT_GE(stats.peak_pending_encodes, 1u);
  EXPECT_EQ(expected.peak_pending_encodes, 0u);  // inline settles never queue
  EXPECT_EQ(stats.payloads, expected.payloads);
  // The delta/anchor split, the encoded bytes, and therefore delta_ratio
  // must be exactly the synchronous outcome.
  EXPECT_EQ(stats.anchors, expected.anchors);
  EXPECT_EQ(stats.deltas, expected.deltas);
  EXPECT_EQ(stats.resident_payload_bytes, expected.resident_payload_bytes);
  EXPECT_EQ(stats.full_payload_bytes, expected.full_payload_bytes);
  EXPECT_DOUBLE_EQ(stats.delta_ratio(), expected.delta_ratio());
  // encode_seconds sums the store's obs encode spans.
  EXPECT_GT(stats.encode_seconds, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*store.get(ids[i]), originals[i]) << "post-drain payload " << i;
  }
}

TEST(AsyncEncode, ConcurrentInternAndMaterializeStress) {
  // Many threads interning their own delta chains while readers hammer
  // get() on everything already interned and the encoder drains in the
  // background: every read must return the exact original vector (no torn
  // reads across the raw -> encoding -> delta flips), and after drain() the
  // stats must equal a synchronous store fed the same chains.
  constexpr int kWriters = 4;
  constexpr int kChain = 25;
  constexpr std::size_t kFloats = 256;

  // Pre-generate every chain so writers do no RNG work while racing.
  std::vector<std::vector<nn::WeightVector>> chains(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    Rng rng(1000 + w);
    chains[w].push_back(random_vector(rng, kFloats));
    for (int i = 1; i < kChain; ++i) {
      chains[w].push_back(perturb(chains[w].back(), rng, 1e-3));
    }
  }

  auto run = [&](const StoreConfig& config) {
    ModelStore store(config);
    std::vector<std::vector<PayloadId>> ids(kWriters);
    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::mutex ids_mutex;  // readers sample the growing id lists

    std::vector<std::thread> threads;
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        std::vector<PayloadId> mine;
        for (int i = 0; i < kChain; ++i) {
          const std::vector<PayloadId> bases =
              mine.empty() ? std::vector<PayloadId>{} : std::vector<PayloadId>{mine.back()};
          mine.push_back(store.put(share(chains[w][i]), bases));
          // Immediately read back through every state of the pipeline.
          if (*store.get(mine.back()) != chains[w][i]) torn.fetch_add(1);
          std::lock_guard lock(ids_mutex);
          ids[w] = mine;
        }
      });
    }
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Rng rng(77 + r);
        while (!stop.load()) {
          int w = static_cast<int>(rng.index(kWriters));
          std::vector<PayloadId> snapshot;
          {
            std::lock_guard lock(ids_mutex);
            snapshot = ids[w];
          }
          if (snapshot.empty()) continue;
          const std::size_t pick = rng.index(snapshot.size());
          if (*store.get(snapshot[pick]) != chains[w][pick]) torn.fetch_add(1);
        }
      });
    }
    for (int w = 0; w < kWriters; ++w) threads[w].join();
    stop.store(true);
    for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

    store.drain();
    EXPECT_EQ(torn.load(), 0);
    // Post-drain, every payload still round-trips bit-exactly.
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kChain; ++i) {
        EXPECT_EQ(*store.get(ids[w][i]), chains[w][i]) << w << "/" << i;
      }
    }
    return store.stats();
  };

  StoreConfig sync_config;
  sync_config.anchor_interval = 6;
  const StoreStats sync_stats = run(sync_config);

  StoreConfig async_config = sync_config;
  async_config.async_encode = true;
  const StoreStats async_stats = run(async_config);

  EXPECT_EQ(async_stats.pending_encodes, 0u);
  EXPECT_EQ(async_stats.payloads, sync_stats.payloads);
  // Per-chain decisions are independent of interleaving, so the drained
  // async store must land on the synchronous delta_ratio exactly.
  EXPECT_EQ(async_stats.anchors, sync_stats.anchors);
  EXPECT_EQ(async_stats.deltas, sync_stats.deltas);
  EXPECT_EQ(async_stats.resident_payload_bytes, sync_stats.resident_payload_bytes);
  EXPECT_DOUBLE_EQ(async_stats.delta_ratio(), sync_stats.delta_ratio());
}

TEST(AsyncEncode, DagWiringDrainsTransparently) {
  StoreConfig config;
  config.async_encode = true;
  config.anchor_interval = 4;
  Rng rng(31);
  nn::WeightVector genesis = random_vector(rng, 200);
  dag::Dag graph(genesis, config);
  std::vector<nn::WeightVector> originals = {genesis};
  std::vector<dag::TxId> ids = {dag::kGenesisTx};
  for (int i = 0; i < 15; ++i) {
    std::vector<dag::TxId> parents = {ids[rng.index(ids.size())]};
    const dag::TxId other = ids[rng.index(ids.size())];
    if (other != parents[0]) parents.push_back(other);
    std::vector<const nn::WeightVector*> ptrs;
    for (dag::TxId p : parents) ptrs.push_back(&originals[p]);
    nn::WeightVector trained = perturb(nn::average_weights(ptrs), rng, 1e-3);
    ids.push_back(graph.add_transaction(parents, share(trained), i % 3, i));
    originals.push_back(std::move(trained));
    // Reads race the pipeline by design.
    EXPECT_EQ(*graph.weights(ids.back()), originals.back());
  }
  graph.store().drain();
  EXPECT_EQ(graph.store().stats().pending_encodes, 0u);
  EXPECT_GT(graph.store().stats().deltas, 0u);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*graph.weights(ids[i]), originals[i]) << "transaction " << i;
  }
}

// ----------------------------------------------------- DAG + store wiring ---

TEST(DagStore, TransactionsRoundTripThroughStore) {
  Rng rng(10);
  nn::WeightVector genesis = random_vector(rng, 200);
  dag::Dag graph(genesis);
  std::vector<nn::WeightVector> originals = {genesis};
  std::vector<dag::TxId> ids = {dag::kGenesisTx};
  for (int i = 0; i < 12; ++i) {
    // Approve up to two random existing transactions, like real clients.
    std::vector<dag::TxId> parents = {ids[rng.index(ids.size())]};
    const dag::TxId other = ids[rng.index(ids.size())];
    if (other != parents[0]) parents.push_back(other);
    std::vector<const nn::WeightVector*> ptrs;
    for (dag::TxId p : parents) ptrs.push_back(&originals[p]);
    nn::WeightVector trained = perturb(nn::average_weights(ptrs), rng, 1e-3);
    ids.push_back(graph.add_transaction(parents, share(trained), i % 3, i));
    originals.push_back(std::move(trained));
  }
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(*graph.weights(ids[i]), originals[i]) << "transaction " << i;
    EXPECT_TRUE(graph.payload_hash(ids[i]) == hash_weights(originals[i]));
  }
  const StoreStats stats = graph.store().stats();
  EXPECT_EQ(stats.payloads, ids.size());
  EXPECT_GT(stats.deltas, 0u);
  EXPECT_LT(stats.resident_payload_bytes, stats.full_payload_bytes);
}

TEST(DagStore, SelectorCacheIsKeyedByClientAndPayloadContent) {
  // Two transactions publish the same payload: one cached accuracy per
  // client serves both, and dropping one client's entries keeps the other's.
  dag::Dag graph(nn::WeightVector{1.0f, 2.0f});
  const dag::TxId a = graph.add_transaction({dag::kGenesisTx}, share({0.5f, 0.5f}), 0, 1);
  const dag::TxId b = graph.add_transaction({dag::kGenesisTx}, share({0.5f, 0.5f}), 1, 1);
  auto cache = std::make_shared<ShardedEvalCache>(2);
  int evaluations = 0;
  const auto evaluator = [&evaluations](const nn::WeightVector& w) {
    ++evaluations;
    return static_cast<double>(w[0]) / 2.0;
  };
  tipsel::AccuracyTipSelector client0(1.0, tipsel::Normalization::kStandard, evaluator, cache, 0);
  tipsel::AccuracyTipSelector client1(1.0, tipsel::Normalization::kStandard, evaluator, cache, 1);
  EXPECT_EQ(client0.evaluate(graph, a), 0.25);
  EXPECT_EQ(client0.evaluate(graph, b), 0.25);
  EXPECT_EQ(evaluations, 1);
  EXPECT_EQ(client1.evaluate(graph, b), 0.25);
  EXPECT_EQ(evaluations, 2);
  cache->invalidate_client(0);
  EXPECT_FALSE(cache->lookup(0, graph.payload_hash(a)).has_value());
  EXPECT_EQ(cache->lookup(1, graph.payload_hash(a)).value(), 0.25);
  client1.evaluate(graph, a);
  EXPECT_EQ(evaluations, 2);
  client0.evaluate(graph, a);
  EXPECT_EQ(evaluations, 3);
}

}  // namespace
}  // namespace specdag::store
