// Public facade of the library: a Specializing DAG network.
//
// This is the API a downstream user programs against:
//
//   auto net = specdag::SpecializingDag(factory, config, seed);
//   int me = net.register_client(&my_data);
//   auto result = net.client_step(me, round);   // walk, average, train, publish
//   auto weights = net.consensus_weights(me);   // my personalized consensus model
//
// Internally it owns the transaction DAG (genesis = the initial model), one
// fl::DagClient per registered participant, and the pools of model replicas
// and fused executors the clients lease from. The round-based simulator
// (sim::DagSimulator) and the examples are both thin layers over this class.
#pragma once

#include <memory>
#include <vector>

#include "dag/dag.hpp"
#include "fl/dag_client.hpp"
#include "nn/batch_executor.hpp"
#include "nn/lease_pool.hpp"
#include "store/eval_cache.hpp"

namespace specdag {
class ThreadPool;
}

namespace specdag::core {

class SpecializingDag {
 public:
  // The genesis transaction holds freshly initialized weights drawn from
  // `factory` with a deterministic RNG derived from `seed`. `store_config`
  // configures the payload store (delta encoding, LRU) and the shard count
  // of the network-wide evaluation cache.
  SpecializingDag(nn::ModelFactory factory, fl::DagClientConfig default_config,
                  std::uint64_t seed, store::StoreConfig store_config = {});

  // Registers a participant. The pointed-to data must outlive this object.
  // Returns the client handle. Pass a config to override the default (e.g.
  // a malicious client using the random tip selector).
  int register_client(const data::ClientData* client_data);
  int register_client(const data::ClientData* client_data, const fl::DagClientConfig& config);

  std::size_t num_clients() const { return clients_.size(); }

  // One full step for a client: biased walks, averaging, local training,
  // publish-if-better. Thread-safe across distinct handles.
  fl::DagRoundResult client_step(int handle, std::size_t round);

  // Split-phase API for simulators that model transaction visibility:
  // all prepares of a round may run concurrently; commits are serialized.
  fl::DagRoundResult prepare(int handle);
  dag::TxId commit(int handle, const fl::DagRoundResult& result, std::size_t round);

  // True when fused multi-client execution applies: the default train config
  // enables it (train.batch > 0) and the model architecture is supported by
  // nn::BatchExecutor. Clients whose train config deviates from the default
  // fall back to the scalar path individually inside prepare_batch.
  bool batch_exec_enabled() const;

  // How both simulators prepare a group of steps: the batched counterpart of
  // prepare() over per-client step chains. chains[i] is a sequence of client
  // handles whose steps run in order against the current DAG snapshot (the
  // same handle may repeat within a chain — an async step batch). Walk
  // phases run per chain (parallel across chains on `pool` when given).
  // When batch_exec_enabled(), local training is fused across chains into
  // SoA groups of at most `train.batch` lanes, and each group then runs its
  // lanes' scalar gate evaluations on the same pool worker; otherwise each
  // step runs prepare() whole. results[i][j] receives chains[i][j]'s round
  // result, bit-identical to calling prepare() in chain order.
  void prepare_batch(const std::vector<std::vector<int>>& chains,
                     std::vector<std::vector<fl::DagRoundResult>>& results, ThreadPool* pool);

  // The client's personalized consensus model: the tip its biased walk
  // converges to.
  dag::TxId consensus_reference(int handle);
  nn::WeightVector consensus_weights(int handle);

  // Every client's consensus model evaluated on that client's test data, in
  // handle order. Runs each client's consensus walk (advancing its rng) and
  // evaluates the payload in place on a leased replica.
  std::vector<fl::EvalResult> evaluate_consensus_all();

  // Must be called for a client whose local data changed (e.g. poisoning).
  void invalidate_client_cache(int handle);

  // Per-client walk visibility (see fl::DagClient::set_visibility_mask).
  void set_visibility_mask(int handle, tipsel::VisibilityMask mask);

  const dag::Dag& dag() const { return dag_; }
  dag::Dag& dag() { return dag_; }
  fl::DagClient& client(int handle);

  // The sharded evaluation cache shared by every registered client.
  const std::shared_ptr<store::ShardedEvalCache>& eval_cache() const { return eval_cache_; }

  // The model replicas every client leases for training and evaluation.
  // Grows to the peak number of concurrent leases, not the client count.
  nn::ReplicaPool& replicas() { return replicas_; }

 private:
  fl::DagClientConfig default_config_;
  Rng root_rng_;
  dag::Dag dag_;
  std::shared_ptr<store::ShardedEvalCache> eval_cache_;
  bool arch_supported_ = false;
  nn::ReplicaPool replicas_;
  // Fused executors (SoA buffers are expensive to regrow): a group task
  // leases one for its training pass.
  nn::LeasePool<nn::BatchExecutor> executors_;
  // After the pools: clients hold a pointer to replicas_ and die first.
  std::vector<std::unique_ptr<fl::DagClient>> clients_;
};

}  // namespace specdag::core
