#include "core/specializing_dag.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace specdag::core {
namespace {

nn::WeightVector make_genesis_weights(const nn::ModelFactory& factory, std::uint64_t seed) {
  nn::Sequential model = factory();
  Rng rng = Rng(seed).fork(0x6E6E);
  model.init_params(rng);
  return model.get_weights();
}

// A step can join a fused group only if its client trains exactly like the
// network default (fused lanes share one epoch/batch schedule and lr).
bool same_train_config(const fl::TrainConfig& a, const fl::TrainConfig& b) {
  return a.local_epochs == b.local_epochs && a.local_batches == b.local_batches &&
         a.batch_size == b.batch_size && a.learning_rate == b.learning_rate &&
         a.freeze_prefix_params == b.freeze_prefix_params;
}

}  // namespace

SpecializingDag::SpecializingDag(nn::ModelFactory factory, fl::DagClientConfig default_config,
                                 std::uint64_t seed, store::StoreConfig store_config)
    : default_config_(default_config),
      root_rng_(seed),
      dag_(make_genesis_weights(factory, seed), store_config),
      eval_cache_(std::make_shared<store::ShardedEvalCache>(store_config.eval_cache_shards)),
      arch_supported_(nn::BatchExecutor::architecture_supported(factory)),
      replicas_(nn::make_replica_pool(factory)),
      executors_([factory] { return std::make_unique<nn::BatchExecutor>(factory); }) {}

int SpecializingDag::register_client(const data::ClientData* client_data) {
  return register_client(client_data, default_config_);
}

int SpecializingDag::register_client(const data::ClientData* client_data,
                                     const fl::DagClientConfig& config) {
  const int handle = static_cast<int>(clients_.size());
  Rng client_rng = root_rng_.fork(0xC0DE0000ULL + static_cast<std::uint64_t>(handle));
  clients_.push_back(
      std::make_unique<fl::DagClient>(client_data, replicas_, config, client_rng, eval_cache_));
  return handle;
}

fl::DagClient& SpecializingDag::client(int handle) {
  if (handle < 0 || static_cast<std::size_t>(handle) >= clients_.size()) {
    throw std::out_of_range("SpecializingDag: unknown client handle");
  }
  return *clients_[static_cast<std::size_t>(handle)];
}

fl::DagRoundResult SpecializingDag::client_step(int handle, std::size_t round) {
  return client(handle).run_round(dag_, round);
}

dag::TxId SpecializingDag::commit(int handle, const fl::DagRoundResult& result,
                                  std::size_t round) {
  return client(handle).commit_round(dag_, result, round);
}

bool SpecializingDag::batch_exec_enabled() const {
  return arch_supported_ && default_config_.train.batch > 0;
}

void SpecializingDag::prepare_batch(const std::vector<std::vector<int>>& chains,
                                    std::vector<std::vector<fl::DagRoundResult>>& results,
                                    ThreadPool* pool) {
  results.assign(chains.size(), {});
  for (std::size_t i = 0; i < chains.size(); ++i) results[i].resize(chains[i].size());

  // Per-step context surviving phase A for the fused finish.
  struct StepCtx {
    nn::WeightVector averaged;
    dag::WeightsPtr reference_weights;
    Rng train_rng{0};
    bool fused = false;
  };
  std::vector<std::vector<StepCtx>> ctxs(chains.size());
  for (std::size_t i = 0; i < chains.size(); ++i) ctxs[i].resize(chains[i].size());

  const bool fuse = batch_exec_enabled();

  // Phase A — walks. Chains are independent (distinct or sequential client
  // state); steps within a chain run in event order, exactly like the scalar
  // path. Steps that cannot fuse (deviating train config, or fusing
  // disabled) complete their whole round here instead.
  const auto walk_chain = [&](std::size_t i) {
    for (std::size_t j = 0; j < chains[i].size(); ++j) {
      fl::DagClient& c = client(chains[i][j]);
      if (fuse && same_train_config(c.config().train, default_config_.train)) {
        fl::WalkPhase phase = c.prepare_walks(dag_);
        results[i][j] = std::move(phase.result);
        StepCtx& ctx = ctxs[i][j];
        ctx.averaged = std::move(phase.averaged);
        ctx.reference_weights = std::move(phase.reference_weights);
        ctx.train_rng = phase.train_rng;
        ctx.fused = true;
      } else {
        obs::ScopedSpan span(
            "prepare", {{"client", static_cast<std::uint64_t>(c.client().client_id)}});
        results[i][j] = c.prepare_round(dag_);
      }
    }
  };
  if (pool != nullptr && chains.size() > 1) {
    pool->parallel_for(chains.size(), walk_chain);
  } else {
    for (std::size_t i = 0; i < chains.size(); ++i) walk_chain(i);
  }

  // Fused steps in deterministic chain-major order — the grouping depends
  // only on the chain layout, never on thread scheduling.
  std::vector<std::pair<std::size_t, std::size_t>> fused;
  for (std::size_t i = 0; i < chains.size(); ++i) {
    for (std::size_t j = 0; j < chains[i].size(); ++j) {
      if (ctxs[i][j].fused) fused.emplace_back(i, j);
    }
  }
  if (fused.empty()) return;

  static obs::Counter& batches_counter = obs::Registry::counter("train.batches");
  static obs::Counter& lanes_counter = obs::Registry::counter("train.fused_lanes");

  // Phases B/C — fused training in groups of at most train.batch lanes, then
  // each lane's scalar gate evaluation. Groups pipeline across pool workers:
  // one group evaluates while the next trains.
  const std::size_t max_lanes = std::max<std::size_t>(1, default_config_.train.batch);
  const std::size_t num_groups = (fused.size() + max_lanes - 1) / max_lanes;
  const auto run_group = [&](std::size_t g) {
    const std::size_t begin = g * max_lanes;
    const std::size_t end = std::min(begin + max_lanes, fused.size());
    const std::size_t nlanes = end - begin;
    const nn::LeasePool<nn::BatchExecutor>::Lease exec = executors_.acquire();
    std::vector<fl::BatchTrainLane> lanes(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const auto [i, j] = fused[begin + l];
      lanes[l].client = &client(chains[i][j]).client();
      lanes[l].start = &ctxs[i][j].averaged;
      lanes[l].rng = &ctxs[i][j].train_rng;
    }
    {
      obs::ScopedSpan span(obs::Phase::kExecTrain,
                           {{"lanes", static_cast<std::uint64_t>(nlanes)}});
      fl::train_local_batched(*exec, lanes, default_config_.train);
    }
    batches_counter.add();
    lanes_counter.add(nlanes);
    for (std::size_t l = 0; l < nlanes; ++l) {
      const auto [i, j] = fused[begin + l];
      fl::DagRoundResult& r = results[i][j];
      r.train_loss = lanes[l].train_loss;
      r.trained_weights =
          std::make_shared<const nn::WeightVector>(std::move(lanes[l].trained));
      // The executor copied the start weights in; the vector is free to ride
      // along as the commit's delta-encode base, like the scalar path's.
      r.averaged_base =
          std::make_shared<const nn::WeightVector>(std::move(ctxs[i][j].averaged));
      client(chains[i][j]).evaluate_gate(r, *ctxs[i][j].reference_weights);
    }
  };
  if (pool != nullptr && num_groups > 1) {
    pool->parallel_for(num_groups, run_group);
  } else {
    for (std::size_t g = 0; g < num_groups; ++g) run_group(g);
  }
}

dag::TxId SpecializingDag::consensus_reference(int handle) {
  return client(handle).consensus_reference(dag_);
}

nn::WeightVector SpecializingDag::consensus_weights(int handle) {
  return *dag_.weights(consensus_reference(handle));
}

std::vector<fl::EvalResult> SpecializingDag::evaluate_consensus_all() {
  std::vector<fl::EvalResult> evals(clients_.size());
  for (std::size_t h = 0; h < clients_.size(); ++h) {
    const dag::WeightsPtr consensus = dag_.weights(consensus_reference(static_cast<int>(h)));
    // Leased after the walk, which leases its own for accuracy-biased steps.
    const nn::ReplicaPool::Lease model = replicas_.acquire();
    evals[h] = fl::evaluate_weights_on_test(*model, *consensus, clients_[h]->client());
  }
  return evals;
}

void SpecializingDag::invalidate_client_cache(int handle) {
  client(handle).invalidate_cache();
}

void SpecializingDag::set_visibility_mask(int handle, tipsel::VisibilityMask mask) {
  client(handle).set_visibility_mask(std::move(mask));
}

}  // namespace specdag::core
