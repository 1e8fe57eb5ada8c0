// A Specializing-DAG client (paper §4, Figure 1). Each round the client:
//   1. runs the biased random walk twice to select two tips,
//   2. averages the two tip models,
//   3. trains the averaged model on its local data,
//   4. obtains a consensus/reference model via another biased walk and
//      publishes its trained model only if it performs at least as well on
//      the local test data.
#pragma once

#include <memory>

#include "dag/dag.hpp"
#include "data/dataset.hpp"
#include "fl/evaluation.hpp"
#include "fl/trainer.hpp"
#include "nn/lease_pool.hpp"
#include "tipsel/tip_selector.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::fl {

enum class SelectorKind {
  kAccuracy,  // the paper's contribution
  kRandom,    // "random tip selector" baseline (poisoning experiments)
  kWeighted,  // classic cumulative-weight Tangle walk
};

struct DagClientConfig {
  TrainConfig train;
  SelectorKind selector = SelectorKind::kAccuracy;
  double alpha = 10.0;
  tipsel::Normalization normalization = tipsel::Normalization::kStandard;
  std::size_t num_parents = 2;
  // Where walks begin: at genesis (default — specialization emerges from the
  // bias alone) or at a depth-sampled transaction 15-25 behind the tips
  // (bounds the walk cost; used by the §5.3.5 scalability measurements).
  tipsel::WalkStart walk_start = tipsel::WalkStart::kGenesis;
  std::size_t start_depth_min = 15;
  std::size_t start_depth_max = 25;
  // Publish gate (paper §4.1). If disabled the client always publishes
  // (ablation). `publish_if_equal` avoids stalling once accuracies saturate.
  bool publish_gate = true;
  bool publish_if_equal = true;
  // Walks used to find the consensus/reference model: the best-performing
  // tip (on local test data) of `reference_walks` independent walks. 1 is
  // the paper's plain semantics; 3+ hardens the publish gate against
  // attackers that shade tips with junk transactions (a single reference
  // walk forced into junk would otherwise wave every update through).
  std::size_t reference_walks = 1;
  // Reuse model evaluations across rounds (safe: payloads and local data are
  // immutable). Disable to reproduce the paper's walk-cost measurements.
  bool persistent_accuracy_cache = true;
};

struct DagRoundResult {
  int client_id = -1;
  dag::TxId published = dag::kInvalidTx;   // kInvalidTx if the gate rejected
  std::vector<dag::TxId> parents;          // the approved tips
  dag::TxId reference = dag::kInvalidTx;   // consensus transaction used by the gate
  dag::WeightsPtr trained_weights;         // payload of the prepared transaction
  // Average of the parents' payloads — the training start point. Kept so a
  // commit can hand the payload store its delta-encode base instead of the
  // store re-materializing and re-averaging the parents.
  dag::WeightsPtr averaged_base;
  EvalResult trained_eval;                 // trained model on local test data
  EvalResult reference_eval;               // reference model on local test data
  double train_loss = 0.0;
  tipsel::WalkStats walk_stats;            // aggregated over all walks this round
  // Wall time inside local SGD and inside the out-of-walk model evaluations
  // (trained + reference + reference-walk candidates). Walk-internal
  // evaluation time is part of walk_stats.seconds. Feeds sim::PhaseTimings.
  double train_seconds = 0.0;
  double eval_seconds = 0.0;

  bool did_publish() const { return published != dag::kInvalidTx; }

  // The publish gate's verdict (used by simulators that defer the commit,
  // e.g. under delayed transaction visibility).
  bool passes_gate(bool publish_if_equal) const {
    return publish_if_equal ? trained_eval.accuracy >= reference_eval.accuracy
                            : trained_eval.accuracy > reference_eval.accuracy;
  }
};

// Intermediate state of a round after the walk phases but before training.
// Produced by DagClient::prepare_walks so a batched executor can fuse the
// local training of many clients: training from `averaged` with `train_rng`
// and then DagClient::evaluate_gate completes the round bit-identically to
// prepare_round.
struct WalkPhase {
  DagRoundResult result;              // parents/reference/walk_stats filled
  nn::WeightVector averaged;          // training start point (tip average)
  dag::WeightsPtr reference_weights;  // payload of `result.reference`
  Rng train_rng{0};                   // consumed by local batch sampling
};

class DagClient {
 public:
  // `client` and `replicas` must outlive the DagClient. The client owns no
  // model: it leases a replica from `replicas` for each training or
  // evaluation and loads the weights into it first, so replicas carry no
  // client state and many clients share a few. `shared_cache` (optional) is
  // a view into the simulation-wide sharded evaluation cache
  // (store::ClientEvalCacheView); without one the client falls back to a
  // private per-transaction map. Either way the cache is only consulted
  // when `config.persistent_accuracy_cache` is set.
  DagClient(const data::ClientData* client, nn::ReplicaPool& replicas, DagClientConfig config,
            Rng rng, std::shared_ptr<tipsel::AccuracyCache> shared_cache = nullptr);

  // Executes steps 1-4. Mutates only the client's own state; `publish` on
  // the DAG happens through the returned result when the caller commits it
  // (see commit_round), so a simulator can model transaction visibility.
  DagRoundResult prepare_round(const dag::Dag& dag);

  // The walk-only phases of prepare_round: tip selection, payload averaging,
  // the train_rng fork, and the reference walk. Local training consumes only
  // the forked train_rng (never rng_ or the accuracy cache), so running the
  // reference walk before training draws exactly the same random sequence as
  // prepare_round — results stay bit-identical. prepare_round itself is a
  // thin wrapper over this, scalar training and evaluate_gate; batched
  // executors fuse the training across many clients instead.
  WalkPhase prepare_walks(const dag::Dag& dag);

  // Publish gate inputs (paper §4.1): evaluates the trained weights of
  // `result` and `reference_weights` on the local test data, filling
  // trained_eval, reference_eval and eval_seconds. Leases its own replica.
  // prepare_round and fused training (which skips prepare_round's scalar
  // train) both finish a round through this.
  void evaluate_gate(DagRoundResult& result, const nn::WeightVector& reference_weights) const;

  // Appends the prepared transaction to the DAG if the gate passed.
  // Returns the published id (or kInvalidTx).
  dag::TxId commit_round(dag::Dag& dag, const DagRoundResult& result, std::size_t round);

  // Convenience: prepare + commit in one step (asynchronous deployment mode).
  DagRoundResult run_round(dag::Dag& dag, std::size_t round);

  // Invalidate cached model evaluations (required after the client's local
  // data changes, e.g. a poisoning attack at round 100).
  void invalidate_cache();

  // Restricts this client's walks to the masked subgraph of the shared DAG
  // (empty mask = full visibility). Simulators use this to model network
  // partitions: during a partition a client only sees its own group's new
  // transactions.
  void set_visibility_mask(tipsel::VisibilityMask mask);

  const data::ClientData& client() const { return *client_; }
  const DagClientConfig& config() const { return config_; }

  // Consensus model for this client: tip reached by its biased walk.
  dag::TxId consensus_reference(const dag::Dag& dag);

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  std::unique_ptr<tipsel::TipSelector> make_selector();
  double evaluate_payload(const nn::WeightVector& weights);

  const data::ClientData* client_;
  nn::ReplicaPool* replicas_;
  DagClientConfig config_;
  Rng rng_;
  std::shared_ptr<tipsel::AccuracyCache> cache_;
  std::unique_ptr<tipsel::TipSelector> selector_;
};

}  // namespace specdag::fl
