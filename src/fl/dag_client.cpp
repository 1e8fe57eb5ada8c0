#include "fl/dag_client.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace specdag::fl {

DagClient::DagClient(const data::ClientData* client, nn::ReplicaPool& replicas,
                     DagClientConfig config, Rng rng,
                     std::shared_ptr<store::ShardedEvalCache> cache)
    : client_(client),
      replicas_(&replicas),
      config_(config),
      rng_(rng),
      cache_(config.persistent_accuracy_cache ? std::move(cache) : nullptr) {
  if (client_ == nullptr) throw std::invalid_argument("DagClient: null client data");
  if (config_.persistent_accuracy_cache && !cache_) {
    throw std::invalid_argument("DagClient: persistent_accuracy_cache needs a cache");
  }
  if (config_.num_parents == 0) throw std::invalid_argument("DagClient: zero parents");
  if (client_->num_test() == 0) {
    throw std::invalid_argument("DagClient: client needs test data for the biased walk");
  }
  selector_ = make_selector();
}

double DagClient::evaluate_payload(const nn::WeightVector& weights) {
  const nn::ReplicaPool::Lease model = replicas_->acquire();
  return accuracy_on_test(*model, weights, *client_);
}

std::unique_ptr<tipsel::TipSelector> DagClient::make_selector() {
  std::unique_ptr<tipsel::TipSelector> selector;
  switch (config_.selector) {
    case SelectorKind::kAccuracy:
      selector = std::make_unique<tipsel::AccuracyTipSelector>(
          config_.alpha, config_.normalization,
          [this](const nn::WeightVector& w) { return evaluate_payload(w); }, cache_,
          client_->client_id);
      break;
    case SelectorKind::kRandom:
      selector = std::make_unique<tipsel::RandomTipSelector>();
      break;
    case SelectorKind::kWeighted:
      selector = std::make_unique<tipsel::WeightedTipSelector>(config_.alpha);
      break;
  }
  selector->set_walk_start(config_.walk_start);
  selector->set_start_depth(config_.start_depth_min, config_.start_depth_max);
  return selector;
}

void DagClient::invalidate_cache() {
  if (cache_) cache_->invalidate_client(client_->client_id);
}

void DagClient::set_visibility_mask(tipsel::VisibilityMask mask) {
  selector_->set_visibility_mask(std::move(mask));
}

dag::TxId DagClient::consensus_reference(const dag::Dag& dag) {
  const std::size_t walks = std::max<std::size_t>(1, config_.reference_walks);
  dag::TxId best = dag::kInvalidTx;
  double best_accuracy = -1.0;
  for (std::size_t w = 0; w < walks; ++w) {
    const std::vector<dag::TxId> tips = selector_->select_tips(dag, 1, rng_);
    const dag::TxId tip = tips.front();
    if (walks == 1) return tip;
    const double accuracy = evaluate_payload(*dag.weights(tip));
    if (accuracy > best_accuracy) {
      best_accuracy = accuracy;
      best = tip;
    }
  }
  return best;
}

WalkPhase DagClient::prepare_walks(const dag::Dag& dag) {
  WalkPhase phase;
  DagRoundResult& result = phase.result;
  result.client_id = client_->client_id;

  // 1. Biased random walk selects the tips to approve.
  {
    obs::ScopedSpan span(obs::Phase::kTipsel,
                         {{"client", static_cast<std::uint64_t>(client_->client_id)}});
    result.parents = selector_->select_tips(dag, config_.num_parents, rng_);
    result.walk_stats = selector_->last_stats();
  }

  // 2. Average the selected models. (A single parent — duplicate walks — is
  //    a plain continuation of that model.)
  std::vector<dag::WeightsPtr> payloads;
  std::vector<const nn::WeightVector*> ptrs;
  for (dag::TxId tip : result.parents) {
    payloads.push_back(dag.weights(tip));
    ptrs.push_back(payloads.back().get());
  }
  phase.averaged = nn::average_weights(ptrs);

  // 3. Deterministic fork for local batch sampling. `fork` is a pure
  //    function of the root seed — it does not advance rng_ — so the fork's
  //    position relative to the reference walk is immaterial.
  phase.train_rng = rng_.fork(0x7EA10000ULL + dag.size());

  // 4. Reference walk for the publish gate (paper §4.1).
  {
    obs::ScopedSpan span(obs::Phase::kTipselReference,
                         {{"client", static_cast<std::uint64_t>(client_->client_id)}});
    result.reference = consensus_reference(dag);
  }
  const tipsel::WalkStats ref_stats = selector_->last_stats();
  result.walk_stats.steps += ref_stats.steps;
  result.walk_stats.evaluations += ref_stats.evaluations;
  phase.reference_weights = dag.weights(result.reference);
  return phase;
}

DagRoundResult DagClient::prepare_round(const dag::Dag& dag) {
  WalkPhase phase = prepare_walks(dag);
  DagRoundResult result = std::move(phase.result);

  // Train the averaged model on local data.
  {
    const nn::ReplicaPool::Lease model = replicas_->acquire();
    model->set_weights(phase.averaged);
    {
      obs::ScopedSpan span(obs::Phase::kTrain,
                           {{"client", static_cast<std::uint64_t>(client_->client_id)}});
      result.train_loss = train_local_sgd(*model, *client_, config_.train, phase.train_rng);
    }
    result.trained_weights = std::make_shared<const nn::WeightVector>(model->get_weights());
  }
  result.averaged_base = std::make_shared<const nn::WeightVector>(std::move(phase.averaged));
  evaluate_gate(result, *phase.reference_weights);
  return result;
}

void DagClient::evaluate_gate(DagRoundResult& result,
                              const nn::WeightVector& reference_weights) const {
  const nn::ReplicaPool::Lease model = replicas_->acquire();
  const auto evaluate = [&](const nn::WeightVector& weights, EvalResult& out) {
    obs::ScopedSpan span(obs::Phase::kEval,
                         {{"client", static_cast<std::uint64_t>(client_->client_id)}});
    out = evaluate_weights_on_test(*model, weights, *client_);
  };
  evaluate(*result.trained_weights, result.trained_eval);
  evaluate(reference_weights, result.reference_eval);
}

dag::TxId DagClient::commit_round(dag::Dag& dag, const DagRoundResult& result,
                                  std::size_t round) {
  if (!result.trained_weights) {
    throw std::logic_error("DagClient::commit_round: no prepared round");
  }
  if (config_.publish_gate && !result.passes_gate(config_.publish_if_equal)) {
    return dag::kInvalidTx;
  }
  return dag.add_transaction(result.parents, result.trained_weights, client_->client_id,
                             round, client_->poisoned, result.averaged_base);
}

DagRoundResult DagClient::run_round(dag::Dag& dag, std::size_t round) {
  DagRoundResult result = prepare_round(dag);
  result.published = commit_round(dag, result, round);
  return result;
}

}  // namespace specdag::fl
