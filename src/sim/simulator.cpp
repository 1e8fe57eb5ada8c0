#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace specdag::sim {

double RoundRecord::mean_trained_accuracy() const {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : results) sum += r.trained_eval.accuracy;
  return sum / static_cast<double>(results.size());
}

std::size_t RoundRecord::publish_count() const {
  std::size_t count = 0;
  for (const auto& r : results) {
    if (r.did_publish()) ++count;
  }
  return count;
}

DagSimulator::DagSimulator(data::FederatedDataset dataset, nn::ModelFactory factory,
                           SimulatorConfig config)
    : ClientPopulation(std::move(dataset), std::move(factory), config.client, config.seed,
                       config.store),
      config_(config),
      round_rng_(Rng(config.seed).fork(0x520D)) {
  if (config_.clients_per_round == 0 || config_.clients_per_round > dataset_.clients.size()) {
    throw std::invalid_argument("DagSimulator: bad clients_per_round");
  }
  // threads == 0: one worker per hardware thread (ThreadPool's convention);
  // threads == 1 means no pool: prepare_batch runs on the calling thread.
  if (config_.parallel_prepare && config_.threads != 1) {
    pool_.emplace(config_.threads, "prepare");
  }
}

void DagSimulator::set_client_active(int client, bool active) {
  active_[client_index(client)] = active ? 1 : 0;
}

void DagSimulator::begin_partition(std::vector<int> group_of_client) {
  begin_partition_at(std::move(group_of_client), round_);
}

void DagSimulator::flush_due_commits() {
  std::vector<PendingCommit> still_pending;
  // Pending commits are already in deterministic (insertion) order.
  for (auto& pending : pending_) {
    if (pending.release_round <= round_) {
      commit(pending.handle, pending.result, pending.publish_round);
    } else {
      still_pending.push_back(std::move(pending));
    }
  }
  pending_ = std::move(still_pending);
}

const RoundRecord& DagSimulator::run_round() {
  obs::ScopedSpan round_span(obs::Phase::kRound, {{"round", round_}});
  if (config_.visibility_delay_rounds > 0) flush_due_commits();
  // Sample among the currently active clients (churn support). With everyone
  // active this draws exactly the same indices as sampling [0, n) directly,
  // so pre-churn histories stay bit-identical to the original simulator.
  std::vector<std::size_t> pool;
  pool.reserve(dataset_.clients.size());
  for (std::size_t i = 0; i < active_.size(); ++i) {
    if (active_[i]) pool.push_back(i);
  }
  if (pool.empty()) throw std::logic_error("DagSimulator: no active clients");
  const std::size_t draw = std::min(config_.clients_per_round, pool.size());
  std::vector<std::size_t> active = round_rng_.sample_without_replacement(pool.size(), draw);
  for (std::size_t& idx : active) idx = pool[idx];

  RoundRecord record;
  record.round = round_;
  record.results.resize(active.size());

  // Prepare phase: all active clients walk/train against the same DAG
  // snapshot (transactions of this round become visible next round), each
  // a chain of one step. prepare_batch fuses their training when the
  // executor is enabled (bit-identical to the per-client path).
  std::vector<std::vector<int>> chains(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) chains[i] = {static_cast<int>(active[i])};
  std::vector<std::vector<fl::DagRoundResult>> prepared;
  net_.prepare_batch(chains, prepared, pool_ ? &*pool_ : nullptr);
  for (std::size_t i = 0; i < active.size(); ++i) record.results[i] = prepared[i][0];

  prepares_ += record.results.size();

  // Commit phase: deterministic order (ascending client index). With a
  // visibility delay the prepared transactions are queued instead and enter
  // the DAG `visibility_delay_rounds` rounds later (their `published` id in
  // the record stays invalid — the publisher cannot observe it yet either).
  std::vector<std::size_t> order(active.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return active[a] < active[b]; });
  for (std::size_t i : order) {
    if (config_.visibility_delay_rounds == 0) {
      record.results[i].published = commit(static_cast<int>(active[i]), prepared[i][0], round_);
    } else {
      pending_.push_back({static_cast<int>(active[i]), std::move(prepared[i][0]), round_,
                          round_ + config_.visibility_delay_rounds});
    }
  }

  ++round_;
  if (!config_.keep_history) history_.clear();
  history_.push_back(std::move(record));
  return history_.back();
}

void DagSimulator::run_rounds(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_round();
}

}  // namespace specdag::sim
