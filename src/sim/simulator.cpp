#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace specdag::sim {

double RoundRecord::mean_trained_accuracy() const {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : results) sum += r.trained_eval.accuracy;
  return sum / static_cast<double>(results.size());
}

double RoundRecord::mean_trained_loss() const {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& r : results) sum += r.trained_eval.loss;
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
    : dataset_(std::move(dataset)),
      config_(config),
      net_(std::move(factory), config.client, config.seed, config.store),
      round_rng_(Rng(config.seed).fork(0x520D)),
      louvain_rng_(Rng(config.seed).fork(0x10CA)) {
  dataset_.validate();
  if (config_.clients_per_round == 0 || config_.clients_per_round > dataset_.clients.size()) {
    throw std::invalid_argument("DagSimulator: bad clients_per_round");
  }
  for (const auto& client : dataset_.clients) {
    net_.register_client(&client);
  }
  active_.assign(dataset_.clients.size(), 1);
  // threads == 0: one worker per hardware thread (ThreadPool's convention);
  // threads == 1 degenerates to the serial path — no pool at all.
  if (config_.parallel_prepare && config_.threads != 1) {
    pool_.emplace(config_.threads, "prepare");
  }
}

void DagSimulator::set_client_active(int client, bool active) {
  if (client < 0 || static_cast<std::size_t>(client) >= active_.size()) {
    throw std::out_of_range("DagSimulator: unknown client " + std::to_string(client));
  }
  active_[static_cast<std::size_t>(client)] = active ? 1 : 0;
}

bool DagSimulator::client_active(int client) const {
  if (client < 0 || static_cast<std::size_t>(client) >= active_.size()) {
    throw std::out_of_range("DagSimulator: unknown client " + std::to_string(client));
  }
  return active_[static_cast<std::size_t>(client)] != 0;
}

std::size_t DagSimulator::active_client_count() const {
  std::size_t count = 0;
  for (char a : active_) count += a != 0;
  return count;
}

void DagSimulator::begin_partition(std::vector<int> group_of_client) {
  if (group_of_client.size() != dataset_.clients.size()) {
    throw std::invalid_argument("DagSimulator::begin_partition: group count mismatch");
  }
  const auto groups = std::make_shared<const std::vector<int>>(std::move(group_of_client));
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.set_visibility_mask(
        static_cast<int>(i), tipsel::make_group_visibility_mask(groups, (*groups)[i], round_));
  }
  partition_groups_ = groups;
  partition_start_round_ = round_;
  partitioned_ = true;
}

void DagSimulator::heal_partition() {
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.set_visibility_mask(static_cast<int>(i), nullptr);
  }
  partition_groups_.reset();
  partition_start_round_ = 0;
  partitioned_ = false;
}

void DagSimulator::flush_due_commits() {
  std::vector<PendingCommit> still_pending;
  {
    ScopedCommitTimer commit_timer(net_.dag().store(), perf_);
    // Pending commits are already in deterministic (insertion) order.
    for (auto& pending : pending_) {
      if (pending.release_round <= round_) {
        if (net_.commit(pending.handle, pending.result, pending.publish_round) !=
            dag::kInvalidTx) {
          ++perf_.commits;
        }
      } else {
        still_pending.push_back(std::move(pending));
      }
    }
  }
  pending_ = std::move(still_pending);
}

const RoundRecord& DagSimulator::run_round() {
  obs::ScopedSpan round_span("round", {{"round", round_}});
  Timer round_timer;
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
  for (std::size_t i = 0; i < active.size(); ++i) {
    record.results[i] = std::move(prepared[i][0]);
  }

  // Phase accounting: tipsel/train/eval are summed over the prepared
  // clients (aggregate busy time under a parallel prepare).
  for (const auto& result : record.results) {
    perf_.tipsel_seconds += result.walk_stats.seconds;
    perf_.train_seconds += result.train_seconds;
    perf_.eval_seconds += result.eval_seconds;
  }
  perf_.prepares += record.results.size();

  // Commit phase: deterministic order (ascending client index). With a
  // visibility delay the prepared transactions are queued instead and enter
  // the DAG `visibility_delay_rounds` rounds later (their `published` id in
  // the record stays invalid — the publisher cannot observe it yet either).
  std::vector<std::size_t> order(active.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return active[a] < active[b]; });
  {
    ScopedCommitTimer commit_timer(net_.dag().store(), perf_);
    for (std::size_t i : order) {
      if (config_.visibility_delay_rounds == 0) {
        obs::ScopedSpan span("commit", {{"round", round_}, {"client", active[i]}});
        record.results[i].published =
            net_.commit(static_cast<int>(active[i]), record.results[i], round_);
        span.arg("tx", static_cast<std::uint64_t>(record.results[i].published));
        if (record.results[i].did_publish()) ++perf_.commits;
      } else {
        pending_.push_back({static_cast<int>(active[i]), record.results[i], round_,
                            round_ + config_.visibility_delay_rounds});
      }
    }
  }

  ++round_;
  if (!config_.keep_history) history_.clear();
  history_.push_back(std::move(record));
  perf_.total_seconds += round_timer.elapsed_seconds();
  return history_.back();
}

void DagSimulator::run_rounds(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) run_round();
}

std::vector<int> DagSimulator::apply_poisoning(double p, int class_a, int class_b) {
  Rng poison_rng = Rng(config_.seed).fork(data::kPoisonForkTag);
  const std::vector<int> ids =
      data::poison_fraction(dataset_, p, class_a, class_b, poison_rng);
  poison_class_a_ = class_a;
  poison_class_b_ = class_b;
  // The poisoned clients' local data changed: cached model accuracies are
  // stale for them. (Other clients' caches stay valid — their data did not
  // change; new poisoned *transactions* are evaluated fresh anyway.)
  // Invalidate by dataset index — client handles are registration order, and
  // poison_fraction returns client_id values, which need not match.
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    if (dataset_.clients[i].poisoned) net_.invalidate_client_cache(static_cast<int>(i));
  }
  return ids;
}

void DagSimulator::revert_poisoning() {
  for (int idx : data::revert_poisoning(dataset_, poison_class_a_, poison_class_b_)) {
    net_.invalidate_client_cache(idx);
  }
}

std::vector<int> DagSimulator::true_clusters() const {
  std::vector<int> clusters;
  clusters.reserve(dataset_.clients.size());
  for (const auto& c : dataset_.clients) clusters.push_back(c.true_cluster);
  return clusters;
}

metrics::PurenessResult DagSimulator::approval_pureness() const {
  return metrics::approval_pureness(net_.dag(), true_clusters());
}

metrics::LouvainResult DagSimulator::louvain_communities() {
  const metrics::ClientGraph graph =
      metrics::build_client_graph(net_.dag(), dataset_.clients.size());
  return metrics::louvain(graph, louvain_rng_);
}

double DagSimulator::client_graph_modularity() {
  return louvain_communities().modularity;
}

}  // namespace specdag::sim
