// Round-based simulator (paper §5.3: "For simplicity, we simulate the
// distributed training process in discrete rounds").
//
// Each round, `clients_per_round` clients are sampled; they prepare their
// transactions concurrently against the same DAG snapshot (this models the
// paper's concurrently-active clients, the driver of the Figure 15
// scalability result) and the prepared transactions are committed at the
// end of the round in deterministic order.
#pragma once

#include <optional>

#include "sim/population.hpp"
#include "util/thread_pool.hpp"

namespace specdag::sim {

struct SimulatorConfig {
  fl::DagClientConfig client;
  // Read by no simulator: callers choose how many rounds to run. Kept only
  // because the benchmark harness (perfbench/harness.cpp) assigns it.
  std::size_t rounds = 100;
  std::size_t clients_per_round = 10;
  bool parallel_prepare = true;
  // Worker threads for the parallel prepare phase. 0 = one per hardware
  // thread; 1 = serial (equivalent to parallel_prepare = false). Results
  // are bit-identical across thread counts: prepares are independent and
  // commits stay serialized in client order.
  std::size_t threads = 0;
  // Network propagation model: transactions published in round r become
  // visible to other clients' walks in round r + delay. 0 models the
  // paper's "ideal network conditions"; larger values simulate slow
  // broadcast (the §5.3.5 caveat).
  std::size_t visibility_delay_rounds = 0;
  std::uint64_t seed = 42;
  // Payload store configuration (delta encoding, LRU, eval-cache shards).
  store::StoreConfig store;
  // Keep every RoundRecord (with its full trained payloads) in history().
  // Disable for long/large runs that only consume run_round()'s return
  // value — only the latest round is retained then.
  bool keep_history = true;
};

struct RoundRecord {
  // Note: with SimulatorConfig::keep_history disabled, the RoundRecord&
  // returned by run_round() is only valid until the next run_round() call
  // (only the latest record is retained).
  std::size_t round = 0;
  std::vector<fl::DagRoundResult> results;  // one per active client

  double mean_trained_accuracy() const;
  std::size_t publish_count() const;
};

class DagSimulator : public ClientPopulation {
 public:
  // The simulator owns the dataset (poisoning mutates client shards
  // mid-experiment) and registers one DAG client per dataset client.
  DagSimulator(data::FederatedDataset dataset, nn::ModelFactory factory, SimulatorConfig config);

  // Runs one round and records it. Returns the record.
  const RoundRecord& run_round();

  // Runs `n` rounds.
  void run_rounds(std::size_t n);

  // --- network-dynamics hooks (scenario engine) ---------------------------

  // Client churn: inactive clients are excluded from the per-round sample
  // (they "left the network"); reactivating models a rejoin. When fewer than
  // `clients_per_round` clients are active, all active clients run.
  void set_client_active(int client, bool active);

  // Network partition: clients in different groups stop seeing each other's
  // *new* transactions (anything published before the partition was already
  // broadcast and stays visible). `group_of_client` must assign one group
  // per client. heal_partition() restores full visibility for everyone.
  void begin_partition(std::vector<int> group_of_client);

  const std::vector<RoundRecord>& history() const { return history_; }
  std::size_t current_round() const { return round_; }

  // Worker threads the prepare phase actually uses (1 = serial).
  std::size_t prepare_threads() const { return pool_ ? pool_->size() : 1; }

  // Transactions prepared but not yet visible (visibility_delay_rounds > 0).
  std::size_t pending_transactions() const { return pending_.size(); }

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  struct PendingCommit {
    int handle;
    fl::DagRoundResult result;
    std::size_t publish_round;
    std::size_t release_round;
  };

  void flush_due_commits();

  SimulatorConfig config_;
  Rng round_rng_;
  std::optional<ThreadPool> pool_;
  std::vector<RoundRecord> history_;
  std::vector<PendingCommit> pending_;
  std::size_t round_ = 0;
};

}  // namespace specdag::sim
