// The client population both simulators drive: the dataset, the network its
// clients are registered with, and the state the scenario engine mutates
// mid-run — churn flags, the partition record and label-flip poisoning.
// DagSimulator and AsyncDagSimulator differ only in how they schedule client
// steps, so they share this base instead of carrying the code twice.
#pragma once

#include <memory>
#include <vector>

#include "core/specializing_dag.hpp"
#include "data/dataset.hpp"
#include "metrics/dag_metrics.hpp"
#include "sim/perf.hpp"

namespace specdag::snapshot {
struct Access;
}

namespace specdag::sim {

class ClientPopulation {
 public:
  const dag::Dag& dag() const { return net_.dag(); }
  const data::FederatedDataset& dataset() const { return dataset_; }
  core::SpecializingDag& network() { return net_; }

  // Applies a flipped-label attack (class_a <-> class_b) to fraction `p` of
  // the clients, with a victim set derived from the seed, and invalidates
  // their accuracy caches (paper §5.3.4: attack starts after round 100).
  // Returns the poisoned client ids.
  std::vector<int> apply_poisoning(double p, int class_a, int class_b);

  // Reverts an earlier apply_poisoning: restores the original labels (the
  // swap is its own inverse), clears the poisoned flags, and invalidates the
  // affected caches again. Transactions published while poisoned keep their
  // poisoned_publisher mark — history is immutable.
  void revert_poisoning();

  // Churn flags: an inactive client has left the network.
  bool client_active(int client) const;
  std::size_t active_client_count() const;

  // Ends a partition (see the simulators' begin_partition): every client
  // sees the whole DAG again.
  void heal_partition() { install_partition(nullptr, 0); }
  bool partitioned() const { return partition_groups_ != nullptr; }

  std::vector<int> true_clusters() const { return dataset_.true_clusters(); }
  metrics::PurenessResult approval_pureness() const;

  // Step and commit counts, and the phase totals of the obs context the
  // simulator was built under (sim/perf.hpp) — one context per run.
  PhaseTimings perf() const { return PhaseTimings::from_obs(*obs_, prepares_, commits_); }

 protected:
  // Validates the dataset and registers one DAG client per dataset client,
  // all active.
  ClientPopulation(data::FederatedDataset dataset, nn::ModelFactory factory,
                   const fl::DagClientConfig& client, std::uint64_t seed,
                   const store::StoreConfig& store);

  // The dataset index of `client`; throws std::out_of_range if unknown.
  std::size_t client_index(int client) const;

  // Appends a prepared transaction into the DAG under a commit span.
  dag::TxId commit(int client, const fl::DagRoundResult& result, std::size_t round);

  // Starts a partition: clients in different groups stop seeing each
  // other's transactions committed from `start_round` on.
  void begin_partition_at(std::vector<int> group_of_client, std::size_t start_round);

  data::FederatedDataset dataset_;
  core::SpecializingDag net_;
  std::vector<char> active_;  // churn: 1 = participating
  std::size_t prepares_ = 0;  // client steps prepared
  std::size_t commits_ = 0;   // transactions appended through the simulator

 private:
  friend struct snapshot::Access;  // checkpoint serialization (src/snapshot)

  // Records the partition and rebuilds every client's visibility mask from
  // it (null groups = no partition). The masks bake the start round, so a
  // checkpoint restore rebuilds them from this record, not from the spec.
  void install_partition(std::shared_ptr<const std::vector<int>> groups,
                         std::size_t start_round);

  const obs::Context* obs_ = &obs::Context::current();
  std::uint64_t seed_;
  std::shared_ptr<const std::vector<int>> partition_groups_;
  std::size_t partition_start_round_ = 0;
  int poison_class_a_ = 0;  // classes of the last apply_poisoning (for revert)
  int poison_class_b_ = 0;
};

}  // namespace specdag::sim
