#include "sim/population.hpp"

#include <stdexcept>
#include <string>

#include "data/poisoning.hpp"
#include "obs/trace.hpp"

namespace specdag::sim {

ClientPopulation::ClientPopulation(data::FederatedDataset dataset, nn::ModelFactory factory,
                                   const fl::DagClientConfig& client, std::uint64_t seed,
                                   const store::StoreConfig& store)
    : dataset_(std::move(dataset)), net_(std::move(factory), client, seed, store), seed_(seed) {
  dataset_.validate();
  for (const auto& c : dataset_.clients) net_.register_client(&c);
  active_.assign(dataset_.clients.size(), 1);
}

dag::TxId ClientPopulation::commit(int client, const fl::DagRoundResult& result,
                                   std::size_t round) {
  obs::ScopedSpan span(obs::Phase::kCommit,
                       {{"round", round}, {"client", static_cast<std::uint64_t>(client)}});
  const dag::TxId published = net_.commit(client, result, round);
  span.arg("tx", static_cast<std::uint64_t>(published));
  if (published != dag::kInvalidTx) ++commits_;
  return published;
}

std::size_t ClientPopulation::client_index(int client) const {
  if (client < 0 || static_cast<std::size_t>(client) >= active_.size()) {
    throw std::out_of_range("simulator: unknown client " + std::to_string(client));
  }
  return static_cast<std::size_t>(client);
}

bool ClientPopulation::client_active(int client) const {
  return active_[client_index(client)] != 0;
}

std::size_t ClientPopulation::active_client_count() const {
  std::size_t count = 0;
  for (char a : active_) count += a != 0;
  return count;
}

void ClientPopulation::begin_partition_at(std::vector<int> group_of_client,
                                          std::size_t start_round) {
  if (group_of_client.size() != dataset_.clients.size()) {
    throw std::invalid_argument("begin_partition: group count mismatch");
  }
  install_partition(std::make_shared<const std::vector<int>>(std::move(group_of_client)),
                    start_round);
}

void ClientPopulation::install_partition(std::shared_ptr<const std::vector<int>> groups,
                                         std::size_t start_round) {
  for (std::size_t i = 0; i < dataset_.clients.size(); ++i) {
    net_.set_visibility_mask(
        static_cast<int>(i),
        groups ? tipsel::make_group_visibility_mask(groups, (*groups)[i], start_round)
               : tipsel::VisibilityMask{});
  }
  partition_groups_ = std::move(groups);
  partition_start_round_ = partition_groups_ ? start_round : 0;
}

std::vector<int> ClientPopulation::apply_poisoning(double p, int class_a, int class_b) {
  Rng poison_rng = Rng(seed_).fork(data::kPoisonForkTag);
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

void ClientPopulation::revert_poisoning() {
  for (int idx : data::revert_poisoning(dataset_, poison_class_a_, poison_class_b_)) {
    net_.invalidate_client_cache(idx);
  }
}

metrics::PurenessResult ClientPopulation::approval_pureness() const {
  return metrics::approval_pureness(net_.dag(), true_clusters());
}

}  // namespace specdag::sim
