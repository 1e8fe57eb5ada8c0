// The lease pool behind model replicas and fused executors, and the two
// facts that let every DAG client share it:
//   - a leased replica carries no state from its last user, so a client's
//     round is bit-identical whichever replica it gets (LSTM, CNN and MLP);
//   - the number of replicas built follows the concurrent prepares, not the
//     client count.
// The LeasePool* and ReplicaLease* suites ride the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "data/poets.hpp"
#include "data/synthetic_digits.hpp"
#include "fl/dag_client.hpp"
#include "nn/lease_pool.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "sim/models.hpp"
#include "store/eval_cache.hpp"

namespace specdag {
namespace {

struct Counted {
  int uses = 0;                 // plain int: TSan flags two concurrent holders
  std::atomic<int> holders{0};  // the same check without TSan
};

nn::LeasePool<Counted> counted_pool() {
  return nn::LeasePool<Counted>([] { return std::make_unique<Counted>(); });
}

TEST(LeasePool, ReturnedObjectIsReusedBeforeBuildingAnother) {
  nn::LeasePool<Counted> pool = counted_pool();
  EXPECT_EQ(pool.built(), 0u);
  const Counted* first = nullptr;
  {
    const auto lease = pool.acquire();
    first = &*lease;
  }
  {
    const auto lease = pool.acquire();
    EXPECT_EQ(&*lease, first);
    const auto second = pool.acquire();  // the first is still leased
    EXPECT_NE(&*second, first);
  }
  EXPECT_EQ(pool.built(), 2u);
  auto moved_from = pool.acquire();
  const auto moved_to = std::move(moved_from);  // one return, not two
  EXPECT_EQ(pool.built(), 2u);
}

TEST(LeasePool, ConcurrentLeasesAreExclusiveAndBoundedByThreads) {
  nn::LeasePool<Counted> pool = counted_pool();
  constexpr int kThreads = 4;
  constexpr int kLeases = 500;
  std::atomic<int> overlaps{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kLeases; ++i) {
        const auto lease = pool.acquire();
        if (lease->holders.fetch_add(1) != 0) overlaps.fetch_add(1);
        ++lease->uses;
        lease->holders.fetch_sub(1);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_GE(pool.built(), 1u);
  EXPECT_LE(pool.built(), static_cast<std::size_t>(kThreads));
  // Every lease went back: the idle list holds all built objects.
  std::vector<nn::LeasePool<Counted>::Lease> drained;
  int uses = 0;
  for (std::size_t i = 0; i < pool.built(); ++i) {
    drained.push_back(pool.acquire());
    uses += drained.back()->uses;
  }
  EXPECT_EQ(uses, kThreads * kLeases);
}

bool same_bits(const nn::WeightVector& a, const nn::WeightVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void expect_same_round(const fl::DagRoundResult& a, const fl::DagRoundResult& b) {
  ASSERT_TRUE(a.trained_weights && b.trained_weights);
  EXPECT_TRUE(same_bits(*a.trained_weights, *b.trained_weights));
  EXPECT_EQ(a.train_loss, b.train_loss);
  EXPECT_EQ(a.trained_eval.accuracy, b.trained_eval.accuracy);
  EXPECT_EQ(a.trained_eval.loss, b.trained_eval.loss);
  EXPECT_EQ(a.reference_eval.accuracy, b.reference_eval.accuracy);
  EXPECT_EQ(a.reference_eval.loss, b.reference_eval.loss);
  EXPECT_EQ(a.parents, b.parents);
}

// Client A's round on the replica client B just trained on equals A's round
// on a replica nobody has used. Sgd::step zeroes the gradients and no layer
// keeps state across calls, so the lease's history cannot leak in.
void check_lease_carries_no_state(const nn::ModelFactory& factory,
                                  const data::FederatedDataset& ds) {
  nn::Sequential genesis = factory();
  Rng init(7);
  genesis.init_params(init);
  dag::Dag dag(genesis.get_weights());
  // A few transactions so the walks evaluate real candidates.
  Rng noise(8);
  for (int t = 0; t < 3; ++t) {
    nn::WeightVector w = genesis.get_weights();
    for (float& v : w) v += 0.05f * static_cast<float>(noise.normal());
    dag.add_transaction({dag::kGenesisTx}, std::make_shared<const nn::WeightVector>(w),
                        /*client=*/t, /*round=*/1);
  }
  fl::DagClientConfig config;
  config.train = {1, 3, 8, 0.1};

  // Every client gets its own evaluation cache: only the replicas are shared.
  const auto cache = [] { return std::make_shared<store::ShardedEvalCache>(); };
  nn::ReplicaPool shared = nn::make_replica_pool(factory);
  fl::DagClient b(&ds.clients[1], shared, config, Rng(11), cache());
  fl::DagClient a(&ds.clients[0], shared, config, Rng(12), cache());
  b.prepare_round(dag);
  const fl::DagRoundResult reused = a.prepare_round(dag);
  EXPECT_EQ(shared.built(), 1u);

  nn::ReplicaPool fresh = nn::make_replica_pool(factory);
  fl::DagClient a_fresh(&ds.clients[0], fresh, config, Rng(12), cache());
  expect_same_round(reused, a_fresh.prepare_round(dag));
}

data::FederatedDataset digits() {
  data::SyntheticDigitsConfig config;
  config.num_clients = 4;
  config.samples_per_client = 40;
  config.image_size = 8;
  return data::make_fmnist_clustered(config);
}

TEST(ReplicaLease, CarriesNoStateMlp) {
  const data::FederatedDataset ds = digits();
  check_lease_carries_no_state(
      sim::make_mlp_factory(shape_numel(ds.element_shape), 16, ds.num_classes), ds);
}

TEST(ReplicaLease, CarriesNoStateCnn) {
  const data::FederatedDataset ds = digits();
  check_lease_carries_no_state(sim::make_cnn_factory(1, 8, 3, 4, 16, ds.num_classes), ds);
}

TEST(ReplicaLease, CarriesNoStateLstm) {
  data::PoetsConfig config;
  config.num_clients = 4;
  config.samples_per_client = 40;
  const data::FederatedDataset ds = data::make_poets(config);
  check_lease_carries_no_state(sim::make_lstm_factory(config.vocab_size, 4, 8, ds.num_classes),
                               ds);
}

// A shrunken scale-2k: the replicas built follow the prepare threads, not the
// clients. At one thread every step runs the scalar prepare (one lease for
// training and the gate evaluations); at four the registry workload fuses
// steps on pooled executors and leases no replica at all. The scalar variant
// (train.batch = 0, accuracy-biased walks) leases one per walk step and per
// training from every prepare worker at once.
TEST(ReplicaLease, ReplicasBuiltFollowThreadsNotClients) {
  auto replicas_built = [](std::size_t clients, std::size_t threads, bool scalar) {
    scenario::ScenarioSpec spec = scenario::get_scenario("scale-2k");
    spec.num_clients = clients;
    spec.samples_per_client = 20;
    spec.threads = threads;
    spec.obs.metrics = true;
    if (scalar) {
      spec.client.train.batch = 0;
      spec.client.selector = fl::SelectorKind::kAccuracy;
    }
    return scenario::run_scenario(spec).obs_totals.counter("nn.replicas_built");
  };
  for (const bool scalar : {false, true}) {
    SCOPED_TRACE(scalar ? "scalar" : "registry");
    EXPECT_EQ(replicas_built(200, 1, scalar), 1u);
    EXPECT_EQ(replicas_built(100, 1, scalar), 1u);
    const std::uint64_t parallel = replicas_built(200, 4, scalar);
    EXPECT_LE(parallel, 4u);
    if (scalar) {
      EXPECT_GE(parallel, 1u);
    }
  }
}

}  // namespace
}  // namespace specdag
