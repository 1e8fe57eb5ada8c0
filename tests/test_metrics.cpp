#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "client_graph_oracle.hpp"
#include "metrics/client_graph.hpp"
#include "metrics/community.hpp"
#include "metrics/dag_metrics.hpp"

namespace specdag::metrics {
namespace {

using dag::Dag;
using dag::kGenesisTx;
using dag::TxId;

dag::WeightsPtr payload() {
  return std::make_shared<const nn::WeightVector>(nn::WeightVector{0.0f});
}

// ----------------------------------------------------------- ClientGraph ---

TEST(ClientGraph, SymmetricWeights) {
  ClientGraph g(3);
  g.add_weight(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.weight(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(g.weight(0, 2), 0.0);
}

TEST(ClientGraph, DegreesAndTotal) {
  ClientGraph g(3);
  g.add_weight(0, 1, 1.0);
  g.add_weight(1, 2, 3.0);
  EXPECT_DOUBLE_EQ(g.degree(1), 4.0);
  EXPECT_DOUBLE_EQ(g.degree(0), 1.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 4.0);
}

TEST(ClientGraph, Neighbors) {
  ClientGraph g(4);
  g.add_weight(0, 2, 1.0);
  g.add_weight(0, 3, 1.0);
  EXPECT_EQ(g.neighbors(0), (std::vector<std::size_t>{2, 3}));
  EXPECT_TRUE(g.neighbors(1).empty());
}

TEST(ClientGraph, RejectsBadAccess) {
  ClientGraph g(2);
  EXPECT_THROW(g.add_weight(0, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_weight(0, 5, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_weight(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(ClientGraph(0), std::invalid_argument);
}

TEST(BuildClientGraph, CountsApprovalEdges) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const TxId b = dag.add_transaction({a}, payload(), 1, 1);          // 1 -> 0
  dag.add_transaction({a, b}, payload(), 1, 2);                      // 1 -> 0, 1 -> 1(self)
  const ClientGraph g = build_client_graph(dag, 2);
  EXPECT_DOUBLE_EQ(g.weight(0, 1), 2.0);  // self-approval excluded
}

TEST(BuildClientGraph, GenesisApprovalsIgnored) {
  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const ClientGraph g = build_client_graph(dag, 1);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);
}

TEST(BuildClientGraph, SkipsUnknownPublishers) {
  // Publishers outside the honest client range (external attackers) must
  // not break or pollute the client graph.
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const TxId evil = dag.add_transaction({a}, payload(), 5, 1);  // unknown id
  dag.add_transaction({evil}, payload(), 1, 2);
  const ClientGraph g = build_client_graph(dag, 2);
  EXPECT_DOUBLE_EQ(g.total_weight(), 0.0);  // only edges through the attacker
}

// ------------------------------------------- sparse graph vs dense oracle ---

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The same add_weight sequence applied to the sparse graph and the dense
// oracle: `edges` random pairs with planted communities (most edges stay
// inside one of `blocks` blocks), integer, fractional and zero deltas, and
// a run of repeated adds on one pair. Nodes at index >= n - n / 8 get no
// edge: they stay isolated.
struct GraphPair {
  ClientGraph sparse;
  testing::DenseClientGraph dense;
  Partition planted;
};

GraphPair random_graph_pair(std::size_t n, std::size_t blocks, std::size_t edges,
                            std::uint64_t seed) {
  GraphPair g{ClientGraph(n), testing::DenseClientGraph(n), Partition(n)};
  for (std::size_t v = 0; v < n; ++v) g.planted[v] = static_cast<int>(v % blocks);
  const std::size_t connected = n - n / 8;
  if (connected < 2) return g;
  Rng rng(seed);
  const auto add = [&](std::size_t a, std::size_t b, double delta) {
    g.sparse.add_weight(a, b, delta);
    g.dense.add_weight(a, b, delta);
  };
  for (std::size_t e = 0; e < edges; ++e) {
    const std::size_t a = rng.index(connected);
    std::size_t b = rng.index(connected);
    if (rng.uniform() < 0.8) {  // pull b into a's block
      b = b - b % blocks + a % blocks;
      if (b >= connected) b = a % blocks;
    }
    if (a == b) continue;
    const double kind = rng.uniform();
    const double delta = kind < 0.6 ? 1.0 : kind < 0.9 ? rng.uniform(0.0, 3.0) : 0.0;
    add(a, b, delta);
  }
  for (int rep = 0; rep < 7; ++rep) add(0, 1, rep % 2 == 0 ? 1.0 : 0.1);
  return g;
}

void expect_graphs_agree(const GraphPair& g) {
  const std::size_t n = g.dense.size();
  ASSERT_EQ(g.sparse.size(), n);
  EXPECT_EQ(bits(g.sparse.total_weight()), bits(g.dense.total_weight()));
  for (std::size_t a = 0; a < n; ++a) {
    EXPECT_EQ(bits(g.sparse.degree(a)), bits(g.dense.degree(a))) << "node " << a;
    EXPECT_EQ(g.sparse.neighbors(a), g.dense.neighbors(a)) << "node " << a;
    for (std::size_t b = 0; b < n; ++b) {
      ASSERT_EQ(bits(g.sparse.weight(a, b)), bits(g.dense.weight(a, b))) << a << "," << b;
    }
  }
}

void expect_modularity_agrees(const GraphPair& g, const Partition& partition) {
  EXPECT_EQ(bits(modularity(g.sparse, partition)),
            bits(testing::dense_modularity(g.dense, partition)));
}

void expect_louvain_agrees(const GraphPair& g, std::uint64_t seed) {
  Rng sparse_rng(seed), dense_rng(seed);
  const LouvainResult sparse = louvain(g.sparse, sparse_rng);
  const LouvainResult dense = testing::dense_louvain(g.dense, dense_rng);
  EXPECT_EQ(sparse.partition, dense.partition);
  EXPECT_EQ(sparse.levels, dense.levels);
  EXPECT_EQ(sparse.num_communities, dense.num_communities);
  EXPECT_EQ(bits(sparse.modularity), bits(dense.modularity));
}

TEST(ClientGraphOracle, RandomGraphsMatchTheDenseGraphBitForBit) {
  struct Case {
    std::size_t n, blocks, edges;
  };
  for (const Case c : {Case{1, 1, 0}, Case{2, 1, 3}, Case{9, 3, 20}, Case{40, 4, 150},
                       Case{150, 5, 700}, Case{300, 6, 1500}, Case{300, 3, 12000}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << c.n << " edges=" << c.edges);
    const GraphPair g = random_graph_pair(c.n, c.blocks, c.edges, 1000 + c.n + c.edges);
    expect_graphs_agree(g);

    // Partitions with non-compact, negative and shuffled community ids.
    Rng rng(c.n);
    Partition scattered(c.n), singletons(c.n), planted_ids(c.n);
    for (std::size_t v = 0; v < c.n; ++v) {
      scattered[v] = static_cast<int>(rng.index(5)) * 7 - 9;
      singletons[v] = static_cast<int>(c.n - v);
      planted_ids[v] = g.planted[v] * 3 - 1;
    }
    for (const Partition& p :
         {g.planted, planted_ids, scattered, singletons, Partition(c.n, 4)}) {
      expect_modularity_agrees(g, p);
    }
    for (std::uint64_t seed : {1u, 42u}) expect_louvain_agrees(g, seed);
  }
}

TEST(ClientGraphOracle, BuiltGraphsMatchTheDenseGraphOnLouvainPartitions) {
  // The metrics path: unit weights from approvals, then modularity of the
  // Louvain partition.
  const GraphPair g = random_graph_pair(250, 5, 5000, 7);
  Rng rng(3);
  const LouvainResult result = louvain(g.sparse, rng);
  expect_modularity_agrees(g, result.partition);
  expect_louvain_agrees(g, 3);
}

TEST(ClientGraph, ZeroDeltaKeepsTheNodeIsolated) {
  ClientGraph g(3);
  g.add_weight(0, 2, 0.0);
  EXPECT_TRUE(g.neighbors(0).empty());
  EXPECT_EQ(g.edges(0).size(), 1u);
  EXPECT_EQ(bits(g.degree(0)), bits(0.0));
  g.add_weight(2, 0, 1.5);
  g.add_weight(0, 2, 1.5);
  EXPECT_EQ(g.neighbors(0), (std::vector<std::size_t>{2}));
  EXPECT_DOUBLE_EQ(g.weight(2, 0), 3.0);
}

// ------------------------------------------------------------ modularity ---

ClientGraph two_cliques() {
  // Nodes 0-2 fully connected; nodes 3-5 fully connected; one bridge.
  ClientGraph g(6);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) g.add_weight(a, b, 1.0);
  }
  for (std::size_t a = 3; a < 6; ++a) {
    for (std::size_t b = a + 1; b < 6; ++b) g.add_weight(a, b, 1.0);
  }
  g.add_weight(2, 3, 1.0);
  return g;
}

TEST(Modularity, GoodPartitionBeatsBadOnes) {
  const ClientGraph g = two_cliques();
  const Partition good = {0, 0, 0, 1, 1, 1};
  const Partition all_one = {0, 0, 0, 0, 0, 0};
  const Partition singleton = {0, 1, 2, 3, 4, 5};
  const double q_good = modularity(g, good);
  EXPECT_GT(q_good, modularity(g, all_one));
  EXPECT_GT(q_good, modularity(g, singleton));
  EXPECT_GT(q_good, 0.3);
}

TEST(Modularity, SingleCommunityIsZero) {
  const ClientGraph g = two_cliques();
  EXPECT_NEAR(modularity(g, {0, 0, 0, 0, 0, 0}), 0.0, 1e-12);
}

TEST(Modularity, EmptyGraphIsZero) {
  ClientGraph g(3);
  EXPECT_DOUBLE_EQ(modularity(g, {0, 1, 2}), 0.0);
}

TEST(Modularity, PartitionSizeMismatchThrows) {
  const ClientGraph g = two_cliques();
  EXPECT_THROW(modularity(g, {0, 1}), std::invalid_argument);
}

TEST(Modularity, WithinTheoreticalBounds) {
  const ClientGraph g = two_cliques();
  for (const Partition& p :
       {Partition{0, 0, 0, 1, 1, 1}, Partition{0, 1, 0, 1, 0, 1}, Partition{0, 0, 1, 1, 2, 2}}) {
    const double q = modularity(g, p);
    EXPECT_GE(q, -0.5);
    EXPECT_LE(q, 1.0);
  }
}

// --------------------------------------------------------------- louvain ---

TEST(Louvain, RecoversTwoCliques) {
  const ClientGraph g = two_cliques();
  Rng rng(1);
  const LouvainResult result = louvain(g, rng);
  EXPECT_EQ(result.num_communities, 2u);
  EXPECT_EQ(result.partition[0], result.partition[1]);
  EXPECT_EQ(result.partition[0], result.partition[2]);
  EXPECT_EQ(result.partition[3], result.partition[4]);
  EXPECT_EQ(result.partition[3], result.partition[5]);
  EXPECT_NE(result.partition[0], result.partition[3]);
  EXPECT_GT(result.modularity, 0.3);
}

TEST(Louvain, ThreeCliquesWithNoise) {
  ClientGraph g(12);
  for (std::size_t block = 0; block < 3; ++block) {
    for (std::size_t a = block * 4; a < (block + 1) * 4; ++a) {
      for (std::size_t b = a + 1; b < (block + 1) * 4; ++b) g.add_weight(a, b, 5.0);
    }
  }
  // Weak inter-block noise.
  g.add_weight(0, 4, 1.0);
  g.add_weight(5, 9, 1.0);
  Rng rng(2);
  const LouvainResult result = louvain(g, rng);
  EXPECT_EQ(result.num_communities, 3u);
}

TEST(Louvain, EmptyGraphGivesSingletons) {
  ClientGraph g(4);
  Rng rng(3);
  const LouvainResult result = louvain(g, rng);
  EXPECT_EQ(result.num_communities, 4u);
  EXPECT_DOUBLE_EQ(result.modularity, 0.0);
}

TEST(Louvain, DeterministicGivenSeed) {
  const ClientGraph g = two_cliques();
  Rng rng_a(7), rng_b(7);
  EXPECT_EQ(louvain(g, rng_a).partition, louvain(g, rng_b).partition);
}

TEST(Louvain, PartitionIsCompact) {
  const ClientGraph g = two_cliques();
  Rng rng(4);
  const LouvainResult result = louvain(g, rng);
  for (int c : result.partition) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, static_cast<int>(result.num_communities));
  }
}

TEST(Louvain, StarGraphStaysTogether) {
  // A star has no community structure to split.
  ClientGraph g(5);
  for (std::size_t leaf = 1; leaf < 5; ++leaf) g.add_weight(0, leaf, 1.0);
  Rng rng(5);
  const LouvainResult result = louvain(g, rng);
  EXPECT_LE(result.num_communities, 3u);
}

// ---------------------------------------------------- misclassification ----

TEST(Misclassification, PerfectPartition) {
  EXPECT_DOUBLE_EQ(misclassification_fraction({0, 0, 1, 1}, {5, 5, 7, 7}), 0.0);
}

TEST(Misclassification, MinorityMembersCount) {
  // Community 0 holds true clusters {A, A, B}: the B client is misclassified.
  EXPECT_NEAR(misclassification_fraction({0, 0, 0}, {1, 1, 2}), 1.0 / 3.0, 1e-12);
}

TEST(Misclassification, SplitClusterIsNotPenalized) {
  // One true cluster split over two pure communities: nobody misclassified
  // (each community's majority matches the member's true cluster).
  EXPECT_DOUBLE_EQ(misclassification_fraction({0, 0, 1, 1}, {3, 3, 3, 3}), 0.0);
}

TEST(Misclassification, MergedClustersArePenalized) {
  // Two true clusters merged into one community: minority half misclassified.
  EXPECT_DOUBLE_EQ(misclassification_fraction({0, 0, 0, 0}, {1, 1, 2, 2}), 0.5);
}

TEST(Misclassification, RejectsBadInput) {
  EXPECT_THROW(misclassification_fraction({0, 1}, {0}), std::invalid_argument);
  EXPECT_THROW(misclassification_fraction({}, {}), std::invalid_argument);
}

TEST(CountCommunities, Counts) {
  EXPECT_EQ(count_communities({0, 0, 1, 2}), 3u);
  EXPECT_EQ(count_communities({5, 5, 5}), 1u);
}

// ------------------------------------------------------------- pureness ----

TEST(ApprovalPureness, AllSameCluster) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  dag.add_transaction({a}, payload(), 1, 2);
  const auto result = approval_pureness(dag, {0, 0});
  EXPECT_DOUBLE_EQ(result.pureness, 1.0);
  EXPECT_EQ(result.total_edges, 1u);
}

TEST(ApprovalPureness, MixedClusters) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const TxId b = dag.add_transaction({a}, payload(), 1, 2);  // cross-cluster
  dag.add_transaction({a, b}, payload(), 0, 3);              // one pure, one cross
  const auto result = approval_pureness(dag, {0, 1});
  EXPECT_EQ(result.total_edges, 3u);
  EXPECT_EQ(result.pure_edges, 1u);
  EXPECT_NEAR(result.pureness, 1.0 / 3.0, 1e-12);
}

TEST(ApprovalPureness, GenesisEdgesExcluded) {
  Dag dag({0.0f});
  dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const auto result = approval_pureness(dag, {0});
  EXPECT_EQ(result.total_edges, 0u);
  EXPECT_DOUBLE_EQ(result.pureness, 0.0);
}

TEST(ApprovalPureness, UnknownPublisherEdgesSkipped) {
  Dag dag({0.0f});
  const TxId a = dag.add_transaction({kGenesisTx}, payload(), 0, 1);
  const TxId evil = dag.add_transaction({a}, payload(), 3, 1);  // attacker id
  dag.add_transaction({evil, a}, payload(), 0, 2);
  // Attacker edges (to and from) are ignored; the only counted edge is the
  // honest self-cluster approval of `a`.
  const auto result = approval_pureness(dag, {0});
  EXPECT_EQ(result.total_edges, 1u);
  EXPECT_DOUBLE_EQ(result.pureness, 1.0);
}

TEST(BasePureness, MatchesPaperValues) {
  // Table 2: 3 equal clusters -> 0.33; 2 -> 0.5; 20 -> 0.05.
  EXPECT_NEAR(base_pureness({10, 10, 10}), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(base_pureness({5, 5}), 0.5, 1e-12);
  EXPECT_NEAR(base_pureness(std::vector<std::size_t>(20, 5)), 0.05, 1e-12);
}

TEST(BasePureness, UnequalClusters) {
  // shares 0.75/0.25 -> 0.5625 + 0.0625 = 0.625.
  EXPECT_NEAR(base_pureness({3, 1}), 0.625, 1e-12);
  EXPECT_THROW(base_pureness({}), std::invalid_argument);
}

// -------------------------------------------------------- poison counting --

TEST(ApprovedPoisonedCount, CountsPastCone) {
  Dag dag({0.0f});
  const TxId bad1 = dag.add_transaction({kGenesisTx}, payload(), 0, 1, true);
  const TxId good = dag.add_transaction({kGenesisTx}, payload(), 1, 1, false);
  const TxId bad2 = dag.add_transaction({bad1, good}, payload(), 2, 2, true);
  EXPECT_EQ(approved_poisoned_count(dag, bad2), 2u);   // itself + bad1
  EXPECT_EQ(approved_poisoned_count(dag, good), 0u);
  EXPECT_EQ(approved_poisoned_count(dag, bad1), 1u);
}

}  // namespace
}  // namespace specdag::metrics
