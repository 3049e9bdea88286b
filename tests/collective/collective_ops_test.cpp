#include "collective/collective_ops.hpp"

#include <gtest/gtest.h>

#include "collective/binomial.hpp"
#include "support/error.hpp"

namespace netconst::collective {
namespace {

netmodel::PerformanceMatrix uniform_perf(std::size_t n, double alpha,
                                         double beta) {
  netmodel::PerformanceMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) p.set_link(i, j, {alpha, beta});
    }
  }
  return p;
}

TEST(CollectiveOps, Names) {
  EXPECT_STREQ(collective_name(Collective::Broadcast), "broadcast");
  EXPECT_STREQ(collective_name(Collective::Scatter), "scatter");
  EXPECT_STREQ(collective_name(Collective::Reduce), "reduce");
  EXPECT_STREQ(collective_name(Collective::Gather), "gather");
}

TEST(CollectiveOps, TwoNodeBroadcastIsOneTransfer) {
  CommTree tree(2, 0);
  tree.add_edge(0, 1);
  const auto perf = uniform_perf(2, 0.5, 100.0);
  EXPECT_NEAR(collective_time(tree, perf, Collective::Broadcast, 200),
              0.5 + 2.0, 1e-12);
}

TEST(CollectiveOps, BroadcastTimeFromWeightsIsCollectiveTimeBitForBit) {
  netmodel::PerformanceMatrix perf(6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i != j) {
        perf.set_link(i, j, {1e-4 * static_cast<double>(1 + (i * j) % 5),
                             1e8 / static_cast<double>(1 + (i + 2 * j) % 7)});
      }
    }
  }
  CommTree tree(6, 2);
  tree.add_edge(2, 0);
  tree.add_edge(2, 5);
  tree.add_edge(0, 1);
  tree.add_edge(5, 3);
  tree.add_edge(0, 4);
  const std::uint64_t bytes = 3 * netmodel::kOneMiB + 1;
  EXPECT_EQ(broadcast_time(tree, perf.weight_matrix(bytes)),
            collective_time(tree, perf, Collective::Broadcast, bytes));
  EXPECT_THROW(broadcast_time(tree, perf.weight_matrix({0, 1, 2}, bytes)),
               ContractViolation);
}

TEST(CollectiveOps, SequentialSendsAccumulate) {
  // Star of 3 leaves: sends go out one after another.
  CommTree star(4, 0);
  star.add_edge(0, 1);
  star.add_edge(0, 2);
  star.add_edge(0, 3);
  const auto perf = uniform_perf(4, 0.0, 100.0);
  // Each send takes 1 s (100 bytes); last leaf done at 3 s.
  EXPECT_NEAR(collective_time(star, perf, Collective::Broadcast, 100),
              3.0, 1e-12);
}

TEST(CollectiveOps, ChainPipelineDepthCost) {
  CommTree chain(3, 0);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  const auto perf = uniform_perf(3, 0.0, 100.0);
  // Store-and-forward: 1 s per hop.
  EXPECT_NEAR(collective_time(chain, perf, Collective::Broadcast, 100),
              2.0, 1e-12);
}

TEST(CollectiveOps, ScatterPayloadScalesWithSubtree) {
  CommTree chain(3, 0);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  const auto perf = uniform_perf(3, 0.0, 100.0);
  // Edge 0->1 carries 2 members' data (200 B), edge 1->2 carries 100 B.
  EXPECT_NEAR(collective_time(chain, perf, Collective::Scatter, 100),
              2.0 + 1.0, 1e-12);
}

TEST(CollectiveOps, BroadcastReduceDualityOnSymmetricNetwork) {
  const auto perf = uniform_perf(8, 1e-3, 1e6);
  const CommTree tree = binomial_tree(8, 0);
  const double bcast =
      collective_time(tree, perf, Collective::Broadcast, 1 << 20);
  const double reduce =
      collective_time(tree, perf, Collective::Reduce, 1 << 20);
  EXPECT_NEAR(bcast, reduce, bcast * 1e-9);
}

TEST(CollectiveOps, ScatterGatherDualityOnSymmetricNetwork) {
  const auto perf = uniform_perf(8, 1e-3, 1e6);
  const CommTree tree = binomial_tree(8, 0);
  const double scatter =
      collective_time(tree, perf, Collective::Scatter, 1 << 18);
  const double gather =
      collective_time(tree, perf, Collective::Gather, 1 << 18);
  EXPECT_NEAR(scatter, gather, scatter * 1e-9);
}

TEST(CollectiveOps, ReduceUsesReversedLinkDirections) {
  // Asymmetric pair: fast 0->1, slow 1->0.
  netmodel::PerformanceMatrix perf(2);
  perf.set_link(0, 1, {0.0, 1000.0});
  perf.set_link(1, 0, {0.0, 10.0});
  CommTree tree(2, 0);
  tree.add_edge(0, 1);
  const double bcast =
      collective_time(tree, perf, Collective::Broadcast, 100);
  const double reduce =
      collective_time(tree, perf, Collective::Reduce, 100);
  EXPECT_NEAR(bcast, 0.1, 1e-12);
  EXPECT_NEAR(reduce, 10.0, 1e-12);
}

TEST(CollectiveOps, IncompleteTreeThrows) {
  CommTree tree(3, 0);
  tree.add_edge(0, 1);
  const auto perf = uniform_perf(3, 0.0, 1.0);
  EXPECT_THROW(collective_time(tree, perf, Collective::Broadcast, 1),
               ContractViolation);
}

TEST(CollectiveOps, SizeMismatchThrows) {
  const CommTree tree = binomial_tree(4, 0);
  const auto perf = uniform_perf(5, 0.0, 1.0);
  EXPECT_THROW(collective_time(tree, perf, Collective::Broadcast, 1),
               ContractViolation);
}

TEST(CollectiveOps, AllToAllIsGatherPlusScaledBroadcast) {
  const auto perf = uniform_perf(4, 0.0, 100.0);
  const CommTree tree = binomial_tree(4, 0);
  const double gather =
      collective_time(tree, perf, Collective::Gather, 100);
  const double bcast =
      collective_time(tree, perf, Collective::Broadcast, 400);
  EXPECT_NEAR(all_to_all_time(tree, perf, 100), gather + bcast, 1e-12);
}

// --- simulator execution ---

simnet::Topology small_tree_topo() {
  simnet::TreeSpec spec;
  spec.racks = 2;
  spec.servers_per_rack = 2;
  spec.host_link_bytes_per_s = 100.0;
  spec.uplink_bytes_per_s = 1000.0;
  spec.host_link_latency_s = 0.0;
  spec.uplink_latency_s = 0.0;
  return simnet::make_tree_topology(spec);
}

TEST(CollectiveSim, BroadcastMatchesModelOnIdleNetwork) {
  simnet::FlowSimulator sim(small_tree_topo());
  const std::vector<simnet::NodeId> hosts{0, 1, 2, 3};
  const CommTree tree = binomial_tree(4, 0);
  const double elapsed =
      run_collective_sim(sim, hosts, tree, Collective::Broadcast, 100);
  // Binomial on 4: round 1 (0->2, 1 s), round 2 (0->1 and 2->3, 1 s).
  EXPECT_NEAR(elapsed, 2.0, 1e-9);
}

TEST(CollectiveSim, GatherCompletesAndTakesPositiveTime) {
  simnet::FlowSimulator sim(small_tree_topo());
  const std::vector<simnet::NodeId> hosts{0, 1, 2, 3};
  const CommTree tree = binomial_tree(4, 0);
  const double elapsed =
      run_collective_sim(sim, hosts, tree, Collective::Gather, 100);
  // Leaves send concurrently; node 2 forwards 200 B after receiving.
  EXPECT_GT(elapsed, 0.0);
  EXPECT_LT(elapsed, 10.0);
}

TEST(CollectiveSim, ScatterCarriesSubtreeBytes) {
  simnet::FlowSimulator sim(small_tree_topo());
  const std::vector<simnet::NodeId> hosts{0, 1, 2, 3};
  CommTree chain(4, 0);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);
  chain.add_edge(2, 3);
  const double elapsed =
      run_collective_sim(sim, hosts, chain, Collective::Scatter, 100);
  // Edges carry 300, 200, 100 bytes at 100 B/s sequentially (the
  // store-and-forward chain shares no links in this placement).
  EXPECT_NEAR(elapsed, 3.0 + 2.0 + 1.0, 1e-6);
}

TEST(CollectiveSim, SizeMismatchThrows) {
  simnet::FlowSimulator sim(small_tree_topo());
  const CommTree tree = binomial_tree(4, 0);
  EXPECT_THROW(run_collective_sim(sim, {0, 1}, tree,
                                  Collective::Broadcast, 1),
               ContractViolation);
}

}  // namespace
}  // namespace netconst::collective
