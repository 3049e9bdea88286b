#include "mapping/mapping.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "../support/proptest.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::mapping {
namespace {

netmodel::PerformanceMatrix uniform_perf(std::size_t n, double beta) {
  netmodel::PerformanceMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) p.set_link(i, j, {1e-4, beta});
    }
  }
  return p;
}

TEST(RingMapping, IsIdentity) {
  const Mapping m = ring_mapping(5);
  for (std::size_t k = 0; k < 5; ++k) EXPECT_EQ(m[k], k);
  EXPECT_TRUE(is_valid_mapping(m, 5, 5));
}

TEST(IsValidMapping, DetectsProblems) {
  EXPECT_FALSE(is_valid_mapping({0, 0}, 2, 2));      // duplicate
  EXPECT_FALSE(is_valid_mapping({0, 5}, 2, 2));      // out of range
  EXPECT_FALSE(is_valid_mapping({0}, 2, 2));         // wrong size
  EXPECT_TRUE(is_valid_mapping({1, 0}, 2, 2));
}

TEST(GreedyMapping, ProducesBijection) {
  Rng rng(1);
  const TaskGraph tasks = random_task_graph(10, rng);
  MachineGraph machines(10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      if (i != j) machines.set_bandwidth(i, j, rng.uniform(1e6, 1e8));
    }
  }
  const Mapping m = greedy_mapping(tasks, machines);
  EXPECT_TRUE(is_valid_mapping(m, 10, 10));
}

TEST(GreedyMapping, SeedsHeaviestTaskOnHeaviestMachine) {
  // Task 2 is the heaviest; machine 1 has the highest total bandwidth.
  TaskGraph tasks(3);
  tasks.set_volume(2, 0, 100.0);
  tasks.set_volume(2, 1, 100.0);
  tasks.set_volume(0, 1, 1.0);
  MachineGraph machines(3);
  machines.set_bandwidth(0, 1, 10.0);
  machines.set_bandwidth(1, 0, 10.0);
  machines.set_bandwidth(1, 2, 10.0);
  machines.set_bandwidth(2, 1, 10.0);
  machines.set_bandwidth(0, 2, 1.0);
  machines.set_bandwidth(2, 0, 1.0);
  const Mapping m = greedy_mapping(tasks, machines);
  EXPECT_EQ(m[2], 1u);
}

TEST(GreedyMapping, SizeMismatchThrows) {
  TaskGraph tasks(3);
  MachineGraph machines(4);
  EXPECT_THROW(greedy_mapping(tasks, machines), ContractViolation);
}

TEST(GreedyMapping, BeatsRingOnHeterogeneousNetwork) {
  // Machines 0..3 form a fast clique; 4..7 are slow. Heavy tasks should
  // land on the fast machines.
  Rng rng(2);
  const std::size_t n = 8;
  netmodel::PerformanceMatrix perf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool fast = i < 4 && j < 4;
      perf.set_link(i, j, {1e-4, fast ? 1e8 : 1e6});
    }
  }
  // Tasks 4..7 talk heavily to each other; under ring mapping they sit
  // on the slow machines.
  TaskGraph tasks(n);
  for (std::size_t u = 4; u < 8; ++u) {
    for (std::size_t v = 4; v < 8; ++v) {
      if (u != v) tasks.set_volume(u, v, 10e6);
    }
  }
  for (std::size_t u = 0; u < 4; ++u) {
    tasks.set_volume(u, (u + 1) % 4, 1e3);
  }
  const MachineGraph machines = MachineGraph::from_performance(perf);
  const double greedy_cost =
      mapping_cost(greedy_mapping(tasks, machines), tasks, perf);
  const double ring_cost =
      mapping_cost(ring_mapping(n), tasks, perf);
  EXPECT_LT(greedy_cost, ring_cost);
}

TEST(MappingCost, PerTaskSerializationParallelAcrossTasks) {
  TaskGraph tasks(3);
  tasks.set_volume(0, 1, 100.0);
  tasks.set_volume(0, 2, 100.0);
  tasks.set_volume(1, 2, 100.0);
  netmodel::PerformanceMatrix perf = uniform_perf(3, 100.0);
  // Task 0 sends twice sequentially: 2 * (1e-4 + 1 s); task 1 once.
  const double cost = mapping_cost(ring_mapping(3), tasks, perf);
  EXPECT_NEAR(cost, 2.0 * (1e-4 + 1.0), 1e-9);
}

TEST(MappingCost, InvalidMappingThrows) {
  TaskGraph tasks(2);
  const auto perf = uniform_perf(2, 1.0);
  EXPECT_THROW(mapping_cost({0, 0}, tasks, perf), ContractViolation);
}

TEST(MappingVolumeCost, SumsVolumeOverBandwidth) {
  TaskGraph tasks(2);
  tasks.set_volume(0, 1, 200.0);
  netmodel::PerformanceMatrix perf(2);
  perf.set_link(0, 1, {0.0, 50.0});
  perf.set_link(1, 0, {0.0, 50.0});
  EXPECT_NEAR(mapping_volume_cost(ring_mapping(2), tasks, perf), 4.0,
              1e-12);
}

TEST(MappingCost, ZeroVolumeEdgesAreFree) {
  TaskGraph tasks(3);
  const auto perf = uniform_perf(3, 1.0);
  EXPECT_EQ(mapping_cost(ring_mapping(3), tasks, perf), 0.0);
}

/// The generic pipeline /plan's planner reproduces: the greedy seed of
/// the uniform task graph over the restricted matrix, costed by
/// mapping_cost, for a dense uniform task graph of `bytes` per ordered
/// pair.
MappingPlan generic_uniform_plan(const netmodel::PerformanceMatrix& full,
                                 const std::vector<std::size_t>& members,
                                 std::uint64_t bytes) {
  const netmodel::PerformanceMatrix sub = full.restrict_to(members);
  const TaskGraph tasks =
      uniform_task_graph(members.size(), static_cast<double>(bytes));
  MappingPlan plan;
  plan.mapping = greedy_mapping(tasks, MachineGraph::from_performance(sub));
  plan.cost = mapping_cost(plan.mapping, tasks, sub);
  return plan;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A cluster whose links come from one of four families: continuous
/// random, a few repeated values (many ties), all links equal, and a
/// two-level rack structure; latencies are sometimes zero.
netmodel::PerformanceMatrix random_cluster(std::size_t n, Rng& rng) {
  netmodel::PerformanceMatrix p(n);
  const auto family = rng.uniform_int(0, 3);
  const std::size_t racks = testing::random_size(rng, 1, 4);
  const bool zero_alpha = rng.bernoulli(0.2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      netmodel::LinkParams link{1e-4, 1e8};
      switch (family) {
        case 0:
          link = {rng.uniform(1e-5, 1e-3), rng.uniform(1e7, 1e9)};
          break;
        case 1:
          link = {1e-4 * static_cast<double>(rng.uniform_int(1, 2)),
                  1e8 * static_cast<double>(rng.uniform_int(1, 3))};
          break;
        case 2:
          break;
        default:
          link = i % racks == j % racks ? netmodel::LinkParams{5e-5, 1e9}
                                        : netmodel::LinkParams{2e-4, 1e8};
          break;
      }
      if (zero_alpha) link.alpha = 0.0;
      p.set_link(i, j, link);
    }
  }
  return p;
}

// plan_mapping is the generic pipeline, bit for bit: the same assignment
// and the same cost bits, over widths 2-32, tie-heavy clusters and
// message sizes past 2^53 (where the task graph's double volume rounds).
TEST(PlanMapping, MatchesTheGenericPipelineBitForBit) {
  const std::uint64_t sizes[] = {1, 1u << 20, 8u << 20,
                                 (std::uint64_t{1} << 53) + 1,
                                 std::uint64_t{1} << 62};
  std::size_t reordered = 0;
  testing::run_property(0x5eed30, 160, [&](Rng& rng) {
    const std::size_t width = testing::random_size(rng, 2, 32);
    const std::size_t cluster = width + testing::random_size(rng, 0, 8);
    const netmodel::PerformanceMatrix full = random_cluster(cluster, rng);
    std::vector<std::size_t> members =
        rng.sample_without_replacement(cluster, width);
    std::sort(members.begin(), members.end());
    const std::uint64_t bytes = sizes[testing::random_size(rng, 0, 4)];

    const MappingPlan expected = generic_uniform_plan(full, members, bytes);
    const MappingPlan planned = plan_mapping(full, members, bytes);
    EXPECT_EQ(planned.mapping, expected.mapping);
    EXPECT_TRUE(same_bits(planned.cost, expected.cost))
        << planned.cost << " vs " << expected.cost;
    if (expected.mapping != ring_mapping(width)) ++reordered;
  });
  // The greedy expansion is exercised, not just its first-index ties.
  EXPECT_GT(reordered, 0u);
}

// The generic pipeline's contract checks survive: a non-positive or NaN
// bandwidth (MachineGraph::set_bandwidth, restrict_to) or latency
// between two members throws; links outside the member set do not
// matter. So do a member out of range, zero bytes and a size the cost
// model cannot hold.
TEST(PlanMapping, InvalidLinksBetweenMembersThrow) {
  const std::vector<std::size_t> members{0, 2, 3};
  for (const double beta :
       {0.0, -1e8, std::numeric_limits<double>::quiet_NaN()}) {
    netmodel::PerformanceMatrix full(4);
    full.bandwidth()(3, 0) = beta;
    EXPECT_THROW(plan_mapping(full, members, 1024), ContractViolation);
    EXPECT_THROW(generic_uniform_plan(full, members, 1024),
                 ContractViolation);
    full.bandwidth()(3, 0) = 1e8;
    full.bandwidth()(1, 0) = beta;  // node 1 is not a member
    EXPECT_NO_THROW(plan_mapping(full, members, 1024));
  }
  netmodel::PerformanceMatrix full(4);
  full.latency()(0, 2) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(plan_mapping(full, members, 1024), ContractViolation);
  full.latency()(0, 2) = -1e-4;
  EXPECT_THROW(plan_mapping(full, members, 1024), ContractViolation);
  EXPECT_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {0, 7}, 1024),
               ContractViolation);
  EXPECT_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {}, 1024),
               ContractViolation);
  EXPECT_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {0, 1}, 0),
               ContractViolation);
  // Sizes whose double volume rounds to 2^64: mapping_cost's cast back
  // to an integer would overflow.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {0, 1}, max),
               ContractViolation);
  EXPECT_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {0, 1},
                            max - 1023),
               ContractViolation);
  EXPECT_NO_THROW(plan_mapping(netmodel::PerformanceMatrix(4), {0, 1},
                               max - 1024));
}

}  // namespace
}  // namespace netconst::mapping
