#include "mapping/refine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::mapping {
namespace {

netmodel::PerformanceMatrix random_perf(std::size_t n, Rng& rng) {
  netmodel::PerformanceMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) p.set_link(i, j, {1e-4, rng.uniform(1e6, 1e8)});
    }
  }
  return p;
}

TEST(RefineMapping, NeverWorsensTheSeed) {
  Rng rng(1);
  const std::size_t n = 10;
  const TaskGraph tasks = random_task_graph(n, rng, 1e6, 2e6, 0.4);
  const auto perf = random_perf(n, rng);
  const Mapping seed = ring_mapping(n);
  const RefineResult refined = refine_mapping(seed, tasks, perf);
  EXPECT_LE(refined.cost, mapping_volume_cost(seed, tasks, perf) + 1e-12);
  EXPECT_TRUE(is_valid_mapping(refined.mapping, n, n));
}

TEST(RefineMapping, ImprovesABadSeed) {
  Rng rng(2);
  const std::size_t n = 8;
  const TaskGraph tasks = random_task_graph(n, rng, 1e6, 2e6, 0.5);
  const auto perf = random_perf(n, rng);
  const RefineResult refined =
      refine_mapping(ring_mapping(n), tasks, perf);
  // Random instances essentially always admit at least one improving
  // swap from the identity mapping.
  EXPECT_GT(refined.swaps, 0u);
  EXPECT_LT(refined.cost,
            mapping_volume_cost(ring_mapping(n), tasks, perf));
}

TEST(RefineMapping, LocalOptimumHasNoImprovingSwap) {
  Rng rng(3);
  const std::size_t n = 6;
  const TaskGraph tasks = random_task_graph(n, rng, 1e6, 2e6, 0.5);
  const auto perf = random_perf(n, rng);
  RefineResult refined = refine_mapping(ring_mapping(n), tasks, perf);
  // Verify 2-swap local optimality by hand.
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = u + 1; v < n; ++v) {
      Mapping m = refined.mapping;
      std::swap(m[u], m[v]);
      EXPECT_GE(mapping_volume_cost(m, tasks, perf),
                refined.cost - 1e-12);
    }
  }
}

TEST(RefineMapping, InvalidSeedThrows) {
  Rng rng(4);
  const TaskGraph tasks = random_task_graph(4, rng);
  const auto perf = random_perf(4, rng);
  EXPECT_THROW(refine_mapping({0, 0, 1, 2}, tasks, perf),
               ContractViolation);
}

TEST(OptimalMapping, SizeLimit) {
  Rng rng(5);
  const TaskGraph tasks = random_task_graph(9, rng);
  const auto perf = random_perf(9, rng);
  EXPECT_THROW(optimal_mapping(tasks, perf), ContractViolation);
}

class MappingQualitySweep : public ::testing::TestWithParam<int> {};

TEST_P(MappingQualitySweep, GreedyPlusRefineNearOptimal) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 6;
  const TaskGraph tasks = random_task_graph(n, rng, 1e6, 2e6, 0.5);
  const auto perf = random_perf(n, rng);
  const Mapping best = optimal_mapping(tasks, perf);
  const double best_cost = mapping_volume_cost(best, tasks, perf);

  const Mapping greedy = greedy_mapping(
      tasks, MachineGraph::from_performance(perf));
  const RefineResult refined = refine_mapping(greedy, tasks, perf);
  EXPECT_GE(refined.cost, best_cost - 1e-12);
  EXPECT_LE(refined.cost, best_cost * 1.5);
  // Refinement must not be worse than the raw greedy.
  EXPECT_LE(refined.cost,
            mapping_volume_cost(greedy, tasks, perf) + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MappingQualitySweep,
                         ::testing::Range(10, 18));

/// What /plan ran before plan_mapping existed: the generic greedy seed
/// and refinement over the restricted matrix, under mapping_cost, for a
/// dense uniform task graph of `bytes` per ordered pair.
RefineResult generic_uniform_plan(const netmodel::PerformanceMatrix& full,
                                  const std::vector<std::size_t>& members,
                                  std::uint64_t bytes) {
  const netmodel::PerformanceMatrix sub = full.restrict_to(members);
  const TaskGraph tasks =
      uniform_task_graph(members.size(), static_cast<double>(bytes));
  const Mapping seed =
      greedy_mapping(tasks, MachineGraph::from_performance(sub));
  return refine_mapping(seed, tasks, sub, mapping_cost);
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

// plan_mapping is the generic pipeline /plan used to run, bit for bit:
// the same assignment, the same cost bits and the same swap count, over
// widths 2-32, tie-heavy clusters and message sizes past 2^53 (where the
// task graph's double volume rounds).
TEST(PlanMapping, MatchesTheGenericPipelineBitForBit) {
  const std::uint64_t sizes[] = {1, 1u << 20, 8u << 20,
                                 (std::uint64_t{1} << 53) + 1,
                                 std::uint64_t{1} << 62};
  std::size_t swapped = 0;
  testing::run_property(0x5eed30, 160, [&](Rng& rng) {
    const std::size_t width = testing::random_size(rng, 2, 32);
    const std::size_t cluster = width + testing::random_size(rng, 0, 8);
    const netmodel::PerformanceMatrix full = random_cluster(cluster, rng);
    std::vector<std::size_t> members =
        rng.sample_without_replacement(cluster, width);
    std::sort(members.begin(), members.end());
    const std::uint64_t bytes = sizes[testing::random_size(rng, 0, 4)];

    const RefineResult expected = generic_uniform_plan(full, members, bytes);
    const RefineResult planned = plan_mapping(full, members, bytes);
    EXPECT_EQ(planned.mapping, expected.mapping);
    EXPECT_TRUE(same_bits(planned.cost, expected.cost))
        << planned.cost << " vs " << expected.cost;
    EXPECT_EQ(planned.swaps, expected.swaps);
    EXPECT_LE(planned.evaluations, expected.evaluations);
    if (expected.swaps > 0) ++swapped;
  });
  // The climb is exercised, not just the seed.
  EXPECT_GT(swapped, 0u);
}

// One machine sends four times slower than the rest, and every transfer
// time is a small integer, so each machine's row sums exactly in any
// order and every bijection costs the same. The row of the costliest
// machine, followed through each swap, then rejects every candidate:
// nothing is costed in full. Recomputing the row of the task that held
// that machine instead (the machine stays, the task moves) reads a fast
// machine's row and lets candidates through.
TEST(PlanMapping, RowBoundRejectsEveryCandidateWhenRowsSumExactly) {
  const std::size_t n = 9;
  const std::uint64_t bytes = 1u << 20;
  netmodel::PerformanceMatrix full(n, {0.0, static_cast<double>(bytes)});
  for (std::size_t j = 0; j < n; ++j) {
    if (j != 3) full.set_link(3, j, {0.0, static_cast<double>(bytes / 4)});
  }
  const std::vector<std::size_t> members{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const RefineResult planned = plan_mapping(full, members, bytes);
  const RefineResult expected = generic_uniform_plan(full, members, bytes);
  EXPECT_EQ(planned.mapping, expected.mapping);
  EXPECT_EQ(planned.cost, 4.0 * static_cast<double>(n - 1));
  EXPECT_EQ(planned.swaps, 0u);
  EXPECT_EQ(expected.evaluations, n * (n - 1) / 2);
  EXPECT_EQ(planned.evaluations, 0u);
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
