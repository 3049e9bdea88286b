#include "mapping/graphs.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace netconst::mapping {
namespace {

TEST(TaskGraph, SetAndVertexWeight) {
  TaskGraph g(3);
  g.set_volume(0, 1, 10.0);
  g.set_volume(1, 2, 5.0);
  EXPECT_EQ(g.volume(0, 1), 10.0);
  EXPECT_EQ(g.vertex_weight(1), 15.0);  // in 10 + out 5
  EXPECT_EQ(g.vertex_weight(2), 5.0);
}

TEST(TaskGraph, Contracts) {
  TaskGraph g(2);
  EXPECT_THROW(g.set_volume(0, 0, 1.0), ContractViolation);
  EXPECT_THROW(g.set_volume(0, 5, 1.0), ContractViolation);
  EXPECT_THROW(g.set_volume(0, 1, -1.0), ContractViolation);
}

TEST(RandomTaskGraph, VolumesInRange) {
  Rng rng(1);
  const TaskGraph g = random_task_graph(8, rng, 100.0, 200.0);
  for (std::size_t u = 0; u < 8; ++u) {
    for (std::size_t v = 0; v < 8; ++v) {
      if (u == v) continue;
      EXPECT_GE(g.volume(u, v), 100.0);
      EXPECT_LE(g.volume(u, v), 200.0);
    }
  }
}

TEST(RandomTaskGraph, DensityControlsEdgeCount) {
  Rng rng(2);
  const TaskGraph g = random_task_graph(20, rng, 1.0, 2.0, 0.3);
  std::size_t edges = 0;
  for (std::size_t u = 0; u < 20; ++u) {
    for (std::size_t v = 0; v < 20; ++v) {
      if (u != v && g.volume(u, v) > 0.0) ++edges;
    }
  }
  EXPECT_GT(edges, 50u);
  EXPECT_LT(edges, 180u);  // ~114 expected of 380
}

TEST(RingTaskGraph, OnlySuccessorEdges) {
  const TaskGraph g = ring_task_graph(4, 7.0);
  EXPECT_EQ(g.volume(0, 1), 7.0);
  EXPECT_EQ(g.volume(3, 0), 7.0);
  EXPECT_EQ(g.volume(0, 2), 0.0);
  EXPECT_EQ(g.volume(1, 0), 0.0);
}

TEST(UniformTaskGraph, EveryOrderedPairCarriesTheVolume) {
  const TaskGraph g = uniform_task_graph(3, 5.0);
  for (std::size_t u = 0; u < 3; ++u) {
    for (std::size_t v = 0; v < 3; ++v) {
      EXPECT_EQ(g.volume(u, v), u == v ? 0.0 : 5.0);
    }
  }
}

TEST(MachineGraph, FromPerformanceMatrix) {
  netmodel::PerformanceMatrix p(3);
  p.set_link(0, 1, {1e-3, 5e7});
  const MachineGraph g = MachineGraph::from_performance(p);
  EXPECT_EQ(g.bandwidth(0, 1), 5e7);
  EXPECT_EQ(g.size(), 3u);
}

TEST(MachineGraph, VertexWeightSumsBothDirections) {
  MachineGraph g(3);
  g.set_bandwidth(0, 1, 10.0);
  g.set_bandwidth(1, 0, 20.0);
  g.set_bandwidth(1, 2, 5.0);
  EXPECT_EQ(g.vertex_weight(1), 35.0);
  EXPECT_EQ(g.vertex_weight(2), 5.0);
}

TEST(MachineGraph, Contracts) {
  MachineGraph g(2);
  EXPECT_THROW(g.set_bandwidth(0, 0, 1.0), ContractViolation);
  EXPECT_THROW(g.set_bandwidth(0, 1, 0.0), ContractViolation);
  EXPECT_THROW(g.set_bandwidth(0, 3, 1.0), ContractViolation);
}

}  // namespace
}  // namespace netconst::mapping
