// Consistency between the alpha-beta analytical model and the flow
// simulator: on an idle network with matching parameters, the model's
// predicted collective times must track the simulator's execution for a
// sweep of random trees, operations and message sizes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <utility>

#include "collective/binomial.hpp"
#include "collective/collective_ops.hpp"
#include "collective/fnf.hpp"
#include "support/rng.hpp"

namespace netconst::collective {
namespace {

// A star topology: every host hangs off a single big switch, so any
// pair's path is host-link -> host-link with no shared middle. This is
// the closest physical realization of an alpha-beta matrix: bandwidth =
// host link rate, latency = two hops.
struct StarWorld {
  simnet::Topology topology;
  std::vector<simnet::NodeId> hosts;
  netmodel::PerformanceMatrix model;
};

StarWorld make_star(std::size_t n, double bw, double hop_latency) {
  StarWorld world{simnet::Topology{}, {}, netmodel::PerformanceMatrix(n)};
  const auto hub =
      world.topology.add_node(simnet::NodeKind::Switch, "hub");
  for (std::size_t k = 0; k < n; ++k) {
    // Appended rather than "h" + ...: gcc 12's -Wrestrict misfires on
    // the operator+ inlining.
    std::string name = "h";
    name += std::to_string(k);
    const auto host =
        world.topology.add_node(simnet::NodeKind::Host, std::move(name));
    world.topology.add_link(host, hub, bw, hop_latency);
    world.hosts.push_back(host);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) world.model.set_link(i, j, {2.0 * hop_latency, bw});
    }
  }
  return world;
}

class ModelVsSim
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {
};

TEST_P(ModelVsSim, BroadcastAgreesOnIdleStar) {
  const auto [n, seed, bytes] = GetParam();
  StarWorld world =
      make_star(static_cast<std::size_t>(n), 1e6, 1e-4);
  Rng rng(static_cast<std::uint64_t>(seed));
  linalg::Matrix w(static_cast<std::size_t>(n),
                   static_cast<std::size_t>(n));
  for (auto& v : w.data()) v = rng.uniform(1.0, 9.0);
  const CommTree tree = fnf_tree(w, 0);

  const double model_time = collective_time(
      tree, world.model, Collective::Broadcast, bytes);
  simnet::FlowSimulator sim(world.topology);
  const double sim_time = run_collective_sim(
      sim, world.hosts, tree, Collective::Broadcast, bytes);
  // The model serializes sends strictly; in the simulator the sequential
  // sends are identical on a star (no cross-branch contention on
  // distinct receivers), so times agree tightly.
  EXPECT_NEAR(sim_time / model_time, 1.0, 0.05)
      << "model " << model_time << " sim " << sim_time;
}

TEST_P(ModelVsSim, ScatterAgreesOnIdleStar) {
  const auto [n, seed, bytes] = GetParam();
  StarWorld world = make_star(static_cast<std::size_t>(n), 1e6, 1e-4);
  const CommTree tree =
      binomial_tree(static_cast<std::size_t>(n), 0);
  const double model_time =
      collective_time(tree, world.model, Collective::Scatter, bytes);
  simnet::FlowSimulator sim(world.topology);
  const double sim_time = run_collective_sim(
      sim, world.hosts, tree, Collective::Scatter, bytes);
  EXPECT_NEAR(sim_time / model_time, 1.0, 0.05);
  (void)seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ModelVsSim,
    ::testing::Values(std::tuple{4, 1, std::uint64_t{100000}},
                      std::tuple{8, 2, std::uint64_t{100000}},
                      std::tuple{8, 3, std::uint64_t{1000000}},
                      std::tuple{13, 4, std::uint64_t{500000}},
                      std::tuple{16, 5, std::uint64_t{2000000}}));

}  // namespace
}  // namespace netconst::collective
