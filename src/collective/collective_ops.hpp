// Collective operation cost evaluation and execution.
//
// Two evaluators share the tree abstractions:
//  * alpha-beta estimation against a PerformanceMatrix — the model the
//    paper uses both to predict performance (Algorithm 1's expected time
//    t') and to score trace-replay experiments;
//  * execution inside the flow simulator — transfers actually contend
//    with background traffic on the simulated topology (Section V-E).
//
// Reduce and gather are evaluated as the duals of broadcast and scatter
// (reversed link directions), matching the paper's observation that the
// dual operations behave identically.
#pragma once

#include <cstdint>

#include "collective/comm_tree.hpp"
#include "netmodel/perf_matrix.hpp"
#include "simnet/simulator.hpp"

namespace netconst::collective {

enum class Collective { Broadcast, Scatter, Reduce, Gather };

const char* collective_name(Collective op);

/// Estimated completion time of the collective over `tree` with per-node
/// payload `bytes`, under the alpha-beta model of `performance`. Sends
/// from one node are sequential in stored child order; scatter/gather
/// edges carry subtree_size * bytes.
double collective_time(const CommTree& tree,
                       const netmodel::PerformanceMatrix& performance,
                       Collective op, std::uint64_t bytes);

/// collective_time(tree, performance, Broadcast, bytes), bit for bit,
/// from weights = performance.weight_matrix(bytes) (or its restriction
/// to the tree's members): entry (i, j) is the transfer time i -> j.
double broadcast_time(const CommTree& tree, const linalg::Matrix& weights);

/// All-to-all implemented as a gather followed by a broadcast of the
/// aggregate (the MPICH2-style composite both real-world applications
/// use). `bytes` is the per-member contribution; the broadcast carries
/// size * bytes.
double all_to_all_time(const CommTree& tree,
                       const netmodel::PerformanceMatrix& performance,
                       std::uint64_t bytes);

/// Execute the collective inside the simulator: tree member k runs on
/// host `hosts[k]`. Transfers contend with background traffic. Returns
/// the elapsed simulated time. The simulator clock advances.
double run_collective_sim(simnet::FlowSimulator& simulator,
                          const std::vector<simnet::NodeId>& hosts,
                          const CommTree& tree, Collective op,
                          std::uint64_t bytes);

}  // namespace netconst::collective
