// Topology mapping strategies and the mapping cost model.
//
// A mapping assigns task u to machine mapping[u] (a bijection when task
// and machine counts match). Strategies:
//  * ring_mapping   — the paper's Baseline: task k on machine k;
//  * greedy_mapping — the Greedy Heuristic of Hoefler & Snir as the
//    paper describes it: seed with the heaviest machine vertex mapped to
//    the heaviest task vertex, then repeatedly map the unmapped machine
//    with the strongest connection to the mapped set onto the unmapped
//    task with the heaviest connection to the corresponding mapped tasks;
//  * plan_mapping   — greedy_mapping for the one traffic pattern the
//    serving front end plans (a dense uniform task graph under
//    mapping_cost), table-driven and bit-identical to the generic pair.
//
// Cost model: tasks execute concurrently; each task performs its sends
// sequentially, so the elapsed communication time is
//   max_u  sum_v  (alpha + volume(u, v) / beta)  over mapped links.
#pragma once

#include <cstdint>
#include <vector>

#include "mapping/graphs.hpp"
#include "netmodel/perf_matrix.hpp"

namespace netconst::mapping {

using Mapping = std::vector<std::size_t>;  // task -> machine

/// task k -> machine k. Task and machine counts must match.
Mapping ring_mapping(std::size_t tasks);

/// Greedy heuristic guided by the machine graph (typically built from
/// the RPCA constant component or the raw measurement average).
Mapping greedy_mapping(const TaskGraph& tasks, const MachineGraph& machines);

/// True if `mapping` is a bijection task -> machine of the right size.
bool is_valid_mapping(const Mapping& mapping, std::size_t tasks,
                      std::size_t machines);

/// Elapsed communication time of one communication round under the
/// alpha-beta model (per-task sequential sends, tasks in parallel).
double mapping_cost(const Mapping& mapping, const TaskGraph& tasks,
                    const netmodel::PerformanceMatrix& performance);

/// Total bytes-weighted inverse bandwidth (volume / beta summed over all
/// edges): a secondary score insensitive to per-task serialization.
double mapping_volume_cost(const Mapping& mapping, const TaskGraph& tasks,
                           const netmodel::PerformanceMatrix& performance);

/// A planned mapping and its mapping_cost.
struct MappingPlan {
  Mapping mapping;
  double cost = 0.0;
};

/// The planner behind /plan: a dense uniform task graph over the
/// machines `members` of `performance` (every ordered pair of tasks
/// exchanges `bytes`). The result (mapping[k] indexes `members`) and its
/// cost are bit for bit those of
///   m = greedy_mapping(tasks, MachineGraph::from_performance(sub)),
///   mapping_cost(m, tasks, sub)
/// with sub = performance.restrict_to(members), but the greedy sums and
/// the transfer times are tabulated once. On this task graph every
/// bijection costs the same up to rounding (each task's time is its
/// machine's row sum), so no search follows the greedy order.
/// Deterministic in its inputs (no RNG, no global state); the serving
/// front end memoizes it per (snapshot version, request shape). Throws
/// ContractViolation where the generic pair would (see
/// PerformanceMatrix::weight_matrix), on an empty member set, on zero
/// bytes, and on a size whose double rounds to 2^64 (where the generic
/// pair's integer cast overflows).
MappingPlan plan_mapping(const netmodel::PerformanceMatrix& performance,
                         const std::vector<std::size_t>& members,
                         std::uint64_t bytes);

}  // namespace netconst::mapping
