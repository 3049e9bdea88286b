// Mapping refinement and exact reference.
//
//  * refine_mapping — pairwise-swap hill climbing on top of any seed
//    mapping (typically the greedy heuristic's output): keep applying
//    the best improving swap of two tasks' machines until a local
//    optimum. A cheap, classic post-pass that the paper's greedy lacks.
//  * optimal_mapping — exhaustive search over all bijections for tiny
//    clusters (n <= 8); the ground-truth reference the property tests
//    compare the heuristics against;
//  * plan_mapping — greedy + refinement for the one traffic pattern the
//    serving front end plans (a dense uniform task graph under
//    mapping_cost), table-driven and bit-identical to the generic pair.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mapping/mapping.hpp"

namespace netconst::mapping {

/// Cost function used by the refinement/search (smaller is better).
using MappingCost =
    std::function<double(const Mapping&, const TaskGraph&,
                         const netmodel::PerformanceMatrix&)>;

struct RefineResult {
  Mapping mapping;
  double cost = 0.0;
  std::size_t swaps = 0;  // improving swaps applied
  /// Candidate swaps whose mapping was costed in full: every candidate
  /// in refine_mapping; in plan_mapping only those its row bound
  /// cannot reject.
  std::size_t evaluations = 0;
};

/// Hill-climb from `seed` by the best improving 2-swap per round; stops
/// at a local optimum or after `max_rounds`.
RefineResult refine_mapping(const Mapping& seed, const TaskGraph& tasks,
                            const netmodel::PerformanceMatrix& performance,
                            const MappingCost& cost = mapping_volume_cost,
                            std::size_t max_rounds = 100);

/// Exhaustive optimum over all task->machine bijections. Requires
/// tasks.size() == performance.size() <= 8.
Mapping optimal_mapping(const TaskGraph& tasks,
                        const netmodel::PerformanceMatrix& performance,
                        const MappingCost& cost = mapping_volume_cost);

/// The planner behind /plan: a dense uniform task graph over the
/// machines `members` of `performance` (every ordered pair of tasks
/// exchanges `bytes`), seeded by greedy_mapping and refined under
/// mapping_cost. The result (mapping[k] indexes `members`), cost and swap
/// count are bit for bit those of
///   refine_mapping(greedy_mapping(tasks, MachineGraph::from_performance(
///                      sub)), tasks, sub, mapping_cost, max_rounds)
/// with sub = performance.restrict_to(members), but the transfer times
/// are tabulated once and a candidate swap is costed in full only when
/// the row of the round's costliest machine, recomputed after the swap,
/// stays below the best cost. Deterministic in its inputs (no RNG, no
/// global state); the serving front end memoizes it per (snapshot
/// version, request shape). Throws ContractViolation where the generic
/// pair would (see PerformanceMatrix::weight_matrix), on an empty member
/// set, on zero bytes, and on a size whose double rounds to 2^64 (where
/// the generic pair's integer cast overflows).
RefineResult plan_mapping(const netmodel::PerformanceMatrix& performance,
                          const std::vector<std::size_t>& members,
                          std::uint64_t bytes, std::size_t max_rounds = 100);

}  // namespace netconst::mapping
