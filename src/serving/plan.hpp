// Plan requests and plans: "the best FNF tree / topology mapping for
// this node set", computed from one published constant snapshot.
//
// A PlanRequest is canonicalized before it is used as a cache key (in
// the plan table of the snapshot it is planned from): the node set is
// sorted and deduplicated, so permuted spellings of the same request
// share one cache entry and one plan. compute_plan() is a pure
// function of (snapshot component, canonical request) — it runs the
// src/mapping and src/collective planners on the transfer times between
// the requested nodes, read straight from the snapshot's performance
// matrix, and serializes the result to JSON exactly once. Serving a
// plan from the cache is therefore byte-identical to planning directly
// at the same snapshot version, which is what the determinism tests
// and bench_serving pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mapping/mapping.hpp"
#include "serving/snapshot_store.hpp"

namespace netconst::serving {

enum class PlanKind {
  /// Fastest-Node-First broadcast tree over the node set (the paper's
  /// collective optimization), rooted at `root`.
  BroadcastTree,
  /// Task -> node topology mapping (the greedy heuristic) for a dense
  /// uniform task graph of `bytes` per ordered pair.
  TopologyMapping,
};

const char* plan_kind_name(PlanKind kind);

struct PlanRequest {
  PlanKind kind = PlanKind::BroadcastTree;
  /// Canonical: sorted ascending, no duplicates, all < cluster size.
  std::vector<std::size_t> nodes;
  /// BroadcastTree only: must be a member of `nodes`.
  std::size_t root = 0;
  /// Message size driving the weight matrix / task volumes.
  std::uint64_t bytes = 8ull * 1024 * 1024;

  bool operator==(const PlanRequest&) const = default;
};

/// Sort + dedup the node set (permuted requests become one key) and
/// validate: >= 2 nodes and, for BroadcastTree, root in the set.
/// Throws ContractViolation on an unsatisfiable request.
PlanRequest canonical_plan_request(PlanKind kind,
                                   std::vector<std::size_t> nodes,
                                   std::size_t root, std::uint64_t bytes);

/// FNV-1a over the canonical request. Allocation-free.
std::uint64_t plan_request_hash(const PlanRequest& request);

/// An immutable computed plan. `json` is the exact HTTP response body —
/// built once at compute time so the cache-hit path serves bytes
/// without formatting (or allocating) anything.
struct Plan {
  PlanRequest request;  // canonical
  std::string tenant;
  std::uint64_t version = 0;  // snapshot version the plan was planned at
  /// BroadcastTree: edges in send order, node ids from the request set.
  struct TreeEdge {
    std::size_t parent = 0;
    std::size_t child = 0;
    bool operator==(const TreeEdge&) const = default;
  };
  std::vector<TreeEdge> edges;
  /// TopologyMapping: task k runs on node assignment[k] (node ids from
  /// the request set).
  std::vector<std::size_t> assignment;
  /// Alpha-beta predicted completion time of the planned operation.
  double predicted_seconds = 0.0;
  std::string json;
};

/// Pure planner: the FNF tree (collective::fnf_tree on the requested
/// nodes' weight matrix) or the topology mapping (mapping::plan_mapping)
/// over the snapshot's constant performance matrix. Requires a canonical
/// request (see canonical_plan_request) whose node ids are all below the
/// snapshot's cluster size; a link between two requested nodes that
/// restrict_to would reject throws ContractViolation.
Plan compute_plan(const ConstantSnapshot& snapshot,
                  const PlanRequest& request);

}  // namespace netconst::serving
