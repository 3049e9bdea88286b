#include "serving/plan.hpp"

#include <algorithm>
#include <sstream>

#include "collective/collective_ops.hpp"
#include "collective/fnf.hpp"
#include "mapping/refine.hpp"
#include "obs/export.hpp"
#include "support/error.hpp"

namespace netconst::serving {

const char* plan_kind_name(PlanKind kind) {
  switch (kind) {
    case PlanKind::BroadcastTree:
      return "broadcast_tree";
    case PlanKind::TopologyMapping:
      return "topology_mapping";
  }
  return "unknown";
}

PlanRequest canonical_plan_request(PlanKind kind,
                                   std::vector<std::size_t> nodes,
                                   std::size_t root, std::uint64_t bytes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  NETCONST_CHECK(nodes.size() >= 2, "a plan needs at least two nodes");
  NETCONST_CHECK(bytes > 0, "message size must be positive");
  if (kind == PlanKind::BroadcastTree) {
    NETCONST_CHECK(
        std::binary_search(nodes.begin(), nodes.end(), root),
        "broadcast root must be a member of the node set");
  }
  PlanRequest request;
  request.kind = kind;
  request.nodes = std::move(nodes);
  request.root = kind == PlanKind::BroadcastTree ? root : 0;
  request.bytes = bytes;
  return request;
}

std::uint64_t plan_request_hash(const PlanRequest& request) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV offset basis
  const auto mix = [&hash](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (byte * 8)) & 0xffu;
      hash *= 1099511628211ull;  // FNV prime
    }
  };
  mix(static_cast<std::uint64_t>(request.kind));
  mix(static_cast<std::uint64_t>(request.root));
  mix(request.bytes);
  mix(static_cast<std::uint64_t>(request.nodes.size()));
  for (const std::size_t node : request.nodes) {
    mix(static_cast<std::uint64_t>(node));
  }
  return hash;
}

namespace {

/// Value formatting shared with the exporters' conventions: integers
/// exact, reals with round-trip precision.
void write_double(std::ostream& out, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  out << os.str();
}

void write_plan_json(Plan& plan) {
  std::ostringstream out;
  out << "{\"tenant\":\"" << obs::json_escape(plan.tenant)
      << "\",\"version\":" << plan.version << ",\"kind\":\""
      << plan_kind_name(plan.request.kind) << "\",\"bytes\":"
      << plan.request.bytes << ",\"nodes\":[";
  for (std::size_t k = 0; k < plan.request.nodes.size(); ++k) {
    if (k > 0) out << ',';
    out << plan.request.nodes[k];
  }
  out << ']';
  if (plan.request.kind == PlanKind::BroadcastTree) {
    out << ",\"root\":" << plan.request.root << ",\"edges\":[";
    for (std::size_t k = 0; k < plan.edges.size(); ++k) {
      if (k > 0) out << ',';
      out << '[' << plan.edges[k].parent << ',' << plan.edges[k].child
          << ']';
    }
    out << ']';
  } else {
    out << ",\"assignment\":[";
    for (std::size_t k = 0; k < plan.assignment.size(); ++k) {
      if (k > 0) out << ',';
      out << plan.assignment[k];
    }
    out << ']';
  }
  out << ",\"predicted_seconds\":";
  write_double(out, plan.predicted_seconds);
  out << '}';
  plan.json = out.str();
}

/// Append the tree's edges in send order (pre-order, children in stored
/// order — the order the alpha-beta cost model charges).
void collect_edges(const collective::CommTree& tree, std::size_t node,
                   const std::vector<std::size_t>& members,
                   std::vector<Plan::TreeEdge>& edges) {
  for (const std::size_t child : tree.children(node)) {
    edges.push_back({members[node], members[child]});
    collect_edges(tree, child, members, edges);
  }
}

}  // namespace

Plan compute_plan(const ConstantSnapshot& snapshot,
                  const PlanRequest& request) {
  const netmodel::PerformanceMatrix& full = snapshot.component.constant;
  NETCONST_CHECK(!request.nodes.empty() &&
                     request.nodes.back() < full.size(),
                 "plan request node ids exceed the tenant's cluster");

  Plan plan;
  plan.request = request;
  plan.tenant = snapshot.tenant;
  plan.version = snapshot.version;

  const netmodel::PerformanceMatrix sub = full.restrict_to(request.nodes);
  if (request.kind == PlanKind::BroadcastTree) {
    // Root position inside the canonical (sorted) node set.
    const std::size_t root_pos = static_cast<std::size_t>(
        std::lower_bound(request.nodes.begin(), request.nodes.end(),
                         request.root) -
        request.nodes.begin());
    const collective::CommTree tree =
        collective::fnf_tree(sub.weight_matrix(request.bytes), root_pos);
    plan.edges.reserve(request.nodes.size() - 1);
    collect_edges(tree, root_pos, request.nodes, plan.edges);
    plan.predicted_seconds = collective::collective_time(
        tree, sub, collective::Collective::Broadcast, request.bytes);
  } else {
    // Dense uniform task graph: every ordered pair exchanges `bytes`.
    mapping::TaskGraph tasks(request.nodes.size());
    for (std::size_t u = 0; u < request.nodes.size(); ++u) {
      for (std::size_t v = 0; v < request.nodes.size(); ++v) {
        if (u != v) tasks.set_volume(u, v, static_cast<double>(request.bytes));
      }
    }
    const mapping::RefineResult refined =
        mapping::plan_mapping(tasks, sub, mapping::mapping_cost);
    plan.assignment.reserve(refined.mapping.size());
    for (const std::size_t machine : refined.mapping) {
      plan.assignment.push_back(request.nodes[machine]);
    }
    plan.predicted_seconds = refined.cost;
  }
  write_plan_json(plan);
  return plan;
}

}  // namespace netconst::serving
