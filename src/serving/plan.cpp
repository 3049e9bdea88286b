#include "serving/plan.hpp"

#include <algorithm>
#include <charconv>

#include "collective/collective_ops.hpp"
#include "collective/fnf.hpp"
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

void append_uint(std::string& out, std::uint64_t value) {
  char buffer[24];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
  out.append(buffer, end);
}

/// Reals with round-trip precision: the characters ostream's
/// precision(17) writes (printf's %.17g), non-finite values included.
void append_double(std::string& out, double value) {
  char buffer[32];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                 std::chars_format::general, 17)
                       .ptr;
  out.append(buffer, end);
}

void append_list(std::string& out, const std::vector<std::size_t>& values) {
  out += '[';
  for (std::size_t k = 0; k < values.size(); ++k) {
    if (k > 0) out += ',';
    append_uint(out, values[k]);
  }
  out += ']';
}

void write_plan_json(Plan& plan) {
  std::string& out = plan.json;
  out.reserve(128 + 8 * plan.request.nodes.size() +
              16 * (plan.edges.size() + plan.assignment.size()));
  out += "{\"tenant\":\"";
  out += obs::json_escape(plan.tenant);
  out += "\",\"version\":";
  append_uint(out, plan.version);
  out += ",\"kind\":\"";
  out += plan_kind_name(plan.request.kind);
  out += "\",\"bytes\":";
  append_uint(out, plan.request.bytes);
  out += ",\"nodes\":";
  append_list(out, plan.request.nodes);
  if (plan.request.kind == PlanKind::BroadcastTree) {
    out += ",\"root\":";
    append_uint(out, plan.request.root);
    out += ",\"edges\":[";
    for (std::size_t k = 0; k < plan.edges.size(); ++k) {
      if (k > 0) out += ',';
      out += '[';
      append_uint(out, plan.edges[k].parent);
      out += ',';
      append_uint(out, plan.edges[k].child);
      out += ']';
    }
    out += ']';
  } else {
    out += ",\"assignment\":";
    append_list(out, plan.assignment);
  }
  out += ",\"predicted_seconds\":";
  append_double(out, plan.predicted_seconds);
  out += '}';
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

  if (request.kind == PlanKind::BroadcastTree) {
    // Root position inside the canonical (sorted) node set.
    const std::size_t root_pos = static_cast<std::size_t>(
        std::lower_bound(request.nodes.begin(), request.nodes.end(),
                         request.root) -
        request.nodes.begin());
    const linalg::Matrix weights =
        full.weight_matrix(request.nodes, request.bytes);
    const collective::CommTree tree = collective::fnf_tree(weights, root_pos);
    plan.edges.reserve(request.nodes.size() - 1);
    collect_edges(tree, root_pos, request.nodes, plan.edges);
    plan.predicted_seconds = collective::broadcast_time(tree, weights);
  } else {
    // Dense uniform task graph: every ordered pair exchanges `bytes`.
    const mapping::MappingPlan mapped =
        mapping::plan_mapping(full, request.nodes, request.bytes);
    plan.assignment.reserve(mapped.mapping.size());
    for (const std::size_t machine : mapped.mapping) {
      plan.assignment.push_back(request.nodes[machine]);
    }
    plan.predicted_seconds = mapped.cost;
  }
  write_plan_json(plan);
  return plan;
}

}  // namespace netconst::serving
