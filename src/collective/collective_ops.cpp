#include "collective/collective_ops.hpp"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "support/error.hpp"

namespace netconst::collective {
namespace {

bool is_down_direction(Collective op) {
  return op == Collective::Broadcast || op == Collective::Scatter;
}

bool is_per_subtree_payload(Collective op) {
  return op == Collective::Scatter || op == Collective::Gather;
}

// Edge payload for the (parent -> child) tree edge.
std::uint64_t edge_bytes(const CommTree& tree, std::size_t child,
                         Collective op, std::uint64_t bytes) {
  if (!is_per_subtree_payload(op)) return bytes;
  return bytes * static_cast<std::uint64_t>(tree.subtree_size(child));
}

// Directed transfer time of a tree edge under the collective's data-flow
// direction (down the tree for broadcast/scatter, up for reduce/gather).
double edge_time(const CommTree& tree,
                 const netmodel::PerformanceMatrix& performance,
                 std::size_t parent, std::size_t child, Collective op,
                 std::uint64_t bytes) {
  const std::uint64_t payload = edge_bytes(tree, child, op, bytes);
  return is_down_direction(op)
             ? performance.transfer_time(parent, child, payload)
             : performance.transfer_time(child, parent, payload);
}

// Completion of the downward phase rooted at `node`, which starts when
// `node` has the data at `ready`; edge_cost(parent, child) is the
// directed transfer time of a tree edge.
template <typename EdgeCost>
double down_completion(const CommTree& tree, const EdgeCost& edge_cost,
                       std::size_t node, double ready) {
  double completion = ready;
  double send_start = ready;
  for (std::size_t child : tree.children(node)) {
    send_start += edge_cost(node, child);  // sequential sends, stored order
    completion = std::max(
        completion, down_completion(tree, edge_cost, child, send_start));
  }
  return completion;
}

// Time at which `node` has finished receiving its whole subtree's data
// in the upward phase (reduce/gather). Children transmit as soon as
// their own subtrees are done; the parent receives them sequentially in
// the REVERSE of the downward send order — the exact time-mirror of the
// broadcast/scatter schedule, which makes the dual operations cost the
// same on a symmetric network.
double up_completion(const CommTree& tree,
                     const netmodel::PerformanceMatrix& performance,
                     std::size_t node, Collective op, std::uint64_t bytes) {
  double receive_free_at = 0.0;  // parent's receive port availability
  double done = 0.0;
  const auto& kids = tree.children(node);
  for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
    const std::size_t child = *it;
    const double child_done =
        up_completion(tree, performance, child, op, bytes);
    const double cost = edge_time(tree, performance, node, child, op, bytes);
    const double start = std::max(receive_free_at, child_done);
    receive_free_at = start + cost;
    done = std::max(done, start + cost);
  }
  return done;
}

}  // namespace

const char* collective_name(Collective op) {
  switch (op) {
    case Collective::Broadcast:
      return "broadcast";
    case Collective::Scatter:
      return "scatter";
    case Collective::Reduce:
      return "reduce";
    case Collective::Gather:
      return "gather";
  }
  return "unknown";
}

double collective_time(const CommTree& tree,
                       const netmodel::PerformanceMatrix& performance,
                       Collective op, std::uint64_t bytes) {
  NETCONST_CHECK(tree.complete(), "collective over an incomplete tree");
  NETCONST_CHECK(tree.size() == performance.size(),
                 "tree size does not match the performance matrix");
  if (is_down_direction(op)) {
    const auto edge_cost = [&](std::size_t parent, std::size_t child) {
      return edge_time(tree, performance, parent, child, op, bytes);
    };
    return down_completion(tree, edge_cost, tree.root(), 0.0);
  }
  return up_completion(tree, performance, tree.root(), op, bytes);
}

double broadcast_time(const CommTree& tree, const linalg::Matrix& weights) {
  NETCONST_CHECK(tree.complete(), "collective over an incomplete tree");
  NETCONST_CHECK(weights.rows() == tree.size() &&
                     weights.cols() == tree.size(),
                 "tree size does not match the weight matrix");
  const auto edge_cost = [&](std::size_t parent, std::size_t child) {
    return weights(parent, child);
  };
  return down_completion(tree, edge_cost, tree.root(), 0.0);
}

double all_to_all_time(const CommTree& tree,
                       const netmodel::PerformanceMatrix& performance,
                       std::uint64_t bytes) {
  const double gather =
      collective_time(tree, performance, Collective::Gather, bytes);
  const double broadcast =
      collective_time(tree, performance, Collective::Broadcast,
                      bytes * static_cast<std::uint64_t>(tree.size()));
  return gather + broadcast;
}

double run_collective_sim(simnet::FlowSimulator& simulator,
                          const std::vector<simnet::NodeId>& hosts,
                          const CommTree& tree, Collective op,
                          std::uint64_t bytes) {
  NETCONST_CHECK(tree.complete(), "collective over an incomplete tree");
  NETCONST_CHECK(tree.size() == hosts.size(),
                 "tree size does not match the host list");
  const double start = simulator.now();

  // Per-node outgoing send queues in stored child order.
  struct Send {
    std::size_t from = 0;
    std::size_t to = 0;
    std::uint64_t payload = 0;
  };
  std::vector<std::vector<Send>> queue(tree.size());
  std::vector<std::size_t> next_send(tree.size(), 0);
  std::unordered_map<simnet::FlowId, Send> in_flight;

  if (is_down_direction(op)) {
    for (std::size_t node = 0; node < tree.size(); ++node) {
      for (std::size_t child : tree.children(node)) {
        queue[node].push_back(
            {node, child, edge_bytes(tree, child, op, bytes)});
      }
    }
    auto launch_next = [&](std::size_t node) {
      if (next_send[node] >= queue[node].size()) return;
      const Send send = queue[node][next_send[node]++];
      const simnet::FlowId id =
          simulator.inject(hosts[send.from], hosts[send.to], send.payload);
      in_flight.emplace(id, send);
    };
    simulator.set_completion_callback(
        [&](simnet::FlowId id, double /*time*/) {
          const auto it = in_flight.find(id);
          if (it == in_flight.end()) return;  // not one of ours
          const Send done = it->second;
          in_flight.erase(it);
          launch_next(done.from);  // sender proceeds to its next child
          launch_next(done.to);    // receiver starts forwarding
        });
    launch_next(tree.root());
    // Drain while launch_next and the queues are still in scope: the
    // callback holds references to them.
    simulator.run_until_idle();
    simulator.set_completion_callback({});
  } else {
    // Upward phase: a node sends to its parent once all of its children
    // have delivered. Leaves start immediately.
    std::vector<std::size_t> waiting(tree.size(), 0);
    for (std::size_t node = 0; node < tree.size(); ++node) {
      waiting[node] = tree.children(node).size();
    }
    auto launch_up = [&](std::size_t node) {
      if (node == tree.root()) return;
      const std::size_t parent = *tree.parent(node);
      const Send send{node, parent, edge_bytes(tree, node, op, bytes)};
      const simnet::FlowId id =
          simulator.inject(hosts[send.from], hosts[send.to], send.payload);
      in_flight.emplace(id, send);
    };
    simulator.set_completion_callback(
        [&](simnet::FlowId id, double /*time*/) {
          const auto it = in_flight.find(id);
          if (it == in_flight.end()) return;
          const Send done = it->second;
          in_flight.erase(it);
          NETCONST_ASSERT(waiting[done.to] > 0);
          if (--waiting[done.to] == 0) launch_up(done.to);
        });
    for (std::size_t node = 0; node < tree.size(); ++node) {
      if (waiting[node] == 0) launch_up(node);
    }
    // Drain while waiting/launch_up are still in scope (see above).
    simulator.run_until_idle();
    simulator.set_completion_callback({});
  }

  return simulator.now() - start;
}

}  // namespace netconst::collective
