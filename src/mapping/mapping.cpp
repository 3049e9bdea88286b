#include "mapping/mapping.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/error.hpp"

namespace netconst::mapping {

Mapping ring_mapping(std::size_t tasks) {
  Mapping m(tasks);
  for (std::size_t k = 0; k < tasks; ++k) m[k] = k;
  return m;
}

Mapping greedy_mapping(const TaskGraph& tasks,
                       const MachineGraph& machines) {
  const std::size_t n = tasks.size();
  NETCONST_CHECK(machines.size() == n,
                 "task and machine counts must match");
  constexpr auto kUnmapped = std::numeric_limits<std::size_t>::max();
  Mapping task_to_machine(n, kUnmapped);

  auto heaviest = [](auto&& weight, const std::vector<bool>& used,
                     std::size_t count) {
    std::size_t best = count;
    double best_weight = -1.0;
    for (std::size_t k = 0; k < count; ++k) {
      if (used[k]) continue;
      const double w = weight(k);
      if (w > best_weight) {
        best_weight = w;
        best = k;
      }
    }
    return best;
  };

  std::vector<bool> machine_used(n, false), task_used(n, false);

  // Seed: heaviest machine vertex <- heaviest task vertex.
  const std::size_t v0 = heaviest(
      [&](std::size_t i) { return machines.vertex_weight(i); },
      machine_used, n);
  const std::size_t s0 = heaviest(
      [&](std::size_t u) { return tasks.vertex_weight(u); }, task_used, n);
  machine_used[v0] = true;
  task_used[s0] = true;
  task_to_machine[s0] = v0;

  // Expansion: next machine = unmapped machine with the strongest total
  // connection to the mapped machines; next task = unmapped task with
  // the heaviest total connection to the tasks already placed on those
  // mapped machines.
  for (std::size_t placed = 1; placed < n; ++placed) {
    std::size_t best_machine = n;
    double best_bw = -1.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (machine_used[i]) continue;
      double bw = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (!machine_used[j]) continue;
        bw += machines.bandwidth(i, j) + machines.bandwidth(j, i);
      }
      if (bw > best_bw) {
        best_bw = bw;
        best_machine = i;
      }
    }
    std::size_t best_task = n;
    double best_volume = -1.0;
    for (std::size_t u = 0; u < n; ++u) {
      if (task_used[u]) continue;
      double vol = 0.0;
      for (std::size_t w = 0; w < n; ++w) {
        if (!task_used[w]) continue;
        vol += tasks.volume(u, w) + tasks.volume(w, u);
      }
      if (vol > best_volume) {
        best_volume = vol;
        best_task = u;
      }
    }
    NETCONST_ASSERT(best_machine < n && best_task < n);
    machine_used[best_machine] = true;
    task_used[best_task] = true;
    task_to_machine[best_task] = best_machine;
  }
  return task_to_machine;
}

bool is_valid_mapping(const Mapping& mapping, std::size_t tasks,
                      std::size_t machines) {
  if (mapping.size() != tasks) return false;
  std::vector<bool> used(machines, false);
  for (std::size_t machine : mapping) {
    if (machine >= machines || used[machine]) return false;
    used[machine] = true;
  }
  return true;
}

double mapping_cost(const Mapping& mapping, const TaskGraph& tasks,
                    const netmodel::PerformanceMatrix& performance) {
  NETCONST_CHECK(
      is_valid_mapping(mapping, tasks.size(), performance.size()),
      "invalid mapping");
  double worst = 0.0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    double task_time = 0.0;
    for (std::size_t v = 0; v < tasks.size(); ++v) {
      if (u == v) continue;
      const double volume = tasks.volume(u, v);
      if (volume <= 0.0) continue;
      task_time += performance.transfer_time(
          mapping[u], mapping[v], static_cast<std::uint64_t>(volume));
    }
    worst = std::max(worst, task_time);
  }
  return worst;
}

double mapping_volume_cost(const Mapping& mapping, const TaskGraph& tasks,
                           const netmodel::PerformanceMatrix& performance) {
  NETCONST_CHECK(
      is_valid_mapping(mapping, tasks.size(), performance.size()),
      "invalid mapping");
  double total = 0.0;
  for (std::size_t u = 0; u < tasks.size(); ++u) {
    for (std::size_t v = 0; v < tasks.size(); ++v) {
      if (u == v) continue;
      const double volume = tasks.volume(u, v);
      if (volume <= 0.0) continue;
      total += volume / performance.link(mapping[u], mapping[v]).beta;
    }
  }
  return total;
}

namespace {

/// greedy_mapping's order over machines for a uniform task graph: every
/// task weighs the same, so the strict '>' places tasks 0, 1, 2, ... in
/// turn and task k gets the k-th machine the expansion picks.
Mapping uniform_greedy(const netmodel::PerformanceMatrix& performance,
                       const std::vector<std::size_t>& members) {
  const std::size_t n = members.size();
  // The term every greedy sum adds for machines i and j:
  // MachineGraph::from_performance(sub)'s bw(i, j) + bw(j, i), symmetric
  // (addition commutes exactly), zero on the diagonal (adds nothing).
  const linalg::Matrix& bandwidth = performance.bandwidth();
  linalg::Matrix both(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      both(i, j) = both(j, i) = bandwidth(members[i], members[j]) +
                                bandwidth(members[j], members[i]);
    }
  }
  // Placed and unplaced machines, each in ascending order: the order
  // greedy_mapping scans and sums them in. Each step takes the unplaced
  // machine most strongly connected to the placed ones; the seed, the
  // heaviest machine vertex, is that step with every machine counted as
  // placed.
  std::vector<std::size_t> placed(n), unplaced(n);
  std::iota(placed.begin(), placed.end(), std::size_t{0});
  std::iota(unplaced.begin(), unplaced.end(), std::size_t{0});
  Mapping order;
  order.reserve(n);
  while (!unplaced.empty()) {
    std::size_t best = n;
    double best_weight = -1.0;
    for (const std::size_t i : unplaced) {
      double weight = 0.0;
      for (const std::size_t j : placed) weight += both(i, j);
      if (weight > best_weight) {
        best_weight = weight;
        best = i;
      }
    }
    NETCONST_ASSERT(best < n);
    if (order.empty()) placed.clear();
    order.push_back(best);
    placed.insert(std::lower_bound(placed.begin(), placed.end(), best),
                  best);
    unplaced.erase(std::find(unplaced.begin(), unplaced.end(), best));
  }
  return order;
}

}  // namespace

MappingPlan plan_mapping(const netmodel::PerformanceMatrix& performance,
                         const std::vector<std::size_t>& members,
                         std::uint64_t bytes) {
  NETCONST_CHECK(!members.empty(), "a mapping needs at least one machine");
  // mapping_cost's transfer times, from the same expression: the task
  // graph holds the volume as a double and the cost model casts it back
  // to an integer. The round trip is an identity, except that a size
  // within 2^10 of 2^64 rounds to 2^64, which no integer holds.
  const double volume = static_cast<double>(bytes);
  NETCONST_CHECK(bytes > 0 && volume < 0x1p64,
                 "message size must be positive and below 2^64 - 2^10");
  const linalg::Matrix time = performance.weight_matrix(
      members, static_cast<std::uint64_t>(volume));

  MappingPlan plan;
  plan.mapping = uniform_greedy(performance, members);
  // mapping_cost: the costliest task's sends to every other task, each
  // task's summed in task order.
  const Mapping& m = plan.mapping;
  for (std::size_t u = 0; u < m.size(); ++u) {
    double task_time = 0.0;
    for (std::size_t v = 0; v < m.size(); ++v) {
      if (v != u) task_time += time(m[u], m[v]);
    }
    plan.cost = std::max(plan.cost, task_time);
  }
  return plan;
}

}  // namespace netconst::mapping
