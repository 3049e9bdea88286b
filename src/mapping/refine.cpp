#include "mapping/refine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "support/error.hpp"

namespace netconst::mapping {

RefineResult refine_mapping(const Mapping& seed, const TaskGraph& tasks,
                            const netmodel::PerformanceMatrix& performance,
                            const MappingCost& cost,
                            std::size_t max_rounds) {
  NETCONST_CHECK(
      is_valid_mapping(seed, tasks.size(), performance.size()),
      "refinement needs a valid seed mapping");
  RefineResult result;
  result.mapping = seed;
  result.cost = cost(result.mapping, tasks, performance);

  const std::size_t n = seed.size();
  for (std::size_t round = 0; round < max_rounds; ++round) {
    double best_cost = result.cost;
    std::size_t best_u = n, best_v = n;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        std::swap(result.mapping[u], result.mapping[v]);
        const double c = cost(result.mapping, tasks, performance);
        std::swap(result.mapping[u], result.mapping[v]);
        ++result.evaluations;
        if (c < best_cost) {
          best_cost = c;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_u == n) break;  // local optimum
    std::swap(result.mapping[best_u], result.mapping[best_v]);
    result.cost = best_cost;
    ++result.swaps;
  }
  return result;
}

Mapping optimal_mapping(const TaskGraph& tasks,
                        const netmodel::PerformanceMatrix& performance,
                        const MappingCost& cost) {
  const std::size_t n = tasks.size();
  NETCONST_CHECK(n == performance.size(),
                 "task and machine counts must match");
  NETCONST_CHECK(n <= 8, "exhaustive mapping is limited to n <= 8");
  Mapping current(n);
  std::iota(current.begin(), current.end(), std::size_t{0});
  Mapping best = current;
  double best_cost = std::numeric_limits<double>::infinity();
  do {
    const double c = cost(current, tasks, performance);
    if (c < best_cost) {
      best_cost = c;
      best = current;
    }
  } while (std::next_permutation(current.begin(), current.end()));
  return best;
}

namespace {

/// One task's time under mapping_cost on a dense uniform task graph: its
/// sends to every other task, summed in task order. `time` holds the
/// transfer time of the uniform volume between every pair of machines.
double task_time(const linalg::Matrix& time, const Mapping& mapping,
                 std::size_t task) {
  const std::size_t machine = mapping[task];
  double total = 0.0;
  for (std::size_t v = 0; v < mapping.size(); ++v) {
    if (v != task) total += time(machine, mapping[v]);
  }
  return total;
}

/// mapping_cost of `mapping`: the costliest task's time. `hot` receives
/// the first task that has it.
double uniform_cost(const linalg::Matrix& time, const Mapping& mapping,
                    std::size_t& hot) {
  double worst = 0.0;
  hot = 0;
  for (std::size_t u = 0; u < mapping.size(); ++u) {
    const double t = task_time(time, mapping, u);
    if (worst < t) {
      worst = t;
      hot = u;
    }
  }
  return worst;
}

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
  // greedy_mapping scans and sums them in.
  std::vector<std::size_t> placed, unplaced(n);
  for (std::size_t i = 0; i < n; ++i) unplaced[i] = i;
  placed.reserve(n);
  Mapping order;
  order.reserve(n);

  // Seed: the heaviest machine vertex; then each step the unplaced
  // machine most strongly connected to the placed ones.
  std::size_t best = n;
  double best_weight = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    double weight = 0.0;
    for (std::size_t j = 0; j < n; ++j) weight += both(i, j);
    if (weight > best_weight) {
      best_weight = weight;
      best = i;
    }
  }
  for (;;) {
    NETCONST_ASSERT(best < n);
    order.push_back(best);
    placed.insert(std::lower_bound(placed.begin(), placed.end(), best),
                  best);
    unplaced.erase(std::find(unplaced.begin(), unplaced.end(), best));
    if (unplaced.empty()) return order;
    best = n;
    best_weight = -1.0;
    for (const std::size_t i : unplaced) {
      double weight = 0.0;
      for (const std::size_t j : placed) weight += both(i, j);
      if (weight > best_weight) {
        best_weight = weight;
        best = i;
      }
    }
  }
}

}  // namespace

RefineResult plan_mapping(const netmodel::PerformanceMatrix& performance,
                          const std::vector<std::size_t>& members,
                          std::uint64_t bytes, std::size_t max_rounds) {
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

  RefineResult result;
  result.mapping = uniform_greedy(performance, members);
  std::size_t hot = 0;
  result.cost = uniform_cost(time, result.mapping, hot);

  // refine_mapping's hill climb. Every task's time is a term of the cost
  // (a max), so a candidate whose recomputed row for the round's
  // costliest machine already reaches the best cost cannot win; that
  // machine moves with the swap, and its row is summed in the order
  // mapping_cost sums it, so the rejection is exact.
  Mapping& m = result.mapping;
  const std::size_t n = m.size();
  for (std::size_t round = 0; round < max_rounds; ++round) {
    double best_cost = result.cost;
    std::size_t best_u = n, best_v = n;
    for (std::size_t u = 0; u < n; ++u) {
      for (std::size_t v = u + 1; v < n; ++v) {
        std::swap(m[u], m[v]);
        const std::size_t holder = hot == u ? v : hot == v ? u : hot;
        double c = task_time(time, m, holder);
        if (c < best_cost) {
          std::size_t unused = 0;
          c = uniform_cost(time, m, unused);
          ++result.evaluations;
        }
        std::swap(m[u], m[v]);
        if (c < best_cost) {
          best_cost = c;
          best_u = u;
          best_v = v;
        }
      }
    }
    if (best_u == n) break;  // local optimum
    std::swap(m[best_u], m[best_v]);
    result.cost = uniform_cost(time, m, hot);
    ++result.swaps;
  }
  NETCONST_CHECK(is_valid_mapping(m, n, n), "invalid mapping");
  return result;
}

}  // namespace netconst::mapping
