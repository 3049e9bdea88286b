#include "mapping/graphs.hpp"

#include "support/error.hpp"

namespace netconst::mapping {

void TaskGraph::set_volume(std::size_t u, std::size_t v, double bytes) {
  NETCONST_CHECK(u < size() && v < size(), "task index out of range");
  NETCONST_CHECK(u != v, "self-communication is free");
  NETCONST_CHECK(bytes >= 0.0, "volume must be non-negative");
  volume_(u, v) = bytes;
}

double TaskGraph::vertex_weight(std::size_t u) const {
  NETCONST_CHECK(u < size(), "task index out of range");
  double total = 0.0;
  for (std::size_t v = 0; v < size(); ++v) {
    total += volume_(u, v) + volume_(v, u);
  }
  return total;
}

TaskGraph random_task_graph(std::size_t tasks, Rng& rng, double min_volume,
                            double max_volume, double density) {
  NETCONST_CHECK(tasks >= 2, "need at least two tasks");
  NETCONST_CHECK(min_volume >= 0.0 && max_volume >= min_volume,
                 "invalid volume range");
  NETCONST_CHECK(density >= 0.0 && density <= 1.0, "invalid density");
  TaskGraph g(tasks);
  for (std::size_t u = 0; u < tasks; ++u) {
    for (std::size_t v = 0; v < tasks; ++v) {
      if (u == v) continue;
      if (density < 1.0 && !rng.bernoulli(density)) continue;
      g.set_volume(u, v, rng.uniform(min_volume, max_volume));
    }
  }
  return g;
}

TaskGraph ring_task_graph(std::size_t tasks, double volume) {
  NETCONST_CHECK(tasks >= 2, "need at least two tasks");
  TaskGraph g(tasks);
  for (std::size_t u = 0; u < tasks; ++u) {
    g.set_volume(u, (u + 1) % tasks, volume);
  }
  return g;
}

TaskGraph uniform_task_graph(std::size_t tasks, double volume) {
  TaskGraph g(tasks);
  for (std::size_t u = 0; u < tasks; ++u) {
    for (std::size_t v = 0; v < tasks; ++v) {
      if (u != v) g.set_volume(u, v, volume);
    }
  }
  return g;
}

MachineGraph MachineGraph::from_performance(
    const netmodel::PerformanceMatrix& performance) {
  MachineGraph g(performance.size());
  for (std::size_t i = 0; i < performance.size(); ++i) {
    for (std::size_t j = 0; j < performance.size(); ++j) {
      if (i == j) continue;
      g.set_bandwidth(i, j, performance.link(i, j).beta);
    }
  }
  return g;
}

void MachineGraph::set_bandwidth(std::size_t i, std::size_t j,
                                 double bytes_per_s) {
  NETCONST_CHECK(i < size() && j < size(), "machine index out of range");
  NETCONST_CHECK(i != j, "self-links are not stored");
  NETCONST_CHECK(bytes_per_s > 0.0, "bandwidth must be positive");
  bandwidth_(i, j) = bytes_per_s;
}

double MachineGraph::vertex_weight(std::size_t i) const {
  NETCONST_CHECK(i < size(), "machine index out of range");
  double total = 0.0;
  for (std::size_t j = 0; j < size(); ++j) {
    total += bandwidth_(i, j) + bandwidth_(j, i);
  }
  return total;
}

}  // namespace netconst::mapping
