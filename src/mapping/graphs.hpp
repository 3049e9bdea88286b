// Task and machine graphs for topology mapping (Hoefler & Snir).
//
// Both are weighted digraphs stored as dense matrices:
//  * TaskGraph   — weight(u, v) is the data volume (bytes) task u sends
//                  to task v per execution;
//  * MachineGraph — weight(i, j) is the bandwidth (bytes/s) of the link
//                  from machine i to machine j (built from a
//                  PerformanceMatrix).
#pragma once

#include <cstdint>

#include "linalg/matrix.hpp"
#include "netmodel/perf_matrix.hpp"
#include "support/rng.hpp"

namespace netconst::mapping {

class TaskGraph {
 public:
  explicit TaskGraph(std::size_t tasks) : volume_(tasks, tasks) {}

  std::size_t size() const { return volume_.rows(); }
  double volume(std::size_t u, std::size_t v) const { return volume_(u, v); }
  void set_volume(std::size_t u, std::size_t v, double bytes);

  /// Vertex weight: total volume on all edges touching `u` (in + out).
  double vertex_weight(std::size_t u) const;


 private:
  linalg::Matrix volume_;
};

/// Random task graph with edge volumes uniform in [min_volume,
/// max_volume] and the given edge density (fraction of ordered pairs
/// with traffic). The paper's experiments use 5-10 MB volumes on a
/// complete graph.
TaskGraph random_task_graph(std::size_t tasks, Rng& rng,
                            double min_volume = 5.0 * 1024 * 1024,
                            double max_volume = 10.0 * 1024 * 1024,
                            double density = 1.0);

/// Ring-of-neighbours task graph (each task talks to its successor),
/// useful as a structured alternative workload.
TaskGraph ring_task_graph(std::size_t tasks, double volume);

/// Dense uniform task graph: every ordered pair of distinct tasks
/// exchanges `volume` (the traffic /plan's topology mapping plans for).
TaskGraph uniform_task_graph(std::size_t tasks, double volume);

class MachineGraph {
 public:
  explicit MachineGraph(std::size_t machines)
      : bandwidth_(machines, machines) {}

  /// Bandwidth view of a performance matrix.
  static MachineGraph from_performance(
      const netmodel::PerformanceMatrix& performance);

  std::size_t size() const { return bandwidth_.rows(); }
  double bandwidth(std::size_t i, std::size_t j) const {
    return bandwidth_(i, j);
  }
  void set_bandwidth(std::size_t i, std::size_t j, double bytes_per_s);

  /// Vertex weight: total bandwidth of all links touching `i`.
  double vertex_weight(std::size_t i) const;

 private:
  linalg::Matrix bandwidth_;
};

}  // namespace netconst::mapping
