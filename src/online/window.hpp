// Sliding snapshot window — the online service's TP-matrix.
//
// Keeps the last `capacity` snapshots of one virtual cluster as their
// flattened RPCA input layers (latency and bandwidth), which are the
// window's only copy of them: both layers are allocated at capacity on
// the first push, and once the window is full a push writes exactly one
// N^2 row of each in place (the ring slot of the evicted snapshot)
// instead of re-flattening the whole window. Rows are therefore stored
// in RING order — a rotation of time order — which is invisible to the
// decomposition: RPCA, the mean constant row and Norm(N_E) are all
// row-permutation invariant (see core::assemble_component).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "netmodel/tp_matrix.hpp"

namespace netconst::online {

class SlidingWindow {
 public:
  /// Window of the last `capacity` snapshots (capacity >= 2, so a full
  /// window is always decomposable).
  explicit SlidingWindow(std::size_t capacity);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return times_.size(); }
  bool empty() const { return times_.empty(); }
  bool full() const { return times_.size() == capacity_; }
  /// 0 until the first push.
  std::size_t cluster_size() const;
  /// Total pushes, including snapshots that have since been evicted.
  std::uint64_t pushes() const { return pushes_; }

  /// Append a snapshot taken at `time` (non-decreasing; cluster size
  /// must match the first snapshot). Evicts the oldest when full.
  void push(double time, const netmodel::PerformanceMatrix& snapshot);

  /// Drop all contents; the capacity, the push count and the layers'
  /// storage are kept, and the next push may bind a new cluster size.
  void clear();

  double oldest_time() const;
  double newest_time() const;

  /// Flattened layers, rows in ring-slot order. Valid until the next
  /// push. While the window is filling, rows [0, size) are in time
  /// order; once full, slot ((head + k) mod capacity) holds the k-th
  /// oldest snapshot.
  const linalg::Matrix& latency_data() const;
  const linalg::Matrix& bandwidth_data() const;

  /// Ring slot holding the k-th oldest snapshot (k = 0 is the oldest).
  std::size_t slot_of_age(std::size_t k) const;
  double time_in_slot(std::size_t slot) const;

  /// Rebuild a time-ordered TemporalPerformance of the current contents
  /// from the two layers (an O(size * N^2) copy — for batch consumers
  /// and tests, not the refresh hot path). Every off-diagonal link is
  /// the pushed one, bit for bit (a missing link stays missing); the
  /// diagonal, which flattening drops, is PerformanceMatrix's self-link
  /// placeholder. So the series flattens to latency_data() and
  /// bandwidth_data() in time order exactly.
  netmodel::TemporalPerformance to_series() const;

 private:
  std::size_t capacity_ = 0;
  std::size_t cluster_size_ = 0;  // 0 while empty
  std::size_t head_ = 0;  // slot of the oldest snapshot once full
  std::uint64_t pushes_ = 0;
  std::vector<double> times_;  // ring-aligned with the matrix rows
  linalg::Matrix latency_;    // size x N^2, ring-slot row order
  linalg::Matrix bandwidth_;  // size x N^2, ring-slot row order
};

}  // namespace netconst::online
