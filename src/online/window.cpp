#include "online/window.hpp"

#include <utility>

#include "support/error.hpp"

namespace netconst::online {

SlidingWindow::SlidingWindow(std::size_t capacity) : capacity_(capacity) {
  NETCONST_CHECK(capacity >= 2,
                 "window capacity must be >= 2 (RPCA needs two rows)");
}

std::size_t SlidingWindow::cluster_size() const { return cluster_size_; }

void SlidingWindow::push(double time,
                         const netmodel::PerformanceMatrix& snapshot) {
  NETCONST_CHECK(snapshot.size() > 0, "empty snapshot");
  if (!times_.empty()) {
    NETCONST_CHECK(snapshot.size() == cluster_size_,
                   "snapshot cluster size changed");
    NETCONST_CHECK(time >= newest_time(),
                   "snapshots must be pushed in time order");
  }
  const std::size_t n2 = snapshot.size() * snapshot.size();

  std::size_t slot;
  if (!full()) {
    // Growth phase: one more row. The first push sizes both layers at
    // capacity, so the later rows fit without a reallocation or a copy
    // (Matrix::resize keeps the leading rows and the storage).
    slot = times_.size();
    if (slot == 0) {
      cluster_size_ = snapshot.size();
      times_.reserve(capacity_);
      latency_.resize(capacity_, n2);
      bandwidth_.resize(capacity_, n2);
    }
    times_.push_back(time);
    latency_.resize(times_.size(), n2);
    bandwidth_.resize(times_.size(), n2);
  } else {
    // Steady state: overwrite the oldest slot in place.
    slot = head_;
    head_ = (head_ + 1) % capacity_;
    times_[slot] = time;
  }
  netmodel::TemporalPerformance::flatten_snapshot(
      snapshot, netmodel::Field::Latency, latency_.row(slot));
  netmodel::TemporalPerformance::flatten_snapshot(
      snapshot, netmodel::Field::Bandwidth, bandwidth_.row(slot));
  ++pushes_;
}

void SlidingWindow::clear() {
  times_.clear();
  latency_.resize(0, 0);
  bandwidth_.resize(0, 0);
  cluster_size_ = 0;
  head_ = 0;
}

double SlidingWindow::oldest_time() const {
  NETCONST_CHECK(!empty(), "oldest_time of an empty window");
  return times_[slot_of_age(0)];
}

double SlidingWindow::newest_time() const {
  NETCONST_CHECK(!empty(), "newest_time of an empty window");
  return times_[slot_of_age(times_.size() - 1)];
}

const linalg::Matrix& SlidingWindow::latency_data() const {
  NETCONST_CHECK(!empty(), "latency_data of an empty window");
  return latency_;
}

const linalg::Matrix& SlidingWindow::bandwidth_data() const {
  NETCONST_CHECK(!empty(), "bandwidth_data of an empty window");
  return bandwidth_;
}

std::size_t SlidingWindow::slot_of_age(std::size_t k) const {
  NETCONST_CHECK(k < times_.size(), "age out of range");
  if (!full()) return k;  // growth phase stores in time order
  return (head_ + k) % capacity_;
}

double SlidingWindow::time_in_slot(std::size_t slot) const {
  NETCONST_CHECK(slot < times_.size(), "slot out of range");
  return times_[slot];
}

netmodel::TemporalPerformance SlidingWindow::to_series() const {
  netmodel::TemporalPerformance series;
  const std::size_t n = cluster_size_;
  for (std::size_t k = 0; k < times_.size(); ++k) {
    const std::size_t slot = slot_of_age(k);
    const auto latency = latency_.row(slot);
    const auto bandwidth = bandwidth_.row(slot);
    netmodel::PerformanceMatrix snapshot(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        snapshot.latency()(i, j) = latency[i * n + j];
        snapshot.bandwidth()(i, j) = bandwidth[i * n + j];
      }
    }
    series.append(times_[slot], std::move(snapshot));
  }
  return series;
}

}  // namespace netconst::online
