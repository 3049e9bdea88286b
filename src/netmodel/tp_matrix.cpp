#include "netmodel/tp_matrix.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace netconst::netmodel {

void TemporalPerformance::append(double time, PerformanceMatrix snapshot) {
  NETCONST_CHECK(snapshot.size() > 0, "empty snapshot");
  if (!snapshots_.empty()) {
    NETCONST_CHECK(snapshot.size() == snapshots_.front().size(),
                   "snapshot cluster size changed");
    NETCONST_CHECK(time >= times_.back(),
                   "snapshots must be appended in time order");
  }
  times_.push_back(time);
  snapshots_.push_back(std::move(snapshot));
}

std::size_t TemporalPerformance::cluster_size() const {
  return snapshots_.empty() ? 0 : snapshots_.front().size();
}

double TemporalPerformance::time_at(std::size_t row) const {
  NETCONST_CHECK(row < times_.size(), "row out of range");
  return times_[row];
}

const PerformanceMatrix& TemporalPerformance::snapshot(
    std::size_t row) const {
  NETCONST_CHECK(row < snapshots_.size(), "row out of range");
  return snapshots_[row];
}

const PerformanceMatrix& TemporalPerformance::at_time(double t) const {
  NETCONST_CHECK(!snapshots_.empty(), "at_time on empty series");
  auto it = std::upper_bound(times_.begin(), times_.end(), t);
  if (it == times_.begin()) return snapshots_.front();
  const auto idx = static_cast<std::size_t>(it - times_.begin()) - 1;
  return snapshots_[idx];
}

void TemporalPerformance::flatten_snapshot(const PerformanceMatrix& snapshot,
                                           Field field, std::span<double> out,
                                           std::uint64_t reference_bytes) {
  const std::size_t n = snapshot.size();
  NETCONST_CHECK(n > 0, "flatten of an empty snapshot");
  NETCONST_CHECK(out.size() == n * n,
                 "flatten_snapshot output span must be N^2 wide");
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) {
        // Self-links are a storage placeholder (huge bandwidth), not a
        // measurement; leaving them in would dominate the norms and
        // thresholds of everything downstream (RPCA, Norm(N_E)).
        out[i * n + j] = 0.0;
        continue;
      }
      double value = 0.0;
      switch (field) {
        case Field::Latency:
          value = snapshot.latency()(i, j);
          break;
        case Field::Bandwidth:
          value = snapshot.bandwidth()(i, j);
          break;
        case Field::TransferTime:
          value = snapshot.transfer_time(i, j, reference_bytes);
          break;
      }
      out[i * n + j] = value;
    }
  }
}

linalg::Matrix TemporalPerformance::flatten(
    Field field, std::uint64_t reference_bytes) const {
  NETCONST_CHECK(!snapshots_.empty(), "flatten of empty series");
  const std::size_t n = cluster_size();
  linalg::Matrix flat(snapshots_.size(), n * n);
  for (std::size_t r = 0; r < snapshots_.size(); ++r) {
    flatten_snapshot(snapshots_[r], field, flat.row(r), reference_bytes);
  }
  return flat;
}

linalg::Matrix TemporalPerformance::unflatten_row(const linalg::Matrix& flat,
                                                  std::size_t row,
                                                  std::size_t cluster_size) {
  NETCONST_CHECK(row < flat.rows(), "row out of range");
  NETCONST_CHECK(flat.cols() == cluster_size * cluster_size,
                 "flattened width does not match cluster size");
  linalg::Matrix m(cluster_size, cluster_size);
  const auto src = flat.row(row);
  for (std::size_t i = 0; i < cluster_size; ++i) {
    for (std::size_t j = 0; j < cluster_size; ++j) {
      m(i, j) = src[i * cluster_size + j];
    }
  }
  return m;
}

void TemporalPerformance::keep_last(std::size_t rows) {
  if (snapshots_.size() <= rows) return;
  const std::size_t drop = snapshots_.size() - rows;
  snapshots_.erase(snapshots_.begin(),
                   snapshots_.begin() + static_cast<std::ptrdiff_t>(drop));
  times_.erase(times_.begin(),
               times_.begin() + static_cast<std::ptrdiff_t>(drop));
}

PerformanceMatrix matrices_to_performance(const linalg::Matrix& latency,
                                          const linalg::Matrix& bandwidth) {
  // Accept either N x N matrices or 1 x N^2 flattened rows: both hold
  // link (i, j) at flat index i * N + j, so they are read in place.
  const auto side = [](const linalg::Matrix& m) -> std::size_t {
    if (m.rows() == m.cols()) return m.rows();
    NETCONST_CHECK(m.rows() == 1, "expected square matrix or single row");
    const auto n = static_cast<std::size_t>(
        std::llround(std::sqrt(static_cast<double>(m.cols()))));
    NETCONST_CHECK(n * n == m.cols(), "row length is not a perfect square");
    return n;
  };
  const std::size_t n = side(latency);
  NETCONST_CHECK(side(bandwidth) == n, "latency/bandwidth shape mismatch");
  const auto lat = [&latency, n](std::size_t i, std::size_t j) {
    return latency.data()[i * n + j];
  };
  const auto bw = [&bandwidth, n](std::size_t i, std::size_t j) {
    return bandwidth.data()[i * n + j];
  };

  PerformanceMatrix p(n);
  // Clamp to physically meaningful values: RPCA's low-rank component can
  // slightly undershoot zero on latency or bandwidth.
  double min_positive_bw = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && bw(i, j) > 0.0) {
        min_positive_bw = std::min(min_positive_bw == 1.0 ? bw(i, j)
                                                          : min_positive_bw,
                                   bw(i, j));
      }
    }
  }
  const double bw_floor = min_positive_bw * 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      LinkParams link;
      link.alpha = std::max(lat(i, j), 0.0);
      link.beta = std::max(bw(i, j), bw_floor);
      p.set_link(i, j, link);
    }
  }
  return p;
}

}  // namespace netconst::netmodel
