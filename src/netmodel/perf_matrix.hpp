// The paper's performance matrix: pair-wise alpha-beta parameters of a
// virtual cluster of N instances at one point in time. Two N x N layers
// (latency L and bandwidth B), with the diagonal defined as a free
// self-link (alpha 0, infinite-bandwidth stand-in).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "netmodel/alpha_beta.hpp"

namespace netconst::netmodel {

class PerformanceMatrix {
 public:
  PerformanceMatrix() = default;

  /// N-instance matrix with every off-diagonal link set to `defaults`.
  explicit PerformanceMatrix(std::size_t size,
                             LinkParams defaults = {1e-4, 1e8});

  std::size_t size() const { return size_; }

  /// Parameters of the directed link i -> j. i == j returns the free
  /// self-link.
  LinkParams link(std::size_t i, std::size_t j) const;
  void set_link(std::size_t i, std::size_t j, LinkParams params);

  /// Mark the directed link i -> j as missing (calibration lost it):
  /// both layers are set to the NaN sentinel. set_link() deliberately
  /// rejects non-finite parameters, so this is the only way a hole
  /// enters a matrix — it is always an explicit decision.
  void mark_link_missing(std::size_t i, std::size_t j);
  bool link_missing(std::size_t i, std::size_t j) const;
  /// Number of missing off-diagonal links.
  std::size_t missing_links() const;

  /// Transfer time of `bytes` from i to j under the alpha-beta model.
  double transfer_time(std::size_t i, std::size_t j,
                       std::uint64_t bytes) const;

  /// N x N matrix of transfer times for a given message size — this is
  /// the "weight matrix" the paper's FNF example uses (smaller weight =
  /// better link). Diagonal is zero.
  linalg::Matrix weight_matrix(std::uint64_t bytes) const;

  /// restrict_to(members).weight_matrix(bytes) without building the
  /// restriction: entry (a, b) is the transfer time of `bytes` from
  /// members[a] to members[b], bit for bit. Throws ContractViolation
  /// where restrict_to would: a member out of range, or a link between
  /// two members with a negative or NaN alpha or a beta that is not
  /// positive (NaN included).
  linalg::Matrix weight_matrix(const std::vector<std::size_t>& members,
                               std::uint64_t bytes) const;

  /// Raw layers as matrices (diagonal: alpha 0 / beta self-link value).
  const linalg::Matrix& latency() const { return latency_; }
  const linalg::Matrix& bandwidth() const { return bandwidth_; }
  linalg::Matrix& latency() { return latency_; }
  linalg::Matrix& bandwidth() { return bandwidth_; }

  /// Restriction to a sub-cluster C' (indices into this matrix, all
  /// distinct). Row/col k of the result corresponds to members[k].
  PerformanceMatrix restrict_to(const std::vector<std::size_t>& members) const;

  /// True if all latencies are >= 0 and bandwidths > 0.
  bool is_valid() const;

 private:
  std::size_t size_ = 0;
  linalg::Matrix latency_;    // seconds
  linalg::Matrix bandwidth_;  // bytes/second
};

}  // namespace netconst::netmodel
