#include "netmodel/perf_matrix.hpp"

#include "support/error.hpp"

namespace netconst::netmodel {
namespace {

// Self-links are free; this bandwidth makes n/beta vanish for any
// realistic message while keeping the matrices finite for RPCA.
constexpr double kSelfBandwidth = 1e18;

}  // namespace

PerformanceMatrix::PerformanceMatrix(std::size_t size, LinkParams defaults)
    : size_(size), latency_(size, size), bandwidth_(size, size) {
  NETCONST_CHECK(defaults.alpha >= 0.0 && defaults.beta > 0.0,
                 "invalid default link parameters");
  for (std::size_t i = 0; i < size; ++i) {
    for (std::size_t j = 0; j < size; ++j) {
      if (i == j) {
        latency_(i, j) = 0.0;
        bandwidth_(i, j) = kSelfBandwidth;
      } else {
        latency_(i, j) = defaults.alpha;
        bandwidth_(i, j) = defaults.beta;
      }
    }
  }
}

LinkParams PerformanceMatrix::link(std::size_t i, std::size_t j) const {
  NETCONST_CHECK(i < size_ && j < size_, "link index out of range");
  return {latency_(i, j), bandwidth_(i, j)};
}

void PerformanceMatrix::set_link(std::size_t i, std::size_t j,
                                 LinkParams params) {
  NETCONST_CHECK(i < size_ && j < size_, "link index out of range");
  NETCONST_CHECK(i != j, "self-links are fixed");
  NETCONST_CHECK(params.alpha >= 0.0 && params.beta > 0.0,
                 "invalid link parameters");
  latency_(i, j) = params.alpha;
  bandwidth_(i, j) = params.beta;
}

void PerformanceMatrix::mark_link_missing(std::size_t i, std::size_t j) {
  NETCONST_CHECK(i < size_ && j < size_, "link index out of range");
  NETCONST_CHECK(i != j, "self-links are fixed");
  const LinkParams missing = missing_link();
  latency_(i, j) = missing.alpha;
  bandwidth_(i, j) = missing.beta;
}

bool PerformanceMatrix::link_missing(std::size_t i, std::size_t j) const {
  return is_missing(link(i, j));
}

std::size_t PerformanceMatrix::missing_links() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = 0; j < size_; ++j) {
      if (i != j && is_missing({latency_(i, j), bandwidth_(i, j)})) ++count;
    }
  }
  return count;
}

double PerformanceMatrix::transfer_time(std::size_t i, std::size_t j,
                                        std::uint64_t bytes) const {
  if (i == j) return 0.0;
  return link(i, j).transfer_time(bytes);
}

linalg::Matrix PerformanceMatrix::weight_matrix(std::uint64_t bytes) const {
  linalg::Matrix w(size_, size_);
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = 0; j < size_; ++j) {
      w(i, j) = i == j ? 0.0 : transfer_time(i, j, bytes);
    }
  }
  return w;
}

linalg::Matrix PerformanceMatrix::weight_matrix(
    const std::vector<std::size_t>& members, std::uint64_t bytes) const {
  const std::size_t n = members.size();
  linalg::Matrix w(n, n);
  for (std::size_t a = 0; a < n; ++a) {
    NETCONST_CHECK(members[a] < size_, "sub-cluster member out of range");
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      const LinkParams params = link(members[a], members[b]);
      NETCONST_CHECK(params.alpha >= 0.0 && params.beta > 0.0,
                     "invalid link parameters");
      w(a, b) = params.transfer_time(bytes);
    }
  }
  return w;
}

PerformanceMatrix PerformanceMatrix::restrict_to(
    const std::vector<std::size_t>& members) const {
  PerformanceMatrix sub(members.size());
  for (std::size_t a = 0; a < members.size(); ++a) {
    NETCONST_CHECK(members[a] < size_, "sub-cluster member out of range");
    for (std::size_t b = 0; b < members.size(); ++b) {
      if (a == b) continue;
      sub.set_link(a, b, link(members[a], members[b]));
    }
  }
  return sub;
}

bool PerformanceMatrix::is_valid() const {
  for (std::size_t i = 0; i < size_; ++i) {
    for (std::size_t j = 0; j < size_; ++j) {
      // The NaN missing-link sentinel must not pass: !(NaN >= 0) holds,
      // so test the accepting ranges, not the rejecting ones.
      if (!(latency_(i, j) >= 0.0) || !(bandwidth_(i, j) > 0.0)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace netconst::netmodel
