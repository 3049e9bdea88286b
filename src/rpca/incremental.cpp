#include "rpca/incremental.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/norms.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

constexpr double kTiny = 1e-30;

double row_abs_sum(const double* row, std::size_t n) {
  double sum = 0.0;
  for (std::size_t j = 0; j < n; ++j) sum += std::abs(row[j]);
  return sum;
}

std::size_t row_l0(const double* row, std::size_t n, double cutoff) {
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (std::abs(row[j]) > cutoff) ++count;
  }
  return count;
}

double soft(double x, double tau) {
  if (x > tau) return x - tau;
  if (x < -tau) return x + tau;
  return 0.0;
}

}  // namespace

void IncrementalTracker::reset() {
  ready_ = false;
  updates_ = 0;
  lambda_ = 0.0;
  cutoff_ = 0.0;
  drift_ = DriftStats{};
}

void IncrementalTracker::anchor(const linalg::Matrix& data, const Result& full,
                                double l0_rel_tolerance) {
  NETCONST_CHECK(!data.empty(), "incremental anchor on an empty window");
  NETCONST_CHECK(full.low_rank.same_shape(data) &&
                     full.sparse.same_shape(data),
                 "incremental anchor: result/window shape mismatch");
  const std::size_t m = data.rows();
  const std::size_t n = data.cols();

  reset();
  lambda_ =
      options_.lambda > 0.0 ? options_.lambda : default_lambda(m, n);

  // Frozen direction: the column-mean row of the solved constant
  // component (same reduction core/constant_finder uses), normalized.
  q_.resize(1, n);
  double* q = q_.row(0).data();
  const double inv_m = 1.0 / static_cast<double>(m);
  for (std::size_t j = 0; j < n; ++j) q[j] = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* d = full.low_rank.row(i).data();
    for (std::size_t j = 0; j < n; ++j) q[j] += d[j];
  }
  double norm2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    q[j] *= inv_m;
    norm2 += q[j] * q[j];
  }
  const double norm = std::sqrt(norm2);
  if (!(norm > 0.0)) return;  // zero constant: nothing to track
  const double inv_norm = 1.0 / norm;
  for (std::size_t j = 0; j < n; ++j) q[j] *= inv_norm;

  e_ = full.sparse;
  c_.resize(m);
  row_l1_.resize(m);
  row_l0_e_.resize(m);
  row_l0_a_.resize(m);

  cutoff_ = l0_rel_tolerance * linalg::max_abs(data);
  double support = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* d = full.low_rank.row(i).data();
    double c = 0.0;
    for (std::size_t j = 0; j < n; ++j) c += d[j] * q[j];
    c_[i] = c;
    const double* a = data.row(i).data();
    row_l1_[i] = row_abs_sum(a, n);
    row_l0_a_[i] = row_l0(a, n, cutoff_);
    row_l0_e_[i] = row_l0(e_.row(i).data(), n, cutoff_);
    support += static_cast<double>(row_l0_e_[i]);
  }
  // EWMA baseline: the anchor's own mean per-row E support, so the
  // smoothed statistic starts at the window's genuine sparsity level
  // instead of ramping from zero.
  drift_.ewma =
      support / (static_cast<double>(m) * static_cast<double>(n));
  ready_ = true;
}

DriftStats IncrementalTracker::update(const linalg::Matrix& data,
                                      std::size_t slot) {
  NETCONST_CHECK(ready_, "incremental update before anchor");
  NETCONST_CHECK(data.same_shape(e_),
                 "incremental update: window shape changed");
  NETCONST_CHECK(slot < data.rows(), "incremental update: slot out of range");
  const std::size_t n = data.cols();
  const double* a = data.row(slot).data();
  const double* q = q_.row(0).data();
  double* e = e_.row(slot).data();

  // tau tracks the *current* window: refresh the replaced row's l1 sum
  // before deriving lambda * mean|A| from the cached per-row sums.
  row_l1_[slot] = row_abs_sum(a, n);
  double l1 = 0.0;
  for (const double v : row_l1_) l1 += v;
  const double tau =
      lambda_ * l1 /
      (static_cast<double>(data.rows()) * static_cast<double>(n));

  // Alternate the two exact single-row prox steps from a clean slate
  // (stale E from the evicted row must not bias the fit).
  for (std::size_t j = 0; j < n; ++j) e[j] = 0.0;
  double c = 0.0;
  const int sweeps = std::max(options_.update_sweeps, 1);
  for (int s = 0; s < sweeps; ++s) {
    c = 0.0;
    for (std::size_t j = 0; j < n; ++j) c += (a[j] - e[j]) * q[j];
    for (std::size_t j = 0; j < n; ++j) e[j] = soft(a[j] - c * q[j], tau);
  }
  c_[slot] = c;

  row_l0_a_[slot] = row_l0(a, n, cutoff_);
  row_l0_e_[slot] = row_l0(e, n, cutoff_);

  // Drift: the fraction of this row the frozen subspace pushed into E
  // (support at the prox's own threshold — entries are exactly zero or
  // shrunk), plus the advisory sub-threshold residual ratio.
  std::size_t unexplained = 0;
  double res2 = 0.0;
  double a2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (e[j] != 0.0) ++unexplained;
    const double r = a[j] - c * q[j] - e[j];
    res2 += r * r;
    a2 += a[j] * a[j];
  }
  drift_.instant =
      static_cast<double>(unexplained) / static_cast<double>(n);
  drift_.ewma = options_.ewma_alpha * drift_.instant +
                (1.0 - options_.ewma_alpha) * drift_.ewma;
  drift_.novelty = std::sqrt(res2 / std::max(a2, kTiny));
  drift_.breach = drift_.instant > options_.drift_threshold ||
                  drift_.ewma > options_.ewma_threshold;
  ++updates_;
  return drift_;
}

void IncrementalTracker::materialize_low_rank(linalg::Matrix& out) const {
  NETCONST_CHECK(ready_, "materialize_low_rank before anchor");
  const std::size_t m = e_.rows();
  const std::size_t n = e_.cols();
  out.resize(m, n);
  const double* q = q_.row(0).data();
  for (std::size_t i = 0; i < m; ++i) {
    double* row = out.row(i).data();
    const double c = c_[i];
    for (std::size_t j = 0; j < n; ++j) row[j] = c * q[j];
  }
}

void IncrementalTracker::constant_row_into(linalg::Matrix& out) const {
  NETCONST_CHECK(ready_, "constant_row_into before anchor");
  const std::size_t n = e_.cols();
  out.resize(1, n);
  double mean_c = 0.0;
  for (const double c : c_) mean_c += c;
  mean_c /= static_cast<double>(c_.size());
  double* row = out.row(0).data();
  const double* q = q_.row(0).data();
  for (std::size_t j = 0; j < n; ++j) row[j] = mean_c * q[j];
}

double IncrementalTracker::error_norm() const {
  NETCONST_CHECK(ready_, "error_norm before anchor");
  std::size_t e_count = 0;
  std::size_t a_count = 0;
  for (std::size_t i = 0; i < row_l0_e_.size(); ++i) {
    e_count += row_l0_e_[i];
    a_count += row_l0_a_[i];
  }
  if (a_count == 0) return 0.0;
  const double ratio =
      static_cast<double>(e_count) / static_cast<double>(a_count);
  return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace netconst::rpca
