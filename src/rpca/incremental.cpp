#include "rpca/incremental.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace netconst::rpca {
namespace {

constexpr double kTiny = 1e-30;

/// soft_threshold(x, tau) without a branch: x minus its clamp to
/// [-tau, tau] is x - tau above the band, x + tau below it and +0.0
/// inside it, bit for bit, for every finite x and tau >= 0.
double soft(double x, double tau) {
  return x - std::min(std::max(x, -tau), tau);
}

}  // namespace

void IncrementalTracker::reset() {
  anchored_ = false;
  ready_ = false;
  updates_ = 0;
  lambda_ = 0.0;
  cutoff_ = 0.0;
  drift_ = DriftStats{};
  e_ = linalg::Matrix();
}

void IncrementalTracker::release_sparse(linalg::Matrix& into) {
  into.swap(e_);
  e_ = linalg::Matrix();
}

void IncrementalTracker::anchor(const linalg::Matrix& data, Result& full,
                                double l0_rel_tolerance,
                                std::size_t cluster_size) {
  NETCONST_CHECK(!data.empty(), "incremental anchor on an empty window");
  NETCONST_CHECK(full.low_rank.same_shape(data) &&
                     full.sparse.same_shape(data),
                 "incremental anchor: result/window shape mismatch");
  NETCONST_CHECK(l0_rel_tolerance >= 0.0,
                 "incremental anchor: l0 tolerance must be non-negative");
  NETCONST_CHECK(cluster_size >= 2 &&
                     cluster_size * cluster_size == data.cols(),
                 "incremental anchor: columns are not cluster_size^2");
  const std::size_t m = data.rows();
  const std::size_t n = data.cols();

  reset();
  anchored_ = true;
  lambda_ =
      options_.lambda > 0.0 ? options_.lambda : default_lambda(m, n);
  q_.resize(1, n);
  c_.resize(m);
  row_l1_.resize(m);
  row_l0_e_.resize(m);
  row_l0_a_.resize(m);
  column_sums_.assign(n, 0.0);
  touches_.assign(cluster_size, 0);

  // First sweep: D's column sums (the same reduction core/constant_finder
  // uses), each row's l1 sum (tau upkeep) and max|A| (the l0 cutoff).
  double peak = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double* a = data.row(i).data();
    const double* d = full.low_rank.row(i).data();
    double l1 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double abs_a = std::abs(a[j]);
      l1 += abs_a;
      peak = std::max(peak, abs_a);
      column_sums_[j] += d[j];
    }
    row_l1_[i] = l1;
  }
  cutoff_ = l0_rel_tolerance * peak;

  // Frozen direction: the column-mean row of D, normalized. A zero
  // constant leaves q zero: nothing to track, but the counts below
  // still describe this window.
  double* q = q_.row(0).data();
  const double inv_m = 1.0 / static_cast<double>(m);
  double norm2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    q[j] = column_sums_[j] * inv_m;
    norm2 += q[j] * q[j];
  }
  const double norm = std::sqrt(norm2);
  if (norm > 0.0) {
    const double inv_norm = 1.0 / norm;
    for (std::size_t j = 0; j < n; ++j) q[j] *= inv_norm;
  }

  // Second sweep: the coefficients onto q, the l0 counts of A and E at
  // the cutoff and E's support geometry. Column i * N + k is pair
  // (i, k); an entry is support unless |e| <= cutoff (so a NaN counts,
  // as in detect::support_stats), and the diagonal never is.
  double support = 0.0;
  for (std::size_t r = 0; r < m; ++r) {
    const double* a = data.row(r).data();
    const double* d = full.low_rank.row(r).data();
    const double* e = full.sparse.row(r).data();
    double c = 0.0;
    std::size_t l0_a = 0, l0_e = 0;
    for (std::size_t i = 0; i < cluster_size; ++i) {
      std::uint64_t from_i = 0;
      for (std::size_t k = 0; k < cluster_size; ++k) {
        const std::size_t j = i * cluster_size + k;
        c += d[j] * q[j];
        const double abs_e = std::abs(e[j]);
        l0_a += std::abs(a[j]) > cutoff_;
        l0_e += abs_e > cutoff_;
        const std::uint64_t hit = (k != i) & !(abs_e <= cutoff_);
        from_i += hit;
        touches_[k] += hit;
      }
      touches_[i] += from_i;
    }
    c_[r] = c;
    row_l0_a_[r] = l0_a;
    row_l0_e_[r] = l0_e;
    support += static_cast<double>(l0_e);
  }
  e_.swap(full.sparse);  // reset() left e_ empty
  // EWMA baseline: the anchor's own mean per-row E support, so the
  // smoothed statistic starts at the window's genuine sparsity level
  // instead of ramping from zero.
  drift_.ewma =
      support / (static_cast<double>(m) * static_cast<double>(n));
  ready_ = norm > 0.0;
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

  // One pass over the replaced row: its l1 sum and l0 count, its squared
  // norm (the novelty ratio's scale) and the first prox step's
  // coefficient <a - e, q>, which with the row's E refitted from zero
  // (stale E from the evicted row must not bias the fit) is <a, q>.
  double row_l1 = 0.0;
  double a2 = 0.0;
  double c = 0.0;
  std::size_t l0_a = 0;
  for (std::size_t j = 0; j < n; ++j) {
    const double abs_a = std::abs(a[j]);
    row_l1 += abs_a;
    l0_a += abs_a > cutoff_;
    a2 += a[j] * a[j];
    c += a[j] * q[j];
  }

  // tau tracks the *current* window: refresh the replaced row's l1 sum
  // before deriving lambda * mean|A| from the cached per-row sums.
  row_l1_[slot] = row_l1;
  double l1 = 0.0;
  for (const double v : row_l1_) l1 += v;
  const double tau =
      lambda_ * l1 /
      (static_cast<double>(data.rows()) * static_cast<double>(n));

  // Alternate the two exact single-row prox steps; each pass but the
  // last forms E and the next coefficient together.
  const int sweeps = std::max(options_.update_sweeps, 1);
  for (int s = 1; s < sweeps; ++s) {
    double next = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      e[j] = soft(a[j] - c * q[j], tau);
      next += (a[j] - e[j]) * q[j];
    }
    c = next;
  }
  c_[slot] = c;

  // The last E step, with the drift statistics: the fraction of this
  // row the frozen subspace pushed into E (support at the prox's own
  // threshold — entries are exactly zero or shrunk), the advisory
  // sub-threshold residual ratio, and the row's l0(E) at the cutoff.
  std::size_t unexplained = 0;
  std::size_t l0_e = 0;
  double res2 = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double fit = a[j] - c * q[j];
    e[j] = soft(fit, tau);
    unexplained += e[j] != 0.0;
    l0_e += std::abs(e[j]) > cutoff_;
    const double r = fit - e[j];
    res2 += r * r;
  }
  row_l0_a_[slot] = l0_a;
  row_l0_e_[slot] = l0_e;
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
  const std::size_t m = c_.size();
  const std::size_t n = q_.cols();
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
  const std::size_t n = q_.cols();
  out.resize(1, n);
  double mean_c = 0.0;
  for (const double c : c_) mean_c += c;
  mean_c /= static_cast<double>(c_.size());
  double* row = out.row(0).data();
  const double* q = q_.row(0).data();
  for (std::size_t j = 0; j < n; ++j) row[j] = mean_c * q[j];
}

void IncrementalTracker::anchor_constant_row_into(linalg::Matrix& out) const {
  NETCONST_CHECK(anchored_, "anchor_constant_row_into before anchor");
  const std::size_t n = column_sums_.size();
  out.resize(1, n);
  const double rows = static_cast<double>(c_.size());
  for (std::size_t j = 0; j < n; ++j) out(0, j) = column_sums_[j] / rows;
}

double IncrementalTracker::error_norm() const {
  NETCONST_CHECK(anchored_, "error_norm before anchor");
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
