#include "linalg/qr.hpp"

#include <cmath>
#include <vector>

#include "linalg/blas.hpp"
#include "support/error.hpp"

namespace netconst::linalg {
namespace {

// In-place Householder factorization of `work` (m x n, m >= n): on
// return the upper triangle holds R and the essential parts of the
// reflectors sit below the diagonal with scaling factors in `tau`.
void qr_factor_inplace(Matrix& work, std::vector<double>& tau) {
  NETCONST_CHECK(work.rows() >= work.cols(),
                 "Householder factorization requires rows >= cols");
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  tau.assign(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    // Norm of the k-th column below the diagonal.
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += work(i, k) * work(i, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = work(k, k) >= 0.0 ? -norm : norm;
    // v = x - alpha * e1, normalized so v[k] = 1.
    const double vkk = work(k, k) - alpha;
    if (vkk == 0.0) continue;
    for (std::size_t i = k + 1; i < m; ++i) work(i, k) /= vkk;
    tau[k] = -vkk / alpha;
    work(k, k) = alpha;
    // Apply (I - tau v v^T) to the trailing columns.
    for (std::size_t j = k + 1; j < n; ++j) {
      double s = work(k, j);
      for (std::size_t i = k + 1; i < m; ++i) s += work(i, k) * work(i, j);
      s *= tau[k];
      work(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) {
        work(i, j) -= s * work(i, k);
      }
    }
  }
}

// Form the thin Q (m x n, orthonormal columns) of a factorization
// produced by qr_factor_inplace into `q`.
void qr_thin_q_into(const Matrix& work, const std::vector<double>& tau,
                    Matrix& q) {
  const std::size_t m = work.rows();
  const std::size_t n = work.cols();
  NETCONST_CHECK(tau.size() == n, "tau does not match the factorization");
  // Apply the reflectors to the first n identity columns in reverse
  // order.
  q.resize(m, n);
  q.fill(0.0);
  for (std::size_t j = 0; j < n; ++j) q(j, j) = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    if (tau[k] == 0.0) continue;
    for (std::size_t j = 0; j < n; ++j) {
      double s = q(k, j);
      for (std::size_t i = k + 1; i < m; ++i) {
        s += work(i, k) * q(i, j);
      }
      s *= tau[k];
      q(k, j) -= s;
      for (std::size_t i = k + 1; i < m; ++i) {
        q(i, j) -= s * work(i, k);
      }
    }
  }
}

}  // namespace

QrResult qr_decompose(const Matrix& a) {
  NETCONST_CHECK(a.rows() >= a.cols(), "thin QR requires rows >= cols");
  const std::size_t n = a.cols();
  Matrix work = a;
  std::vector<double> tau;
  qr_factor_inplace(work, tau);

  QrResult result;
  result.r = Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) result.r(i, j) = work(i, j);
  }
  qr_thin_q_into(work, tau, result.q);
  return result;
}

bool cholesky_solve(Matrix& g, std::span<double> x) {
  const std::size_t m = g.rows();
  NETCONST_CHECK(g.cols() == m && x.size() == m,
                 "cholesky_solve size mismatch");
  for (std::size_t j = 0; j < m; ++j) {
    double pivot = g(j, j);
    for (std::size_t k = 0; k < j; ++k) pivot -= g(j, k) * g(j, k);
    if (!(pivot > 0.0)) return false;
    g(j, j) = std::sqrt(pivot);
    for (std::size_t i = j + 1; i < m; ++i) {
      double s = g(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= g(i, k) * g(j, k);
      g(i, j) = s / g(j, j);
    }
  }
  for (std::size_t i = 0; i < m; ++i) {  // L y = b
    for (std::size_t k = 0; k < i; ++k) x[i] -= g(i, k) * x[k];
    x[i] /= g(i, i);
  }
  for (std::size_t i = m; i-- > 0;) {  // L^T x = y
    for (std::size_t k = i + 1; k < m; ++k) x[i] -= g(k, i) * x[k];
    x[i] /= g(i, i);
  }
  return true;
}

}  // namespace netconst::linalg
