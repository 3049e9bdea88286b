#include "linalg/svd.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/blas.hpp"
#include "linalg/eigen_sym.hpp"
#include "linalg/qr.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

namespace netconst::linalg {
namespace {

// One-sided Jacobi on an m x n matrix with m >= n. Returns U (m x n),
// singular values (n) and V (n x n), unsorted.
void jacobi_svd_tall(const Matrix& a, Matrix& u, std::vector<double>& s,
                     Matrix& v, const SvdOptions& options) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix b = a;
  v = Matrix::identity(n);

  for (int sweep = 0; sweep < options.max_sweeps; ++sweep) {
    bool converged = true;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double app = 0.0, aqq = 0.0, apq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += b(i, p) * b(i, p);
          aqq += b(i, q) * b(i, q);
          apq += b(i, p) * b(i, q);
        }
        if (std::abs(apq) <=
            options.tolerance * std::sqrt(app * aqq) + 1e-300) {
          continue;
        }
        converged = false;
        const double zeta = (aqq - app) / (2.0 * apq);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = c * t;
        for (std::size_t i = 0; i < m; ++i) {
          const double bip = b(i, p);
          const double biq = b(i, q);
          b(i, p) = c * bip - sn * biq;
          b(i, q) = sn * bip + c * biq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const double vip = v(i, p);
          const double viq = v(i, q);
          v(i, p) = c * vip - sn * viq;
          v(i, q) = sn * vip + c * viq;
        }
      }
    }
    if (converged) break;
  }

  s.assign(n, 0.0);
  u = Matrix(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm += b(i, j) * b(i, j);
    norm = std::sqrt(norm);
    s[j] = norm;
    if (norm > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, j) = b(i, j) / norm;
    }
  }
}

void sort_descending(Matrix& u, std::vector<double>& s, Matrix& v) {
  const std::size_t r = s.size();
  std::vector<std::size_t> order(r);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&s](std::size_t a, std::size_t b) { return s[a] > s[b]; });
  Matrix u2(u.rows(), r), v2(v.rows(), r);
  std::vector<double> s2(r);
  for (std::size_t k = 0; k < r; ++k) {
    s2[k] = s[order[k]];
    for (std::size_t i = 0; i < u.rows(); ++i) u2(i, k) = u(i, order[k]);
    for (std::size_t i = 0; i < v.rows(); ++i) v2(i, k) = v(i, order[k]);
  }
  u = std::move(u2);
  s = std::move(s2);
  v = std::move(v2);
}

// SVD via the m x m Gram matrix A A^T — for m <= n (short-wide inputs).
SvdResult gram_svd(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  NETCONST_ASSERT(m <= n);
  const Matrix g = outer_gram(a);
  const SymmetricEigen eig = eigen_symmetric(g);

  SvdResult result;
  result.u = eig.eigenvectors;  // m x m, already sorted descending
  result.singular_values.resize(m);
  const double lambda_max = std::max(eig.eigenvalues.front(), 0.0);
  // Eigenvalues below this are numerical noise of the Gram product.
  const double floor = lambda_max * 1e-14;
  for (std::size_t k = 0; k < m; ++k) {
    const double lambda = eig.eigenvalues[k];
    result.singular_values[k] = lambda > floor ? std::sqrt(lambda) : 0.0;
  }
  // V column k = A^T u_k / sigma_k (zero-filled for null singular values).
  result.v = Matrix(n, m);
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j = lo; j < hi; ++j) {
          for (std::size_t k = 0; k < m; ++k) {
            const double sigma = result.singular_values[k];
            if (sigma == 0.0) continue;
            double dotv = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
              dotv += a(i, j) * result.u(i, k);
            }
            result.v(j, k) = dotv / sigma;
          }
        }
      },
      /*grain=*/128);
  return result;
}

SvdResult jacobi_path(const Matrix& a, const SvdOptions& options) {
  SvdResult result;
  if (a.rows() >= a.cols()) {
    if (a.rows() > 2 * a.cols() && a.cols() > 1) {
      // QR preconditioning: SVD of the small R factor.
      const QrResult qr = qr_decompose(a);
      Matrix ur;
      jacobi_svd_tall(qr.r, ur, result.singular_values, result.v, options);
      result.u = multiply(qr.q, ur);
    } else {
      jacobi_svd_tall(a, result.u, result.singular_values, result.v,
                      options);
    }
  } else {
    const Matrix at = a.transposed();
    SvdOptions opt = options;
    SvdResult t;
    if (at.rows() > 2 * at.cols() && at.cols() > 1) {
      const QrResult qr = qr_decompose(at);
      Matrix ur;
      jacobi_svd_tall(qr.r, ur, t.singular_values, t.v, opt);
      t.u = multiply(qr.q, ur);
    } else {
      jacobi_svd_tall(at, t.u, t.singular_values, t.v, opt);
    }
    result.u = std::move(t.v);
    result.v = std::move(t.u);
    result.singular_values = std::move(t.singular_values);
  }
  sort_descending(result.u, result.singular_values, result.v);
  return result;
}

}  // namespace

Matrix SvdResult::reconstruct() const {
  const std::size_t m = u.rows();
  const std::size_t n = v.rows();
  const std::size_t r = singular_values.size();
  Matrix a(m, n);
  parallel_for_chunked(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (std::size_t k = 0; k < r; ++k) {
            const double us = u(i, k) * singular_values[k];
            if (us == 0.0) continue;
            for (std::size_t j = 0; j < n; ++j) a(i, j) += us * v(j, k);
          }
        }
      },
      /*grain=*/8);
  return a;
}

std::size_t SvdResult::rank(double rel_tol) const {
  if (singular_values.empty()) return 0;
  const double cutoff = singular_values.front() * rel_tol;
  std::size_t r = 0;
  for (double s : singular_values) {
    if (s > cutoff) ++r;
  }
  return r;
}

double SvdResult::nuclear_norm() const {
  double s = 0.0;
  for (double v : singular_values) s += v;
  return s;
}

SvdResult svd(const Matrix& a, const SvdOptions& options) {
  NETCONST_CHECK(!a.empty(), "SVD of an empty matrix");
  SvdMethod method = options.method;
  if (method == SvdMethod::Auto) {
    const std::size_t small = std::min(a.rows(), a.cols());
    const std::size_t large = std::max(a.rows(), a.cols());
    method = (small <= 64 && large >= 4 * small) ? SvdMethod::Gram
                                                 : SvdMethod::OneSidedJacobi;
  }
  if (method == SvdMethod::Gram) {
    if (a.rows() <= a.cols()) return gram_svd(a);
    SvdResult t = gram_svd(a.transposed());
    SvdResult result;
    result.u = std::move(t.v);
    result.v = std::move(t.u);
    result.singular_values = std::move(t.singular_values);
    return result;
  }
  return jacobi_path(a, options);
}

}  // namespace netconst::linalg
