#include "linalg/norms.hpp"

#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/svd.hpp"
#include "support/error.hpp"

namespace netconst::linalg {

double frobenius_norm(const Matrix& a) {
  double s = 0.0;
  for (double v : a.data()) s += v * v;
  return std::sqrt(s);
}

double residual_norm(const Matrix& a, const Matrix& d, const Matrix& e) {
  NETCONST_CHECK(a.same_shape(d) && a.same_shape(e),
                 "residual_norm shape mismatch");
  const std::span<const double> as = a.data(), ds = d.data(), es = e.data();
  double s = 0.0;
  for (std::size_t i = 0; i < as.size(); ++i) {
    const double r = (as[i] - ds[i]) - es[i];
    s += r * r;
  }
  return std::sqrt(s);
}

double l1_norm(const Matrix& a) {
  double s = 0.0;
  for (double v : a.data()) s += std::abs(v);
  return s;
}

double max_abs(const Matrix& a) {
  double m = 0.0;
  for (double v : a.data()) m = std::max(m, std::abs(v));
  return m;
}

std::size_t l0_count(const Matrix& a, double tolerance) {
  NETCONST_CHECK(tolerance >= 0.0, "l0 tolerance must be non-negative");
  std::size_t count = 0;
  for (double v : a.data()) {
    if (std::abs(v) > tolerance) ++count;
  }
  return count;
}

double nuclear_norm(const Matrix& a) { return svd(a).nuclear_norm(); }

double spectral_norm(const Matrix& a, int max_iterations, double tolerance) {
  SpectralNormScratch scratch;
  return spectral_norm(a, scratch, max_iterations, tolerance);
}

double spectral_norm(const Matrix& a, SpectralNormScratch& scratch,
                     int max_iterations, double tolerance) {
  NETCONST_CHECK(!a.empty(), "spectral norm of an empty matrix");
  // Power iteration on the smaller Gram operator.
  const bool wide = a.cols() > a.rows();
  const std::size_t dim = wide ? a.rows() : a.cols();
  const std::size_t other = wide ? a.cols() : a.rows();
  std::vector<double>& x = scratch.x;
  std::vector<double>& y = scratch.y;
  std::vector<double>& t = scratch.t;
  x.assign(dim, 1.0 / std::sqrt(static_cast<double>(dim)));
  y.resize(dim);
  t.resize(other);
  double sigma = 0.0;
  for (int it = 0; it < max_iterations; ++it) {
    if (wide) {
      // y = A (A^T x)
      multiply_transposed_into(a, x, t);
      multiply_into(a, t, y);
    } else {
      // y = A^T (A x)
      multiply_into(a, x, t);
      multiply_transposed_into(a, t, y);
    }
    const double norm = norm2(y);
    if (norm == 0.0) return 0.0;
    const double next = std::sqrt(norm);
    for (std::size_t i = 0; i < dim; ++i) x[i] = y[i] / norm;
    if (std::abs(next - sigma) <= tolerance * std::max(next, 1.0)) {
      return next;
    }
    sigma = next;
  }
  return sigma;
}

}  // namespace netconst::linalg
