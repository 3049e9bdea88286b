#include "rpca/stable_pcp_tf.hpp"

#include <cmath>
#include <cstddef>

#include "rpca/stable_pcp.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

constexpr double kPi = 3.14159265358979323846;

/// Build (or reuse) the cached DCT-II basis for a `rows`-snapshot
/// window. The basis depends only on the window length, so a workspace
/// that has served this length once never recomputes or reallocates it.
const linalg::Matrix& cached_dct_basis(std::size_t rows,
                                       SolverWorkspace& ws) {
  if (ws.dct.basis_rows != rows) {
    temporal_dct_basis_into(rows, ws.dct.basis);
    ws.dct.basis_rows = rows;
  }
  return ws.dct.basis;
}

}  // namespace

std::size_t tf_passband_rows(std::size_t rows, double passband_fraction) {
  NETCONST_CHECK(rows > 0, "passband of an empty window");
  const double kept =
      std::floor(passband_fraction * static_cast<double>(rows) + 0.5);
  if (kept < 1.0) return 1;
  if (kept >= static_cast<double>(rows)) return rows;
  return static_cast<std::size_t>(kept);
}

void temporal_dct_basis_into(std::size_t rows, linalg::Matrix& basis) {
  NETCONST_CHECK(rows > 0, "DCT basis of an empty window");
  basis.resize(rows, rows);
  const double m = static_cast<double>(rows);
  const double dc_scale = std::sqrt(1.0 / m);
  const double ac_scale = std::sqrt(2.0 / m);
  for (std::size_t k = 0; k < rows; ++k) {
    const double scale = k == 0 ? dc_scale : ac_scale;
    for (std::size_t i = 0; i < rows; ++i) {
      basis(k, i) =
          scale * std::cos(kPi * (static_cast<double>(i) + 0.5) *
                           static_cast<double>(k) / m);
    }
  }
}

void temporal_dct_forward(const linalg::Matrix& basis,
                          const linalg::Matrix& x, linalg::Matrix& coeffs) {
  NETCONST_CHECK(basis.rows() == x.rows() && basis.rows() == basis.cols(),
                 "DCT basis / panel shape mismatch");
  coeffs.resize(x.rows(), x.cols());
  for (std::size_t k = 0; k < basis.rows(); ++k) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < x.rows(); ++i) {
        sum += basis(k, i) * x(i, j);
      }
      coeffs(k, j) = sum;
    }
  }
}

void temporal_dct_inverse(const linalg::Matrix& basis,
                          const linalg::Matrix& coeffs, linalg::Matrix& x) {
  NETCONST_CHECK(basis.rows() == coeffs.rows() &&
                     basis.rows() == basis.cols(),
                 "DCT basis / panel shape mismatch");
  x.resize(coeffs.rows(), coeffs.cols());
  for (std::size_t i = 0; i < coeffs.rows(); ++i) {
    for (std::size_t j = 0; j < coeffs.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < coeffs.rows(); ++k) {
        sum += basis(k, i) * coeffs(k, j);
      }
      x(i, j) = sum;
    }
  }
}

void shrink_high_frequencies(linalg::Matrix& coeffs, std::size_t keep_rows,
                             double threshold) {
  for (std::size_t k = keep_rows; k < coeffs.rows(); ++k) {
    for (std::size_t j = 0; j < coeffs.cols(); ++j) {
      const double v = coeffs(k, j);
      const double mag = std::abs(v) - threshold;
      coeffs(k, j) = mag > 0.0 ? (v > 0.0 ? mag : -mag) : 0.0;
    }
  }
}

void solve_stable_pcp_tf(const linalg::Matrix& a, const Options& base,
                         double lambda, double noise_sigma,
                         double passband_fraction, double tf_weight,
                         SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(tf_weight >= 0.0, "TF weight must be non-negative");
  solve_stable_pcp(a, base, lambda, noise_sigma, ws, result,
                   {tf_passband_rows(a.rows(), passband_fraction), tf_weight});
}

void band_limit_step(linalg::Matrix& d, const BandLimit& band, double mu,
                     SolverWorkspace& ws) {
  const double threshold = band.weight * mu * 0.5;
  if (threshold <= 0.0 || band.keep_rows >= d.rows()) return;
  const linalg::Matrix& basis = cached_dct_basis(d.rows(), ws);
  temporal_dct_forward(basis, d, ws.dct.coeffs);
  shrink_high_frequencies(ws.dct.coeffs, band.keep_rows, threshold);
  temporal_dct_inverse(basis, ws.dct.coeffs, d);
}

}  // namespace netconst::rpca
