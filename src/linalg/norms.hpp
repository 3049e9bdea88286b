// Matrix norms used by the RPCA objective and by the paper's
// Norm(N_E) = ||N_E||_0 / ||N_A||_0 effectiveness metric.
//
// The zero "norm" is a count; in floating point an exact-zero test is
// meaningless, so l0 takes a tolerance interpreted as an absolute cutoff
// (callers derive it from the scale of the data, see rpca::relative_l0).
#pragma once

#include <cstddef>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

/// Frobenius norm sqrt(sum a_ij^2).
double frobenius_norm(const Matrix& a);

/// ||(a - d) - e||_F, a decomposition's residual, without materializing
/// it: the same per-element differences and index-order sum of squares
/// as frobenius_norm of the difference matrix, bit for bit. Shapes must
/// match.
double residual_norm(const Matrix& a, const Matrix& d, const Matrix& e);

/// Entrywise 1-norm sum |a_ij|.
double l1_norm(const Matrix& a);

/// Max |a_ij|.
double max_abs(const Matrix& a);

/// Number of entries with |a_ij| > tolerance.
std::size_t l0_count(const Matrix& a, double tolerance);

/// Nuclear norm (sum of singular values); computes an SVD.
double nuclear_norm(const Matrix& a);

/// Spectral norm (largest singular value) via power iteration on A^T A.
/// Cheap compared to a full SVD; used for RPCA step-size bounds.
double spectral_norm(const Matrix& a, int max_iterations = 100,
                     double tolerance = 1e-9);

/// Power-iteration vectors reused across spectral_norm calls on
/// same-sized inputs (one per solver workspace).
struct SpectralNormScratch {
  std::vector<double> x;  // current iterate, length min(m, n)
  std::vector<double> y;  // next iterate
  std::vector<double> t;  // intermediate gemv result, length max(m, n)
};

/// spectral_norm with caller-owned scratch; numerically identical and
/// allocation-free once `scratch` carries capacity.
double spectral_norm(const Matrix& a, SpectralNormScratch& scratch,
                     int max_iterations = 100, double tolerance = 1e-9);

}  // namespace netconst::linalg
