// Thin singular value decomposition.
//
// Two methods behind one interface:
//  * One-sided Jacobi — the accurate general-purpose path. Tall inputs are
//    QR-preconditioned (SVD of the small R factor), wide inputs go through
//    the transpose.
//  * Gram — for extremely rectangular inputs like RPCA's TP-matrices
//    (time-step rows x N^2 columns): eigendecompose the small m x m Gram
//    matrix A A^T and recover V = A^T U Sigma^-1. This is the fast path
//    that keeps the paper's "RPCA runs in under a minute on a 196-instance
//    cluster" property.
// `Auto` picks Gram when min(m,n) is small relative to max(m,n).
#pragma once

#include <vector>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

enum class SvdMethod { Auto, OneSidedJacobi, Gram };

struct SvdOptions {
  SvdMethod method = SvdMethod::Auto;
  int max_sweeps = 60;       // Jacobi sweeps
  double tolerance = 1e-12;  // relative orthogonality tolerance
};

/// Thin SVD A = U diag(s) V^T with U: m x r, V: n x r, r = min(m, n).
/// Singular values are non-negative and sorted descending. Columns of U/V
/// corresponding to (numerically) zero singular values are zero-filled by
/// the Gram path and orthonormal in the Jacobi path; both reconstruct A.
struct SvdResult {
  Matrix u;
  std::vector<double> singular_values;
  Matrix v;

  /// U diag(s) V^T.
  Matrix reconstruct() const;

  /// Number of singular values above `rel_tol * s_max`.
  std::size_t rank(double rel_tol = 1e-10) const;

  /// Sum of singular values (nuclear norm of the input).
  double nuclear_norm() const;
};

/// Compute the thin SVD. Throws ContractViolation on an empty input.
SvdResult svd(const Matrix& a, const SvdOptions& options = {});

}  // namespace netconst::linalg
