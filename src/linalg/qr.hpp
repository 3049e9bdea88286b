// Householder QR factorization, and a Cholesky solve for small
// symmetric systems.
//
// QR preconditions tall-skinny inputs before the one-sided Jacobi SVD
// (SVD of the small R factor instead of the full matrix). The Cholesky
// solve takes the rank-1 Huber fit's Newton steps (rpca/rank1.hpp).
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace netconst::linalg {

/// Thin QR of an m x n matrix with m >= n: A = Q (m x n, orthonormal
/// columns) * R (n x n, upper triangular).
struct QrResult {
  Matrix q;
  Matrix r;
};

/// Compute the thin QR factorization. Requires rows >= cols.
QrResult qr_decompose(const Matrix& a);

/// Solves G x = b in place for a symmetric positive definite G: `g`
/// (square, lower triangle read) is overwritten by its Cholesky factor
/// L and `x` holds b on entry and x on return. Returns false, leaving
/// both partly overwritten, when a pivot is not positive (G is not
/// positive definite to rounding, or holds a NaN).
bool cholesky_solve(Matrix& g, std::span<double> x);

}  // namespace netconst::linalg
