// Householder QR factorization.
//
// Used to precondition tall-skinny inputs before the one-sided Jacobi SVD
// (SVD of the small R factor instead of the full matrix).
#pragma once

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

}  // namespace netconst::linalg
