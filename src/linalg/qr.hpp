// Householder QR factorization.
//
// Used to precondition tall-skinny inputs before the one-sided Jacobi SVD
// (SVD of the small R factor instead of the full matrix) and to
// re-orthonormalize the randomized SVD's sketch panel.
#pragma once

#include <vector>

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

/// In-place Householder factorization of `work` (m x n, m >= n): on
/// return the upper triangle holds R and the essential parts of the
/// reflectors sit below the diagonal with scaling factors in `tau`
/// (resized to n; capacity-reusing). The building block behind
/// qr_decompose, exposed for callers that own their scratch — the
/// randomized SVD re-orthonormalizes its sketch panel through this
/// without allocating. Sequential scalar code: bit-identical results at
/// every thread count and SIMD level.
void qr_factor_inplace(Matrix& work, std::vector<double>& tau);

/// Form the thin Q (m x n, orthonormal columns) of a factorization
/// produced by qr_factor_inplace into caller-owned `q` (resized;
/// capacity-reusing, no allocation once warm).
void qr_thin_q_into(const Matrix& work, const std::vector<double>& tau,
                    Matrix& q);

}  // namespace netconst::linalg
