// Proximal operators for the RPCA convex surrogate:
//  * soft_threshold        — prox of tau * ||.||_1 (elementwise shrinkage)
//  * singular_value_threshold — prox of tau * ||.||_* (shrink the spectrum)
#pragma once

#include <vector>

#include "linalg/eigen_sym.hpp"
#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace netconst::linalg {

/// Elementwise soft thresholding: sign(a) * max(|a| - tau, 0). Requires
/// tau >= 0. The allocating form rpca::reference uses; the solvers call
/// the fused soft_threshold_into / gradient_step (linalg/fused.hpp).
Matrix soft_threshold(const Matrix& a, double tau);

/// Result of the singular value thresholding operator.
struct SvtResult {
  Matrix value;         // U * max(Sigma - tau, 0) * V^T
  std::size_t rank = 0; // number of singular values that survived
  double top_singular_value = 0.0;
};

/// Singular value thresholding D_tau(A) = U shrink(Sigma, tau) V^T.
SvtResult singular_value_threshold(const Matrix& a, double tau,
                                   const SvdOptions& options = {});

/// Reusable storage for the scratch-based SVT below: the Gram matrix, the
/// Jacobi eigensolver working set, and the right-vector panel. One of
/// these lives in each rpca::SolverWorkspace.
struct GramSvtScratch {
  Matrix gram;                          // m x m Gram matrix A A^T
  SymmetricEigenScratch eig_scratch;    // Jacobi working set
  SymmetricEigen eig;                   // eigenpairs of the Gram matrix
  std::vector<double> singular_values;  // pre-shrink spectrum
  std::vector<double> shrunk;           // post-shrink spectrum
  Matrix v;  // m x n transposed right-vector panel (row k = v_k)
  Matrix u_kept;  // m x rank panel of the kept U columns, packed
};

/// Diagnostics of one scratch-based SVT application.
struct SvtInfo {
  std::size_t rank = 0;  // singular values that survived the threshold
  double top_singular_value = 0.0;
  /// True when the allocation-free Gram fast path ran. False means the
  /// shape was not Gram-eligible and the call fell back to the allocating
  /// general SVD (numerically identical to singular_value_threshold).
  bool used_scratch = false;
};

/// SVT writing into caller-owned `out` using `scratch` for every
/// intermediate. On Gram-eligible shapes (the method resolution matches
/// svd()'s Auto rule, plus rows <= cols) this performs zero allocations
/// once the scratch is warm, and additionally skips the right-vector
/// columns annihilated by the threshold — the dominant cost of the RPCA
/// iteration at paper shapes. Numerically identical to
/// singular_value_threshold in both regimes.
SvtInfo singular_value_threshold_into(const Matrix& a, double tau,
                                      const SvdOptions& options,
                                      GramSvtScratch& scratch, Matrix& out);

/// Best rank-k approximation written into `out` through the same scratch
/// machinery (stable PCP's debias step). Numerically identical to
/// low_rank_approximation.
void low_rank_approximation_into(const Matrix& a, std::size_t k,
                                 const SvdOptions& options,
                                 GramSvtScratch& scratch, Matrix& out);

}  // namespace netconst::linalg
