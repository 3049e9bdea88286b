// Randomized truncated SVD (Halko, Martinsson & Tropp): project onto a
// small random subspace, orthonormalize, and solve the small problem.
// For the near-rank-1 matrices RPCA iterates on, a rank budget of a few
// columns captures the spectrum at a fraction of a full decomposition's
// cost — the practical SVT path for window shapes the Gram fast path
// cannot serve (more than 64 snapshot rows; see linalg/shrinkage.hpp).
//
// Determinism contract: every reduction in this file is either a
// fixed-order scalar loop or an elementwise axpy accumulation (blas
// elementwise kernels are bit-identical at every SIMD level), and
// parallelism only ever splits *independent output elements* across
// workers. Factors are therefore bit-identical across thread counts AND
// SIMD levels given the same Rng state — a stronger contract than the
// blas dot kernels, whose lane-split accumulators are deterministic per
// level only.
//
// Error accounting: with Q the orthonormal sketch basis and B = Q^T A,
//   ||A - Q Q^T A||_F^2 = ||A||_F^2 - ||B||_F^2
// is a free byproduct of the factorization, and every singular value of
// A the sketch missed is bounded by that Frobenius error. The *_into
// entry points report it as `truncation_error` and refuse to write
// output when it exceeds the caller's acceptance bound, which is what
// lets the RPCA solvers use an approximate SVT as a verified inexact
// proximal step with automatic fallback to the exact path (see
// docs/ALGORITHMS.md "Incremental RPCA & randomized SVD").
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/eigen_sym.hpp"
#include "support/rng.hpp"

namespace netconst::linalg {

struct RandomizedSvdOptions {
  /// Extra random directions beyond the target rank (stabilizes the
  /// subspace capture).
  std::size_t oversampling = 8;
  /// Power iterations (A A^T)^q sharpen the spectrum separation; 1-2 is
  /// standard for slowly decaying spectra.
  int power_iterations = 2;
};

/// Reusable working set of the scratch-based entry points below. One of
/// these lives in each rpca::SolverWorkspace; after the first call at a
/// given shape and sketch width, every subsequent call is allocation-free.
struct RandomizedSvdScratch {
  /// Sketch directions, stored transposed (one direction per contiguous
  /// row) and cached across calls: redrawing costs a Box–Muller draw per
  /// entry, which would dominate at TP-matrix widths, and a frozen
  /// sketch keeps repeated SVT calls deterministic for free. The cache
  /// is redrawn from the caller's Rng whenever the input width changes
  /// or a wider sketch is requested (Matrix::resize leaves values
  /// unspecified, so partial reuse across a growth is not defined).
  Matrix omega_t;
  std::size_t filled_directions = 0;
  std::size_t omega_cols = 0;

  Matrix y;     // rows x sketch: sketch image / QR work
  Matrix q;     // rows x sketch: orthonormal basis of the sketch range
  Matrix z;     // sketch x cols: A^T panel of the power iteration
  Matrix b;     // sketch x cols: small problem B = Q^T A
  Matrix gram;  // sketch x sketch: B B^T
  Matrix mix;   // sketch x sketch: U_B diag(shrink ratio) U_B^T
  Matrix w;     // rows x sketch: Q * mix
  std::vector<double> tau;              // Householder scaling factors
  std::vector<double> row_partials;     // per-row |A_i|^2 partial sums
  std::vector<double> singular_values;  // captured spectrum, descending
  std::vector<double> ratio;            // per-value shrink ratios
  SymmetricEigenScratch eig_scratch;    // Jacobi working set for `gram`
  SymmetricEigen eig;

  /// Pre-size for rows x cols inputs and sketch widths up to
  /// `sketch_cap` (clamped to rows). Optional — the entry points size
  /// everything on demand; this front-loads the cost so even the first
  /// call runs allocation-free. Does NOT draw sketch directions (that
  /// consumes the Rng and is deferred to first use).
  void reserve(std::size_t rows, std::size_t cols, std::size_t sketch_cap);
};

/// Diagnostics of one randomized SVT / low-rank application.
struct RandomizedSvdInfo {
  /// Singular values surviving the threshold (SVT) or kept (low-rank).
  std::size_t rank = 0;
  double top_singular_value = 0.0;
  /// Frobenius bound ||A - Q Q^T A||_F on everything the sketch missed;
  /// any singular value of A not represented in the output is <= this.
  double truncation_error = 0.0;
  /// ||A||_F, computed with the deterministic fixed-order kernels (the
  /// relative acceptance bound is checked against this, never against
  /// the lane-split blas norm, so the accept/reject decision itself is
  /// identical across SIMD levels).
  double input_fro = 0.0;
  /// Sketch width actually used (min(target + oversampling, rows)).
  std::size_t sketch = 0;
  /// True when the decomposition was accepted (truncation_error within
  /// the caller's bound, or the sketch spanned the full row space and
  /// the result is exact to roundoff) and `out` holds the
  /// reconstruction. False leaves `out` untouched — the caller falls
  /// back to the exact path.
  bool accepted = false;
};

/// Approximate singular value thresholding D_tau(A) through a rank
/// `target_rank` sketch, written into caller-owned `out`. Requires
/// rows <= cols (RPCA data is wide; callers transpose or use the exact
/// path otherwise). The result is accepted only when truncation_error
/// <= max(acceptance_bound, acceptance_rel * ||A||_F); pass a fraction
/// of `tau` as the absolute bound to make the missed spectrum provably
/// sub-threshold, and a small relative budget to admit an inexact
/// proximal step bounded well below the solver tolerance.
RandomizedSvdInfo randomized_svt_into(const Matrix& a, double tau,
                                      std::size_t target_rank, Rng& rng,
                                      const RandomizedSvdOptions& options,
                                      double acceptance_bound,
                                      double acceptance_rel,
                                      RandomizedSvdScratch& scratch,
                                      Matrix& out);

/// Approximate best rank-`k` approximation of `a` (stable PCP's debias
/// step) through the same machinery and acceptance rule.
RandomizedSvdInfo randomized_low_rank_into(const Matrix& a, std::size_t k,
                                           Rng& rng,
                                           const RandomizedSvdOptions& options,
                                           double acceptance_bound,
                                           double acceptance_rel,
                                           RandomizedSvdScratch& scratch,
                                           Matrix& out);

}  // namespace netconst::linalg
