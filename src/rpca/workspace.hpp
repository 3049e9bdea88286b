// Reusable solver storage: every iterate, panel, and factorization
// scratch the RPCA solvers touch, owned by the caller and recycled
// across solves.
//
// The solvers were originally written allocation-per-expression: each
// iteration built ~10 fresh m x n temporaries (plus the SVD's internal
// working set), which at paper shapes means hundreds of kilobytes of
// mmap/zero-fault traffic per iteration. A SolverWorkspace threaded
// through rpca::solve() turns all of that into capacity-reusing resizes:
// after the first iteration of the first solve, the steady state performs
// zero heap allocations (verified by bench/perf_regression.cpp with an
// instrumented allocator). The online WindowRefresher keeps one workspace
// alive for the lifetime of the stream, so its refreshes are
// allocation-free end to end.
//
// Numerically, workspace solves are identical to the frozen baselines in
// rpca/reference.hpp — the fused kernels replicate the original
// floating-point operation order exactly (see linalg/fused.hpp and
// tests/rpca/workspace_equivalence_test.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// Counters a workspace accumulates across the solves it serves; used by
/// tests and the bench harness (fast-path coverage). Never reset by the
/// solvers — callers sample deltas.
struct WorkspaceStats {
  /// Solver entries (one per solve_* call through this workspace).
  std::size_t solves = 0;
  /// SVT calls that fell off the allocation-free Gram fast path onto the
  /// general (allocating) SVD. Zero for paper-shaped (wide) data.
  std::size_t svt_fallbacks = 0;
};

/// Power-iteration vectors for rank1_approximation_into, and the rank-1
/// Huber fit's factors.
struct Rank1Scratch {
  std::vector<double> u;  // left iterate, length m
  std::vector<double> v;  // right iterate, length n
  // A^T u intermediate (length n); the Huber fit's next factor
  // (length n, then m).
  std::vector<double> w;
};

/// Temporal-DCT working set for the time-frequency stable PCP solver:
/// the orthonormal DCT-II basis, cached per window length so repeated
/// solves of the same shape never rebuild it, and the coefficient panel
/// the band-limiting prox step shrinks in.
struct TemporalDctScratch {
  linalg::Matrix basis;        // basis_rows x basis_rows frequency atoms
  linalg::Matrix coeffs;       // rows x cols coefficient panel
  std::size_t basis_rows = 0;  // window length `basis` was built for
};

/// The full working set of one solver instance. Matrices are rotated
/// with Matrix::swap (O(1), no copies) and reshaped with Matrix::resize
/// (capacity-reusing), so a workspace that has seen a problem shape once
/// never allocates for it again.
struct SolverWorkspace {
  // Iterate pair; the solvers swap (d, d_prev) instead of copying.
  linalg::Matrix d, e, d_prev, e_prev;
  // Decomposition residual and the two proximal gradient steps (the
  // extrapolated points and the smooth-term residual are never
  // materialized — linalg::gradient_step computes them on the fly).
  linalg::Matrix residual, gd, ge;
  // Shrinkage target (A - E) and general m x n scratch.
  linalg::Matrix target;
  // Gram-path SVT working set (Gram matrix, Jacobi scratch, V panel).
  linalg::GramSvtScratch svt;
  // Power-iteration vectors for continuation-schedule estimates.
  linalg::SpectralNormScratch spectral;
  // rank-1 approximation / polish power-iteration vectors.
  Rank1Scratch rank1;
  // |residual| magnitudes for stable PCP's MAD noise estimate.
  std::vector<double> magnitudes;
  // Temporal-DCT basis and coefficient panel for TF stable PCP.
  TemporalDctScratch dct;

  WorkspaceStats stats;

  /// Pre-size the working set for rows x cols problems so even the first
  /// solve's iterations run allocation-free. Optional — solvers size
  /// everything on demand; this just front-loads the cost.
  void reserve(std::size_t rows, std::size_t cols);
};

/// Reset every scalar/diagnostic field of `result` to its default while
/// keeping the low_rank/sparse buffers (their capacity is what makes
/// repeated solves into the same Result allocation-free).
void reset_result(Result& result);

}  // namespace netconst::rpca
