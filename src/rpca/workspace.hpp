// Reusable solver storage: every iterate, panel, and factorization
// scratch APG and the rank-1 polish touch, owned by the caller and
// recycled across solves.
//
// The solver was originally written allocation-per-expression: each
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

/// The polish's power-iteration vectors, and the rank-1 Huber fit's
/// factors and Newton steps.
struct Rank1Scratch {
  std::vector<double> u;  // left iterate, length m
  std::vector<double> v;  // right iterate, length n
  // A^T u intermediate (length n); the Huber fit's next v (length n)
  // and, in its alternating sweeps, next u (length m).
  std::vector<double> w;
  // The fit's Newton step, trial u and gradient (length m), its reduced
  // Hessian (m x m) and the Newton pass's accumulators.
  std::vector<double> step, trial, gradient;
  linalg::Matrix hessian, lanes;
};

/// The full working set of one solver instance. Matrices are rotated
/// with Matrix::swap (O(1), no copies) and reshaped with Matrix::resize
/// (capacity-reusing), so a workspace that has seen a problem shape once
/// never allocates for it again.
struct SolverWorkspace {
  // APG's iterate pairs; it swaps (d, d_prev) instead of copying. The
  // rank-1 polish never touches them: it writes its iterates in place in
  // the Result.
  linalg::Matrix d, e, d_prev, e_prev;
  // The two proximal gradient steps (the extrapolated points and the
  // smooth-term residual are never materialized — linalg::gradient_step
  // computes them on the fly, and the decomposition's residual norm is
  // summed without a buffer).
  linalg::Matrix gd, ge;
  // Shrinkage target (A - E) and general m x n scratch.
  linalg::Matrix target;
  // Gram-path SVT working set (Gram matrix, Jacobi scratch, V panel).
  linalg::GramSvtScratch svt;
  // Power-iteration vectors for continuation-schedule estimates.
  linalg::SpectralNormScratch spectral;
  // rank-1 approximation / polish power-iteration vectors.
  Rank1Scratch rank1;

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
