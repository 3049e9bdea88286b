// Rank-1 constrained robust decomposition.
//
// The paper's problem statement constrains the TC-matrix to rank exactly
// one (all calibration rows share the same constant component). This
// solver enforces that directly by alternating
//   D <- best rank-1 approximation of (A - E)      (power iteration)
//   E <- soft-threshold of (A - D)                 (prox of lambda||.||_1)
// which is a projected block-coordinate descent on the nonconvex set
// {rank(D) <= 1}. It is cheap (no full SVD) and serves as the ablation
// for "nuclear-norm surrogate vs hard rank-1 constraint".
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// The Solver::RankOne body of rpca::solve (see solve_apg for the
/// conventions). `lambda` is the sparse weight; the effective
/// elementwise threshold is scaled by the mean absolute value of `a` so
/// that lambda is comparable across solvers. Numerically identical to
/// reference::solve_rank1.
void solve_rank1(const linalg::Matrix& a, const Options& options,
                 double lambda, SolverWorkspace& ws, Result& result);

/// Power-iteration budget and sigma tolerance of every rank-1
/// approximation (the polish uses the same ones).
inline constexpr int kPowerIterations = 200;
inline constexpr double kPowerTolerance = 1e-12;

/// Best rank-1 approximation sigma * u * v^T of `a` via power iteration,
/// written into caller-owned output with power-iteration scratch;
/// allocation-free once `scratch` and `out` carry capacity.
void rank1_approximation_into(const linalg::Matrix& a, Rank1Scratch& scratch,
                              linalg::Matrix& out,
                              int max_iterations = kPowerIterations,
                              double tolerance = kPowerTolerance);

/// Rank-1 polish: refine `result`'s (D, E) in place by the solve_rank1
/// alternation (D <- rank-1 of A - E, E <- soft-threshold of A - D)
/// until the relative iterate change drops below `tolerance` or
/// `max_iterations` is hit. The alternation's fixed point depends only
/// on (A, lambda), not on the starting factors, as long as they lie in
/// its attraction basin — so two solves that agree to ~1% (e.g. a
/// warm-started and a cold APG run) polish to identical answers.
/// Updates low_rank/sparse/rank/residual and the polish_* diagnostics;
/// leaves iterations/converged/solver_residual describing the original
/// solve. `lambda` must be > 0. Each iteration is one power iteration
/// plus one fused pass over the window (linalg::rank1_polish_pass),
/// bit-identical to the sub / rank-1 / sub / soft-threshold chain it
/// replaced at every SIMD level. The alternation's temporaries come from
/// `ws`, so the online refresh loop polishes without allocating.
void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance, SolverWorkspace& ws);

}  // namespace netconst::rpca
