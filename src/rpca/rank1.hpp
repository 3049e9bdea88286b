// The rank-1 stage of the pipeline.
//
// The paper's problem statement constrains the TC-matrix to rank exactly
// one (all calibration rows share the same constant component). APG
// reaches it only through the nuclear-norm surrogate; the rank-1 polish
// then enforces it directly by alternating
//   D <- best rank-1 approximation of (A - E)      (power iteration)
//   E <- soft-threshold of (A - D)                 (prox of tau||.||_1)
// from the solver's (D, E), a projected block-coordinate descent on the
// nonconvex set {rank(D) <= 1}. rank1_huber_fit reaches a fixed point
// of the same alternation in a few Newton steps; rpca::polish (rpca.hpp) runs
// the two back to back.
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// Power-iteration budget and sigma tolerance of every rank-1
/// approximation the polish and the Huber fit take.
inline constexpr int kPowerIterations = 200;
inline constexpr double kPowerTolerance = 1e-12;

/// Rank-1 polish: refine `result`'s (D, E) in place by the alternation
/// (D <- rank-1 of A - E, E <- soft-threshold of A - D at tau = lambda *
/// mean|A|) until the relative iterate change drops below `tolerance` or
/// `max_iterations` is hit. Starting factors in one attraction basin
/// polish to the same fixed point, so two solves that agree to ~1% (e.g.
/// APG runs on two nearby windows) usually polish to identical
/// answers. The fixed point is not unique, though: on noisy windows
/// starts in different basins settle on different near-degenerate
/// minima (docs/ALGORITHMS.md §7).
/// Updates low_rank/sparse/rank/residual and the polish_* diagnostics;
/// leaves iterations/converged/solver_residual describing the original
/// solve. `lambda` must be > 0. Each iteration is one power iteration
/// plus one fused pass over the window (linalg::rank1_polish_pass),
/// bit-identical to the sub / rank-1 / sub / soft-threshold chain it
/// replaced at every SIMD level. The pass writes each iterate over the
/// last in `result` and sums the final residual as it goes, so the
/// alternation holds no second (D, E) and no residual matrix; its other
/// temporaries come from `ws`, so the online refresh loop polishes
/// without allocating. This
/// and rank1_huber_fit are thin wrappers over the two stages that
/// rpca::polish runs back to back; it computes ||A||_F and tau once for
/// both.
void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance, SolverWorkspace& ws);

/// Budget of rank1_huber_fit, in v-sweeps.
inline constexpr int kHuberFitSweeps = 50;
/// Halvings of a rejected Newton step before rank1_huber_fit falls back
/// to one alternating sweep.
inline constexpr int kNewtonHalvings = 3;
/// rank1_huber_fit accepts a trial point whose objective is at most the
/// current one plus this much of it: the objective's rounding.
inline constexpr double kObjectiveRounding = 1e-14;

/// Rank-1 Huber fit: minimise the polish's own objective
///   F(u, v) = sum_ij h_tau(A_ij - u_i v_j),   tau = lambda * mean|A|,
/// where h_tau is the Huber function (r^2/2 inside tau, tau|r| - tau^2/2
/// outside) — eliminating E from ||A - D - E||^2/2 + tau||E||_1 leaves
/// exactly this. polish_rank1's alternation is a unit-step projected
/// gradient on it and crawls along the directions where entries sit in
/// the soft threshold's linear part. This fit works on u alone (rows()
/// entries): for a fixed u the best v is exact and separable, cols()
/// 1-D fits (a v-sweep), so the fit minimises f(u) = F(u, v(u)) by
/// Newton's method (variable projection). Each 1-D fit is a bracketed
/// semismooth Newton that stops once a step lands on the piece of the
/// piecewise-quadratic objective it was computed on (from a warm start,
/// usually one evaluation and one pass that checks the pieces).
///
/// Starts from the rank-1 approximation of A - E (`result`'s E — the
/// polish's own first D step), fits v to it, then takes one alternating
/// sweep (every u_i against v, then v against u): a Newton step from
/// the power iteration's start lands short, the sweep's exact fits do
/// not. Each further iteration is a Newton step on u:
///   * linalg::huber_newton_pass gives f and its gradient g; where a
///     step is taken, linalg::huber_newton_hessian gives its Hessian
///     H = diag(sum_j q v_j^2) - sum_j b_j b_j^T / c_j (q marks entries
///     on the quadratic piece, b_ij = q u_i v_j - psi_ij,
///     c_j = sum_i q u_i^2);
///   * f does not change when u is scaled up and v down by the same
///     factor, so H has no curvature along u; the gauge term
///     (tr H / m) u u^T / ||u||^2 fixes that direction;
///   * the Cholesky solve gives the step; the trial u's v-sweep and pass
///     give its objective, and the step is accepted when f rises by at
///     most kObjectiveRounding relative. A rejected step is halved up to
///     kNewtonHalvings times, then replaced by one alternating sweep, as
///     is a step whose matrix is not positive definite.
/// The fit stops when an iteration changes u and v each by at most
/// polish_tolerance / 10 relative, or after `max_sweeps` (>= 0)
/// v-sweeps; returns the v-sweeps run. The closing alternation step that
/// certifies the fit (rpca::polish) tests its step at polish_tolerance,
/// so the fit stops one digit under that test instead of polishing
/// factors the test cannot see; the window's dense noise (1-4% on
/// EC2-like clouds) is orders of magnitude above either. Leaves
/// low_rank = u v^T, sparse = soft_tau(A - u v^T), rank = 1 and the
/// matching residual in `result`; the other diagnostics are untouched.
/// The sweeps' 1-D fits go through linalg::huber_fit_columns: the v_j
/// fits over the columns of A, the u_i fits over those of A^T (copied
/// into ws.target once). Under AVX2 the fits run in lane groups, each
/// lane repeating the scalar fit's operations, and the Newton pass adds
/// its sums in fixed column lanes; the factor-change sums add in index
/// order. One finishing pass (linalg::rank1_finish_pass) then forms
/// u v^T, the soft-thresholded E and A - E, which it leaves in
/// ws.target for rpca::polish's closing alternation; only this public
/// entry computes the residual. The starting power iteration runs on
/// the active SIMD level's kernels exactly as the twin's does, so the
/// fit is bit-identical to reference::rank1_huber_fit at every level.
/// Allocation-free once `ws` carries capacity.
int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, double polish_tolerance,
                    SolverWorkspace& ws);

}  // namespace netconst::rpca
