// The rank-1 stage of the pipeline.
//
// The paper's problem statement constrains the TC-matrix to rank exactly
// one (all calibration rows share the same constant component). The
// convex solvers reach it only through the nuclear-norm surrogate; the
// rank-1 polish then enforces it directly by alternating
//   D <- best rank-1 approximation of (A - E)      (power iteration)
//   E <- soft-threshold of (A - D)                 (prox of tau||.||_1)
// from the solver's (D, E), a projected block-coordinate descent on the
// nonconvex set {rank(D) <= 1}. rank1_huber_fit reaches a fixed point
// of the same alternation in a few sweeps; rpca::polish (rpca.hpp) runs
// the two back to back. rank1_approximation_into is the power iteration
// on its own (stable PCP's noise estimate uses it).
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca {

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
/// replaced at every SIMD level. The alternation's temporaries come from
/// `ws`, so the online refresh loop polishes without allocating. This
/// and rank1_huber_fit are thin wrappers over the two stages that
/// rpca::polish runs back to back; it computes ||A||_F and tau once for
/// both.
void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance, SolverWorkspace& ws);

/// Sweep budget and relative factor-change tolerance of rank1_huber_fit.
/// The tolerance sits well under the polish's 1e-10 step test, so the
/// polish that follows a converged fit settles in a step or two.
inline constexpr int kHuberFitSweeps = 50;
inline constexpr double kHuberFitTolerance = 1e-13;

/// Rank-1 Huber fit: minimise the polish's own objective
///   sum_ij h_tau(A_ij - u_i v_j),   tau = lambda * mean|A|,
/// where h_tau is the Huber function (r^2/2 inside tau, tau|r| - tau^2/2
/// outside) — eliminating E from ||A - D - E||^2/2 + tau||E||_1 leaves
/// exactly this. polish_rank1's alternation is a unit-step projected
/// gradient on it and crawls along the directions where entries sit in
/// the soft threshold's linear part; this fit instead alternates exact
/// 1-D minimisations, every v_j against u (rows() terms each), then
/// every u_i against v (cols() terms each), so it reaches the same
/// stationary point in a handful of sweeps. Each 1-D fit is a bracketed
/// semismooth Newton that stops once a step lands on the piece of the
/// piecewise-quadratic objective it was computed on (from a warm start,
/// usually one evaluation and one pass that checks the pieces).
///
/// Starts from the rank-1 approximation of A - E (`result`'s E — the
/// polish's own first D step) and stops when a sweep changes the
/// factors by at most kHuberFitTolerance relative, or after
/// `max_sweeps` (>= 0) sweeps; returns the sweeps run. Leaves
/// low_rank = u v^T, sparse = soft_tau(A - u v^T), rank = 1 and the
/// matching residual in `result`; the other diagnostics are untouched.
/// A sweep's 1-D fits go through linalg::huber_fit_columns: the v_j fits
/// over the columns of A, the u_i fits over those of A^T (copied into
/// ws.target once). Under AVX2 the fits run in lane groups — the
/// v-sweep's two vectors of four per pass, a 10-row window's u-sweep
/// all three at once — each lane repeating the scalar fit's
/// operations; the factor-change sums add in index order after each
/// sweep. One finishing pass (linalg::rank1_finish_pass) then forms
/// u v^T, the soft-thresholded E and A - E, which it leaves in
/// ws.target for rpca::polish's closing alternation; only this public
/// entry computes the residual. The starting power iteration runs on
/// the active SIMD level's kernels exactly as the twin's does, so the
/// fit is bit-identical to reference::rank1_huber_fit at every level.
/// Allocation-free once `ws` carries capacity (the next factor goes to
/// ws.rank1.w).
int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, SolverWorkspace& ws);

}  // namespace netconst::rpca
