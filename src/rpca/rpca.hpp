// Robust Principal Component Analysis: A = D + E with D low-rank and E
// sparse, solved through the convex surrogate
//     minimize ||D||_* + lambda ||E||_1   s.t.  A = D + E.
//
// This is the mathematical core of the paper: the TP-matrix of a virtual
// cluster is decomposed into the rank-one constant component (TC-matrix)
// and the sparse error component (TE-matrix). Three solvers are
// provided, all running one accelerated proximal-gradient loop
// (rpca/apg.hpp accelerated_prox) from D = E = 0 and so sharing one
// convergence test, one iteration span and one cold start:
//
//  * Apg     — accelerated proximal gradient (Ji & Ye), the paper's choice;
//  * StablePcp — stable principal component pursuit, which additionally
//              tolerates dense small noise (the volatility band) in the
//              residual instead of forcing it into E; runs the loop with
//              a fixed mu;
//  * StablePcpTf — time-frequency constrained stable PCP (Hu/Wang/Yin),
//              which further band-limits D along the time axis so slow
//              diurnal/baseline structure stays in the constant
//              component while fast churn is pushed out of it.
//
// The paper's rank(N_D) = 1 constraint is imposed after any of them by
// the optional rank-1 polish (Options::polish_iterations, rpca/rank1.hpp).
#pragma once

#include <cstddef>
#include <string>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace netconst::rpca {

enum class Solver { Apg, StablePcp, StablePcpTf };

// Defined in workspace.hpp; forward-declared so the workspace-based
// solve overloads below don't force every client through that header.
struct SolverWorkspace;
struct Rank1Scratch;

/// Human-readable solver name (for bench output).
std::string solver_name(Solver solver);

struct Options {
  /// Sparsity weight. <= 0 selects the standard 1/sqrt(max(m, n)).
  double lambda = 0.0;
  int max_iterations = 500;
  /// Convergence tolerance. Every solver stops when the iterate change
  /// satisfies
  ///   ||(D, E) - (D, E)_prev||_F <= tolerance * max(||(D, E)||_F, 1),
  /// which is relative only while ||(D, E)||_F >= 1 and absolute below:
  /// on a latency layer (seconds) it is an absolute bound, on a
  /// bandwidth layer (B/s) a relative one (docs/ALGORITHMS.md §1).
  double tolerance = 1e-7;
  linalg::SvdOptions svd;
  /// > 0 runs the rank-1 polish after the solver (see polish_rank1):
  /// alternating hard rank-1 projection and soft-thresholding from the
  /// solver's (D, E) until the iterate change drops below
  /// polish_tolerance or this many iterations. Solves that end near
  /// each other usually polish to the same fixed point, but it is not
  /// unique: on noisy windows different starts can settle on different
  /// near-degenerate minima (docs/ALGORITHMS.md §7). 0 = off (default).
  int polish_iterations = 0;
  /// Relative iterate-change tolerance of the polish alternation.
  double polish_tolerance = 1e-10;
};

struct Result {
  linalg::Matrix low_rank;  // D
  linalg::Matrix sparse;    // E
  int iterations = 0;
  bool converged = false;
  std::size_t rank = 0;          // numerical rank of D
  double residual = 0.0;         // ||A - D - E||_F / ||A||_F
  double solve_seconds = 0.0;    // wall-clock time of the solve
  /// Residual of the raw solver output, before any polish. Equals
  /// `residual` when the polish is off. This is the solve's own health
  /// signal (the polished residual carries the soft-threshold floor and
  /// says nothing about the solve itself).
  double solver_residual = 0.0;
  /// True when the rank-1 polish ran on this result.
  bool polished = false;
  /// Iterations the polish used (0 when it did not run), counting each
  /// rank1_huber_fit sweep that opened it (rpca::polish).
  int polish_iterations = 0;
  /// True when the polish reached its tolerance (also true when the
  /// polish is off, so gating on !polish_converged only fires when the
  /// polish actually failed to settle).
  bool polish_converged = true;
};

/// Decompose `a` with the chosen solver. Throws ContractViolation on an
/// empty input.
Result solve(const linalg::Matrix& a, Solver solver,
             const Options& options = {});

/// Workspace-based solve: every iterate, panel, and factorization
/// scratch comes from `workspace`, and the factors land in `result`'s
/// existing buffers. Repeated calls with a warm workspace perform zero
/// steady-state heap allocations (see docs/PERFORMANCE.md); `options` is
/// read in place, never copied. Numerically identical to the allocating
/// overload, which routes through this one.
void solve(const linalg::Matrix& a, Solver solver, const Options& options,
           SolverWorkspace& workspace, Result& result);

/// The rank-1 polish stage of solve(), in an `rpca.polish` span: run
/// polish_rank1 on `result` with options' polish budget and tolerance
/// (options.polish_iterations must be > 0) and add its time to
/// solve_seconds. With `huber_start`, the budget opens with
/// rank1_huber_fit (at most kHuberFitSweeps sweeps, each counted as a
/// polish iteration) and polish_rank1 gets the rest, so its step test
/// still decides polish_converged. Every full-path layer of the online
/// refresher is this polish alone, with no solver in front: the fit
/// from the layer's last E, or from E = 0, reaches a stationary point
/// of the alternation where the plain alternation would crawl to its
/// cap. Which stationary point can depend on the start on noisy windows
/// (docs/ALGORITHMS.md §7). solve() itself never opens with the fit
/// (huber_start = false). Both stages share ||A||_F and the threshold,
/// computed once, and the fit's finishing pass leaves the alternation
/// its first input, so the pair costs no more window passes than it
/// needs and stays bit-identical to reference::polish.
void polish(const linalg::Matrix& a, const Options& options,
            bool huber_start, SolverWorkspace& workspace, Result& result);

/// Standard lambda = 1 / sqrt(max(m, n)).
double default_lambda(std::size_t rows, std::size_t cols);

/// The paper's effectiveness metric Norm(E) = ||E||_0 / ||A||_0 with the
/// zero-count taken at `rel_tol * max|A|` (exact zero tests are
/// meaningless in floating point). Result is clamped to [0, 1].
double relative_l0(const linalg::Matrix& e, const linalg::Matrix& a,
                   double rel_tol = 1e-3);

}  // namespace netconst::rpca
