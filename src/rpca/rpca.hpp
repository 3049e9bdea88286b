// Robust Principal Component Analysis: A = D + E with D low-rank and E
// sparse, solved through the convex surrogate
//     minimize ||D||_* + lambda ||E||_1   s.t.  A = D + E.
//
// This is the mathematical core of the paper: the TP-matrix of a virtual
// cluster is decomposed into the rank-one constant component (TC-matrix)
// and the sparse error component (TE-matrix). Three solvers are
// provided, all running one accelerated proximal-gradient loop
// (rpca/apg.hpp accelerated_prox) and so sharing one convergence test,
// one probe contract and one iteration span:
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
#include <cstdint>
#include <string>

#include "linalg/matrix.hpp"
#include "linalg/svd.hpp"

namespace netconst::obs {
class SolverProbe;  // per-iteration convergence observer (obs/convergence.hpp)
}

namespace netconst::rpca {

enum class Solver { Apg, StablePcp, StablePcpTf };

// Defined in workspace.hpp; forward-declared so the workspace-based
// solve overloads below don't force every client through that header.
struct SolverWorkspace;
struct Rank1Scratch;

/// Human-readable solver name (for bench output).
std::string solver_name(Solver solver);

/// Seed for warm-starting a solve from the factors of a previous solve
/// of a nearby problem (e.g. the same sliding window shifted by one
/// row). `mu`/`mu_floor` carry the continuation state of the previous
/// APG solve so the warm solve can skip the mu-decay phase (a seed with
/// `mu > 0` never pays for a spectral-norm estimate; when `mu_floor` is
/// unset the solver derives it as 1e-9 * mu). Leave both at 0 to let the
/// solver re-derive its schedule.
struct WarmStart {
  linalg::Matrix low_rank;  // previous D, must match the data shape
  linalg::Matrix sparse;    // previous E, must match the data shape
  double mu = 0.0;          // continuation value the previous solve ended at
  double mu_floor = 0.0;    // the mu_bar it was decaying toward

  bool empty() const { return low_rank.empty() && sparse.empty(); }
};

/// Policy for routing the solvers' SVT steps through the randomized
/// sketch (linalg/randomized_svd.hpp) instead of a full decomposition.
/// Off by default: the exact path is what the bit-exact equivalence
/// against rpca::reference is pinned to, and the Gram fast path already
/// serves paper-shaped windows (<= 64 snapshot rows) allocation-free.
/// Enable for long windows, where the exact path would fall back to the
/// allocating Jacobi SVD every iteration. Even when enabled, only wide
/// inputs the Gram fast path cannot serve are sketched
/// (randomized_eligible in rpca/svd_path.cpp). Every randomized application
/// is verified: the truncation-error bound ||A - Q Q^T A||_F must stay
/// within max(tau_safety * tau, error_budget_rel * ||A||_F) or the step
/// is redone exactly (WorkspaceStats::randomized_fallbacks counts the
/// trips). See docs/ALGORITHMS.md "Incremental RPCA & randomized SVD".
struct RandomizedSvdPolicy {
  bool enabled = false;
  /// Seed of the workspace's sketch stream. Fixed default so identical
  /// call sequences through fresh workspaces reproduce bit-identically
  /// at any thread count and SIMD level.
  std::uint64_t seed = 0x6e6574636f6e7374ULL;
  std::size_t oversampling = 4;
  int power_iterations = 1;
  /// Initial / floor target rank; the dispatch adapts upward from the
  /// rank the previous SVT step kept (+1 headroom).
  std::size_t min_rank = 2;
  /// Hard cap on the adaptive target rank. One in-call growth retry is
  /// attempted before falling back to the exact decomposition.
  std::size_t max_rank = 96;
  /// Accept when the truncation bound is below this fraction of the
  /// threshold: every singular value the sketch missed would have been
  /// shrunk to (near) zero anyway.
  double tau_safety = 0.5;
  /// Extra relative budget: also accept when the bound is below this
  /// fraction of ||A||_F — an inexact proximal step whose perturbation
  /// sits orders of magnitude under the solver tolerance. The floor is
  /// set by the bound's own arithmetic: ||A||_F^2 - ||B||_F^2 carries
  /// ~sqrt(size * eps) * ||A||_F of cancellation noise (~5e-7 relative
  /// at paper shapes), so budgets below ~1e-6 reject perfect sketches.
  double error_budget_rel = 1e-6;
};

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
  /// Randomized-SVT routing policy (default off = exact solves).
  RandomizedSvdPolicy randomized;
  /// Optional warm-start seed. Honored by Apg only; StablePcp and
  /// StablePcpTf run cold and report it via Result::warm_start_ignored
  /// (never silently).
  WarmStart warm_start;
  /// > 0 runs the rank-1 polish after the solver (see polish_rank1):
  /// alternating hard rank-1 projection and soft-thresholding from the
  /// solver's (D, E) until the iterate change drops below
  /// polish_tolerance or this many iterations. The alternation has a
  /// strongly attracting fixed point determined by the data alone, so
  /// polished solves land on the same answer regardless of the path the
  /// solver took to the basin — this is what makes a warm-started solve
  /// exactly reproducible against a cold one. 0 = off (default).
  int polish_iterations = 0;
  /// Relative iterate-change tolerance of the polish alternation.
  double polish_tolerance = 1e-10;
  /// Optional convergence observer, called once per solver iteration
  /// with read-only diagnostics of the live iterates, by every solver
  /// (the shared loop calls it). Null — the default — costs the solver
  /// one branch per iteration and computes nothing extra.
  /// Observation never alters an iterate: outputs are byte-identical
  /// with and without a probe.
  obs::SolverProbe* probe = nullptr;
};

struct Result {
  linalg::Matrix low_rank;  // D
  linalg::Matrix sparse;    // E
  int iterations = 0;
  bool converged = false;
  std::size_t rank = 0;          // numerical rank of D
  double residual = 0.0;         // ||A - D - E||_F / ||A||_F
  double solve_seconds = 0.0;    // wall-clock time of the solve
  /// True when the solver seeded its iterates from options.warm_start.
  bool warm_started = false;
  /// True when a seed was supplied but this solver cannot use one (the
  /// solve ran cold).
  bool warm_start_ignored = false;
  /// Continuation state at exit (Apg); feed into the next WarmStart.
  double final_mu = 0.0;
  double mu_floor = 0.0;
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
/// still decides polish_converged. The online refresher's warm attempt
/// is this polish alone, run on the previous refresh's factors with no
/// solver in front: the fit reaches the alternation's fixed point,
/// which does not depend on the start, where the plain alternation
/// would crawl to its cap. solve() itself never does
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
