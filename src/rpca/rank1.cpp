#include "rpca/rank1.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "linalg/qr.hpp"
#include "obs/trace.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca {

namespace {

/// Power iteration on A^T A for the dominant singular pair (at most
/// kPowerIterations, to kPowerTolerance): leaves the right vector in
/// scratch.v and A v (= sigma * u_hat) in scratch.u, so the rank-1
/// approximation is u v^T. A zero `a` leaves both all +0.0, whose outer
/// product is the +0.0 matrix.
void rank1_factors(const linalg::Matrix& a, Rank1Scratch& scratch) {
  NETCONST_CHECK(!a.empty(), "rank-1 approximation of an empty matrix");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  std::vector<double>& u = scratch.u;
  std::vector<double>& v = scratch.v;
  std::vector<double>& w = scratch.w;
  v.assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
  u.resize(m);
  w.resize(n);
  const auto zero = [&] {
    u.assign(m, 0.0);
    v.assign(n, 0.0);
  };
  double sigma_prev = 0.0;
  for (int it = 0; it < kPowerIterations; ++it) {
    linalg::multiply_into(a, v, u);  // A v
    const double unorm = linalg::norm2(u);
    if (unorm == 0.0) return zero();  // A is zero
    linalg::scale(1.0 / unorm, u);
    linalg::multiply_transposed_into(a, u, w);  // A^T u
    const double sigma = linalg::norm2(w);
    if (sigma == 0.0) return zero();
    for (std::size_t j = 0; j < n; ++j) v[j] = w[j] / sigma;
    if (std::abs(sigma - sigma_prev) <=
        kPowerTolerance * std::max(sigma, 1.0)) {
      break;
    }
    sigma_prev = sigma;
  }
  linalg::multiply_into(a, v, u);  // = sigma * u_hat
}

/// What the polish's two stages share about the window: ||A||_F (the
/// residual's scale) and the soft threshold tau = lambda * mean|A|,
/// scaled to the data so one lambda means the same across windows
/// (APG's thresholds scale with ||A|| too).
struct WindowScalars {
  double a_fro = 0.0;
  double tau = 0.0;
};

WindowScalars window_scalars(const linalg::Matrix& a, double lambda) {
  NETCONST_CHECK(lambda > 0.0, "polish requires lambda > 0");
  // ||A||_F and ||A||_1 in one loop: two independent chains, each in
  // index order, so both match linalg::frobenius_norm and
  // linalg::l1_norm bit for bit.
  double squares = 0.0, magnitudes = 0.0;
  for (const double x : a.data()) {
    squares += x * x;
    magnitudes += std::abs(x);
  }
  WindowScalars s;
  s.a_fro = std::sqrt(squares);
  NETCONST_CHECK(s.a_fro > 0.0, "polish of an all-zero matrix");
  s.tau = lambda * (magnitudes / static_cast<double>(a.size()));
  return s;
}

/// The Newton step on u at the point of the last Newton pass on the
/// window (s.gradient = g, s.lanes): s.step = -(H + mu u u^T /
/// ||u||^2)^-1 g with the reduced Hessian H and mu = tr H / m. The
/// objective does not change when u is scaled up and v down by the
/// same factor, so H has no curvature along u; the gauge term fixes that
/// direction. False when the matrix is not positive definite.
bool newton_step(std::size_t cols, std::span<const double> u,
                 Rank1Scratch& s) {
  const std::size_t m = u.size();
  linalg::Matrix& hessian = s.hessian;
  linalg::huber_newton_hessian(m, cols, s.lanes, hessian);
  double uu = 0.0, trace = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    uu += u[k] * u[k];
    trace += hessian(k, k);
  }
  const double gauge = trace / static_cast<double>(m) / uu;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t l = 0; l <= k; ++l) hessian(k, l) += gauge * (u[k] * u[l]);
  }
  s.step.resize(m);
  for (std::size_t k = 0; k < m; ++k) s.step[k] = -s.gradient[k];
  return linalg::cholesky_solve(hessian, s.step);
}

/// The rank-1 Huber fit (see rank1_huber_fit), then its finishing
/// pass: leaves low_rank = u v^T, sparse = soft_tau(A - u v^T) and
/// ws.target = A - sparse, the closing alternation's first input.
/// Returns the v-sweeps run.
int huber_fit(const linalg::Matrix& a, double tau, int max_sweeps,
              double polish_tolerance, SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(max_sweeps >= 0, "Huber fit needs a sweep budget >= 0");
  NETCONST_CHECK(result.sparse.same_shape(a),
                 "Huber fit start does not match the data shape");
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();

  linalg::sub(a, result.sparse, ws.target);
  rank1_factors(ws.target, ws.rank1);
  Rank1Scratch& s = ws.rank1;
  std::vector<double>& u = s.u;
  std::vector<double>& v = s.v;
  std::vector<double>& next = s.w;
  // The v_j fits are the columns of A and the alternating sweeps' u_i
  // fits those of A^T; linalg::huber_fit_columns takes both layouts, so
  // A^T goes to ws.target once.
  linalg::Matrix& at = ws.target;
  at.resize(n, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) at(j, i) = a(i, j);
  }
  // x <- from, adding sum (from - x)^2 to `change` and sum from^2 to
  // `scale` in index order.
  const auto take = [](std::vector<double>& x, const std::vector<double>& from,
                       double& change, double& scale) {
    for (std::size_t k = 0; k < x.size(); ++k) {
      change += (from[k] - x[k]) * (from[k] - x[k]);
      scale += from[k] * from[k];
      x[k] = from[k];
    }
  };
  // next <- v(u_at), the v_j fits against u_at from v, and the Newton
  // pass there; returns the objective.
  s.gradient.resize(m);
  const auto v_sweep = [&](const std::vector<double>& u_at) {
    next.resize(n);
    linalg::huber_fit_columns(a, at, u_at, tau, v, next);
    return linalg::huber_newton_pass(a, u_at, next, tau, s.gradient,
                                     s.lanes);
  };
  const double tolerance = polish_tolerance / 10.0;
  int sweeps = 0;
  if (max_sweeps > 0) {  // v against the start's u
    next.resize(n);
    linalg::huber_fit_columns(a, at, u, tau, v, next);
    v = next;
    ++sweeps;
  }
  // Whether the Newton pass has run at (u, v), so a step can be taken
  // from it; the first sweep alternates.
  bool newton = false;
  double objective = 0.0;
  s.trial.resize(m);
  while (sweeps < max_sweeps) {
    double dv = 0.0, vv = 0.0, du = 0.0, uu = 0.0;
    bool accepted = false;
    if (newton && newton_step(n, u, s)) {
      double t = 1.0;
      for (int h = 0; h <= kNewtonHalvings && sweeps < max_sweeps;
           ++h, t *= 0.5) {
        for (std::size_t k = 0; k < m; ++k) s.trial[k] = u[k] + t * s.step[k];
        const double trial_objective = v_sweep(s.trial);
        ++sweeps;
        if (trial_objective <=
            objective + kObjectiveRounding * std::abs(objective)) {
          objective = trial_objective;
          take(u, s.trial, du, uu);
          take(v, next, dv, vv);
          accepted = true;
          break;
        }
      }
    }
    if (!accepted) {
      if (sweeps == max_sweeps) break;
      // One alternating sweep: every u_i against v, then v against u.
      next.resize(m);
      linalg::huber_fit_columns(at, a, v, tau, u, next);
      take(u, next, du, uu);
      objective = v_sweep(u);
      ++sweeps;
      take(v, next, dv, vv);
      newton = true;
    }
    if (std::sqrt(dv) <= tolerance * std::sqrt(vv) &&
        std::sqrt(du) <= tolerance * std::sqrt(uu)) {
      break;
    }
  }
  linalg::rank1_finish_pass(a, u, v, tau, result.low_rank, result.sparse,
                            ws.target);
  return sweeps;
}

/// polish_rank1's alternation from ws.target = A - result.sparse, each
/// iterate written over the last in place. Returns ||A - D - E||_F^2 of
/// the final (D, E).
double alternate(const linalg::Matrix& a, double tau, int max_iterations,
                 double tolerance, SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(max_iterations > 0 && tolerance > 0.0,
                 "polish needs positive iteration budget and tolerance");
  NETCONST_CHECK(result.low_rank.same_shape(a) && result.sparse.same_shape(a),
                 "polish factors do not match the data shape");
  result.polished = true;
  result.polish_converged = false;
  double residual_sq = 0.0;
  for (int k = 0; k < max_iterations; ++k) {
    rank1_factors(ws.target, ws.rank1);
    // One pass forms the next D = u v^T, E = soft(A - D) and A - E over
    // the current (D, E), and sums the change between the two, the next
    // iterate's scale and its residual.
    double change = 0.0, scale = 0.0;
    linalg::rank1_polish_pass(a, ws.rank1.u, ws.rank1.v, tau,
                              result.low_rank, result.sparse, result.low_rank,
                              result.sparse, ws.target, change, scale,
                              residual_sq);
    result.polish_iterations = k + 1;
    if (std::sqrt(change) <= tolerance * std::sqrt(scale)) {
      result.polish_converged = true;
      break;
    }
  }
  return residual_sq;
}

/// The rank-1 result's residual ||A - D - E||_F / ||A||_F.
void finish(double residual_fro, double a_fro, Result& result) {
  result.residual = residual_fro / a_fro;
  result.rank = 1;
}

}  // namespace

void polish_rank1(const linalg::Matrix& a, Result& result, double lambda,
                  int max_iterations, double tolerance, SolverWorkspace& ws) {
  const WindowScalars s = window_scalars(a, lambda);
  linalg::sub(a, result.sparse, ws.target);
  const double residual_sq =
      alternate(a, s.tau, max_iterations, tolerance, ws, result);
  finish(std::sqrt(residual_sq), s.a_fro, result);
}

int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, double polish_tolerance,
                    SolverWorkspace& ws) {
  const WindowScalars s = window_scalars(a, lambda);
  const int sweeps =
      huber_fit(a, s.tau, max_sweeps, polish_tolerance, ws, result);
  finish(linalg::residual_norm(a, result.low_rank, result.sparse), s.a_fro,
         result);
  return sweeps;
}

void polish(const linalg::Matrix& a, const Options& options,
            bool huber_start, SolverWorkspace& workspace, Result& result) {
  NETCONST_CHECK(options.polish_iterations > 0, "polish without a budget");
  obs::Span polish_span("rpca.polish");
  const Stopwatch polish_clock;
  const double lambda = options.lambda > 0.0
                            ? options.lambda
                            : default_lambda(a.rows(), a.cols());
  const WindowScalars s = window_scalars(a, lambda);
  const int budget = options.polish_iterations;
  // The fit leaves the alternation at least one step: that step's test
  // is what certifies the fixed point. It also leaves the alternation's
  // first input A - E in workspace.target.
  int fit_sweeps = 0;
  if (huber_start && budget > 1) {
    fit_sweeps = huber_fit(a, s.tau, std::min(kHuberFitSweeps, budget - 1),
                           options.polish_tolerance, workspace, result);
  } else {
    linalg::sub(a, result.sparse, workspace.target);
  }
  const double residual_sq =
      alternate(a, s.tau, budget - fit_sweeps, options.polish_tolerance,
                workspace, result);
  finish(std::sqrt(residual_sq), s.a_fro, result);
  result.polish_iterations += fit_sweeps;
  result.solve_seconds += polish_clock.seconds();
  polish_span.set_value(result.polish_iterations);
}

}  // namespace netconst::rpca
