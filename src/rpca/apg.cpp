#include "rpca/apg.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "obs/convergence.hpp"
#include "obs/trace.hpp"
#include "rpca/stable_pcp_tf.hpp"
#include "rpca/svd_path.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca {

void solve_apg(const linalg::Matrix& a, const Options& options,
               double lambda, SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(lambda > 0.0, "APG requires lambda > 0");
  const Stopwatch clock;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double a_norm = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_norm > 0.0, "APG of an all-zero matrix is trivial");

  const WarmStart& seed = options.warm_start;
  const bool warm = !seed.empty();
  if (warm) {
    NETCONST_CHECK(seed.low_rank.rows() == m && seed.low_rank.cols() == n &&
                       seed.sparse.rows() == m && seed.sparse.cols() == n,
                   "warm-start seed shape does not match the data");
  }
  reset_result(result);
  ++ws.stats.solves;

  // Continuation schedule: mu starts near the spectral norm and decays to
  // mu_bar. A warm seed carrying its continuation value resumes there; a
  // seed without a floor gets the same 1e-9 ratio applied to the carried
  // mu, so a resumed solve never pays for a spectral-norm estimate whose
  // result it would discard.
  double mu, mu_bar;
  if (warm && seed.mu > 0.0) {
    mu_bar = seed.mu_floor > 0.0 ? seed.mu_floor : 1e-9 * seed.mu;
    mu = std::max(seed.mu, mu_bar);
  } else {
    ++ws.stats.spectral_norm_evals;
    mu = 0.99 * linalg::spectral_norm(a, ws.spectral);
    if (mu <= 0.0) mu = 1.0;
    mu_bar = 1e-9 * mu;
  }

  if (warm) {
    ws.d = seed.low_rank;
    ws.e = seed.sparse;
  } else {
    ws.d.resize(m, n);
    ws.d.fill(0.0);
    ws.e.resize(m, n);
    ws.e.fill(0.0);
  }
  result.warm_started = warm;
  mu = accelerated_prox(a, a_norm, options, lambda, mu, mu_bar, /*eta=*/0.9,
                        BandLimit{}, ws, result);

  linalg::sub_sub(a, ws.d, ws.e, ws.residual);
  result.residual = linalg::frobenius_norm(ws.residual) / a_norm;
  result.low_rank.swap(ws.d);
  result.sparse.swap(ws.e);
  result.final_mu = mu;
  result.mu_floor = mu_bar;
  result.solve_seconds = clock.seconds();
}

double accelerated_prox(const linalg::Matrix& a, double a_norm,
                        const Options& options, double lambda, double mu,
                        double mu_bar, double eta, const BandLimit& band,
                        SolverWorkspace& ws, Result& result) {
  // Lipschitz constant of the smooth part's gradient is 2 (two blocks).
  const double inv_lf = 0.5;
  ws.d_prev = ws.d;
  ws.e_prev = ws.e;
  double t = 1.0, t_prev = 1.0;

  for (int k = 0; k < options.max_iterations; ++k) {
    obs::Span iteration_span("rpca.apg.iteration");
    const double momentum = (t_prev - 1.0) / t;
    // Extrapolated points Y_D, Y_E, the shared residual Y_D + Y_E - A of
    // the smooth term, both proximal gradient steps, and the sparse
    // block's soft-threshold prox, all in one pass: ws.ge receives the
    // next E iterate directly.
    linalg::gradient_step(ws.d, ws.d_prev, ws.e, ws.e_prev, a, momentum,
                          inv_lf, lambda * mu * inv_lf, ws.gd, ws.ge);

    ws.d.swap(ws.d_prev);
    ws.e.swap(ws.e_prev);
    ws.e.swap(ws.ge);
    const auto svt = svt_step(ws.gd, mu * inv_lf, options, ws, ws.d);
    if (!svt.used_scratch) ++ws.stats.svt_fallbacks;
    result.rank = svt.rank;
    band_limit_step(ws.d, band, mu, ws);

    t_prev = t;
    t = 0.5 * (1.0 + std::sqrt(4.0 * t * t + 1.0));
    mu = std::max(eta * mu, mu_bar);
    result.iterations = k + 1;

    // Convergence: relative change of the stacked iterate (D, E).
    double change = 0.0, scale = 0.0;
    linalg::iterate_change_norms(ws.d, ws.d_prev, ws.e, ws.e_prev, change,
                                 scale);
    iteration_span.set_value(static_cast<double>(k + 1));
    if (options.probe != nullptr) {
      // Read-only diagnostics of the live iterates; ws.residual is
      // scratch here (the callers recompute it from the final iterates),
      // so probing never perturbs the solve.
      obs::IterationStats stats;
      stats.iteration = k + 1;
      double residual_sq = 0.0, e_l1 = 0.0;
      std::size_t e_nonzero = 0;
      linalg::decomposition_sums(a, ws.d, ws.e, residual_sq, e_l1,
                                 e_nonzero);
      stats.residual = std::sqrt(residual_sq) / a_norm;
      const double misfit = stats.residual * a_norm;
      stats.objective = misfit * misfit / (2.0 * mu) + lambda * e_l1;
      stats.rank = result.rank;
      stats.sparsity = static_cast<double>(e_nonzero) /
                       static_cast<double>(a.rows() * a.cols());
      stats.mu = mu;
      stats.step = std::sqrt(change) / std::max(std::sqrt(scale), 1.0);
      options.probe->on_iteration(stats);
    }
    if (std::sqrt(change) <=
        options.tolerance * std::max(std::sqrt(scale), 1.0)) {
      result.converged = true;
      break;
    }
  }
  return mu;
}

}  // namespace netconst::rpca
