#include "rpca/apg.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "obs/trace.hpp"
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

  reset_result(result);

  // Continuation schedule: mu starts near the spectral norm and decays to
  // mu_bar.
  double mu = 0.99 * linalg::spectral_norm(a, ws.spectral);
  if (mu <= 0.0) mu = 1.0;
  const double mu_bar = 1e-9 * mu;
  const double eta = 0.9;
  // Lipschitz constant of the smooth part's gradient is 2 (two blocks).
  const double inv_lf = 0.5;
  ws.d.resize(m, n);
  ws.d.fill(0.0);
  ws.e.resize(m, n);
  ws.e.fill(0.0);
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
    const auto svt = linalg::singular_value_threshold_into(
        ws.gd, mu * inv_lf, options.svd, ws.svt, ws.d);
    result.rank = svt.rank;

    t_prev = t;
    t = 0.5 * (1.0 + std::sqrt(4.0 * t * t + 1.0));
    mu = std::max(eta * mu, mu_bar);
    result.iterations = k + 1;

    // Convergence: relative change of the stacked iterate (D, E).
    double change = 0.0, scale = 0.0;
    linalg::iterate_change_norms(ws.d, ws.d_prev, ws.e, ws.e_prev, change,
                                 scale);
    iteration_span.set_value(static_cast<double>(k + 1));
    if (std::sqrt(change) <=
        options.tolerance * std::max(std::sqrt(scale), 1.0)) {
      result.converged = true;
      break;
    }
  }

  linalg::sub_sub(a, ws.d, ws.e, ws.residual);
  result.residual = linalg::frobenius_norm(ws.residual) / a_norm;
  result.low_rank.swap(ws.d);
  result.sparse.swap(ws.e);
  result.solve_seconds = clock.seconds();
}

}  // namespace netconst::rpca
