#include "rpca/ialm.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "rpca/svd_path.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca {

void solve_ialm(const linalg::Matrix& a, const Options& options,
                double lambda, SolverWorkspace& ws, Result& result) {
  NETCONST_CHECK(lambda > 0.0, "IALM requires lambda > 0");
  const Stopwatch clock;
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "IALM of an all-zero matrix is trivial");
  reset_result(result);
  ++ws.stats.solves;

  ++ws.stats.spectral_norm_evals;
  const double a_spec =
      std::max(linalg::spectral_norm(a, ws.spectral), 1e-300);
  // Multiplier initialization of the reference IALM implementation:
  // Y = A / max(||A||_2, ||A||_inf / lambda).
  const double dual_scale =
      std::max(a_spec, linalg::max_abs(a) / lambda);
  ws.y = a;
  ws.y *= 1.0 / dual_scale;

  double mu = 1.25 / a_spec;
  const double mu_max = mu * 1e7;
  const double rho = 1.5;

  ws.d.resize(m, n);
  ws.d.fill(0.0);
  ws.e.resize(m, n);
  ws.e.fill(0.0);

  for (int k = 0; k < options.max_iterations; ++k) {
    // D-step: SVT of A - E + Y/mu at threshold 1/mu.
    linalg::sub_add_scaled(a, ws.e, 1.0 / mu, ws.y, ws.target);
    const auto svt = svt_step(ws.target, 1.0 / mu, options, ws, ws.d);
    if (!svt.used_scratch) ++ws.stats.svt_fallbacks;
    result.rank = svt.rank;

    // E-step: soft threshold of A - D + Y/mu at lambda/mu.
    linalg::sub_add_scaled(a, ws.d, 1.0 / mu, ws.y, ws.target);
    linalg::soft_threshold_into(ws.target, lambda / mu, ws.e);

    // Multiplier update on the primal residual.
    linalg::sub_sub(a, ws.d, ws.e, ws.residual);
    linalg::add_scaled(mu, ws.residual, ws.y);
    mu = std::min(mu * rho, mu_max);
    result.iterations = k + 1;

    result.residual = linalg::frobenius_norm(ws.residual) / a_fro;
    if (result.residual <= options.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.low_rank.swap(ws.d);
  result.sparse.swap(ws.e);
  result.solve_seconds = clock.seconds();
}

}  // namespace netconst::rpca
