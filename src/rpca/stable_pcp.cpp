#include "rpca/stable_pcp.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "rpca/rank1.hpp"
#include "rpca/stable_pcp_tf.hpp"
#include "rpca/svd_path.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::rpca {

double estimate_noise_sigma(const linalg::Matrix& a, SolverWorkspace& ws) {
  NETCONST_CHECK(!a.empty(), "noise estimate of an empty matrix");
  rank1_approximation_into(a, ws.rank1, ws.target);
  linalg::sub(a, ws.target, ws.residual);
  const auto rs = ws.residual.data();
  ws.magnitudes.resize(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    ws.magnitudes[i] = std::abs(rs[i]);
  }
  const std::size_t mid = ws.magnitudes.size() / 2;
  std::nth_element(ws.magnitudes.begin(), ws.magnitudes.begin() + mid,
                   ws.magnitudes.end());
  // MAD -> sigma for Gaussian noise.
  return 1.4826 * ws.magnitudes[mid];
}

void solve_stable_pcp(const linalg::Matrix& a, const Options& base,
                      double lambda, double noise_sigma, SolverWorkspace& ws,
                      Result& result, const BandLimit& band) {
  NETCONST_CHECK(!a.empty(), "stable PCP of an empty matrix");
  NETCONST_CHECK(lambda > 0.0, "stable PCP requires lambda > 0");
  const Stopwatch clock;
  reset_result(result);
  ++ws.stats.solves;
  double sigma = noise_sigma;
  if (sigma <= 0.0) sigma = estimate_noise_sigma(a, ws);
  NETCONST_CHECK(sigma >= 0.0, "noise sigma must be non-negative");

  const double a_fro = linalg::frobenius_norm(a);
  NETCONST_CHECK(a_fro > 0.0, "stable PCP of an all-zero matrix");
  // Zhou et al.'s recommended Lagrangian weight, held fixed: with
  // eta = 1 and mu_bar = mu the loop's max(eta * mu, mu_bar) is mu.
  const double mu =
      std::sqrt(2.0 * static_cast<double>(std::max(a.rows(), a.cols()))) *
      std::max(sigma, 1e-12 * linalg::max_abs(a));

  ws.d.resize(a.rows(), a.cols());
  ws.d.fill(0.0);
  ws.e.resize(a.rows(), a.cols());
  ws.e.fill(0.0);
  accelerated_prox(a, a_fro, base, lambda, mu, /*mu_bar=*/mu, /*eta=*/1.0,
                   band, ws, result);

  // Debias: the nuclear-norm prox shrinks every kept singular value by
  // ~mu/2; refit D as the exact rank-r projection of A - E with the
  // discovered rank (standard post-processing for stable PCP). The refit
  // is taken from data that still carries the high-frequency noise a
  // band limit excludes, so the band is re-imposed once.
  if (result.rank > 0) {
    linalg::sub(a, ws.e, ws.target);
    low_rank_step(ws.target, result.rank, base, ws, ws.d);
    band_limit_step(ws.d, band, mu, ws);
  }

  linalg::sub_sub(a, ws.d, ws.e, ws.residual);
  result.residual = linalg::frobenius_norm(ws.residual) / a_fro;
  result.low_rank.swap(ws.d);
  result.sparse.swap(ws.e);
  result.solve_seconds = clock.seconds();
}

}  // namespace netconst::rpca
