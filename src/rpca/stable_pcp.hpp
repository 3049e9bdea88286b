// Stable Principal Component Pursuit (Zhou, Li, Wright, Candès, Ma):
//   min ||D||_* + lambda ||E||_1   s.t.  ||A - D - E||_F <= delta,
// the RPCA variant for data that carries dense small noise in ADDITION
// to the sparse corruption — exactly the structure of calibrated
// network measurements (volatility band + interference spikes).
//
// Solved in its Lagrangian form
//   min mu ||D||_* + mu lambda ||E||_1 + 1/2 ||A - D - E||_F^2
// by proximal gradient with a FIXED mu matched to the noise level
// (mu = sqrt(2 max(m, n)) * sigma), instead of APG's continuation of
// mu -> 0, through APG's accelerated_prox loop. The residual A - D - E
// then absorbs the dense noise rather than being forced into E.
#pragma once

#include "rpca/apg.hpp"
#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// Inputs of reference::solve_stable_pcp. The production solver takes
/// the same values as plain arguments (see solve_stable_pcp below).
struct StablePcpOptions {
  Options base;
  /// Standard deviation of the dense noise. <= 0 = estimate from the
  /// data via the median absolute deviation of the rank-1 residual.
  double noise_sigma = 0.0;
};

/// Stable PCP decomposition, the Solver::StablePcp body of rpca::solve
/// (see solve_apg for the conventions); `result.residual` reports the
/// dense-noise part ||A - D - E||_F / ||A||_F, which is *expected* to
/// be nonzero. `lambda` must be pre-resolved (> 0); `noise_sigma <= 0`
/// estimates it from the data. Honors `base.probe`. A `band` that is on
/// makes this TF stable PCP: D is band-limited after every SVT and once
/// more after the debias refit. Numerically identical to
/// reference::solve_stable_pcp (and, with a band, to
/// reference::solve_stable_pcp_tf).
void solve_stable_pcp(const linalg::Matrix& a, const Options& base,
                      double lambda, double noise_sigma, SolverWorkspace& ws,
                      Result& result, const BandLimit& band = {});

/// Robust noise-level estimate: 1.4826 * MAD of the entries of
/// A - rank1(A). Suitable when the low-rank component is (near) rank-1.
/// Runs through workspace scratch (allocation-free once the workspace
/// is warm).
double estimate_noise_sigma(const linalg::Matrix& a, SolverWorkspace& ws);

}  // namespace netconst::rpca
