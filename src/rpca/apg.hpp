// Accelerated proximal gradient RPCA solver (Ji & Ye's accelerated
// gradient method for trace-norm minimization, the algorithm the paper
// uses via the reference APG sample code).
//
// Solves the relaxed problem
//   min_{D,E}  mu ||D||_* + mu lambda ||E||_1 + 1/2 ||A - D - E||_F^2
// with Nesterov acceleration and a continuation schedule mu_k -> mu_bar.
//
// The iteration itself (accelerated_prox) is shared with stable PCP and
// TF stable PCP, which solve the same Lagrangian with mu held fixed.
#pragma once

#include <cstddef>

#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// The Solver::Apg body of rpca::solve. All iterates and factorization
/// scratch live in `ws`, so repeated solves of same-shaped problems
/// allocate nothing. `lambda` is pre-resolved by the caller (must be
/// > 0); options.lambda is ignored so the dispatcher never has to copy
/// Options. Numerically identical to reference::solve_apg, except that
/// a warm seed carrying `mu > 0` always resumes its continuation
/// (deriving the floor as 1e-9 * mu when the seed has none) instead of
/// re-estimating the spectral norm only to discard it.
void solve_apg(const linalg::Matrix& a, const Options& options,
               double lambda, SolverWorkspace& ws, Result& result);

/// Band limit on D along the time axis (TF stable PCP): after every SVT
/// the temporal DCT coefficients of D with frequency index >= keep_rows
/// are soft-thresholded by weight * mu / 2. The default is off.
struct BandLimit {
  std::size_t keep_rows = 0;
  double weight = 0.0;
};

/// The accelerated proximal-gradient loop of APG, stable PCP and TF
/// stable PCP. Iterates from the caller's ws.d / ws.e with the mu
/// schedule mu <- max(eta * mu, mu_bar) (eta = 1, mu_bar = mu for a
/// fixed mu), band-limiting D after each SVT when `band` is on. Honors
/// options.probe and options.tolerance, emits one rpca.apg.iteration
/// span per iteration, and sets result.rank / iterations / converged.
/// `a_norm` is ||A||_F (> 0). Returns the final mu; the final iterates
/// are left in ws.d / ws.e.
double accelerated_prox(const linalg::Matrix& a, double a_norm,
                        const Options& options, double lambda, double mu,
                        double mu_bar, double eta, const BandLimit& band,
                        SolverWorkspace& ws, Result& result);

}  // namespace netconst::rpca
