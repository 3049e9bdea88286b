// Accelerated proximal gradient RPCA solver (Ji & Ye's accelerated
// gradient method for trace-norm minimization, the algorithm the paper
// uses via the reference APG sample code).
//
// Solves the relaxed problem
//   min_{D,E}  mu ||D||_* + mu lambda ||E||_1 + 1/2 ||A - D - E||_F^2
// with Nesterov acceleration and a continuation schedule mu_k -> mu_bar.
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// The APG body of rpca::solve, from D = E = 0 with the mu schedule
/// mu <- max(0.9 mu, 1e-9 mu_0), mu_0 = 0.99 ||A||_2. All iterates and
/// factorization scratch live in `ws`, so repeated solves of
/// same-shaped problems allocate nothing. `lambda` is pre-resolved by
/// the caller (must be > 0); options.lambda is ignored so rpca::solve
/// never has to copy Options. Honors options.tolerance and emits one
/// rpca.apg.iteration span per iteration. Numerically identical to
/// reference::solve_apg.
void solve_apg(const linalg::Matrix& a, const Options& options,
               double lambda, SolverWorkspace& ws, Result& result);

}  // namespace netconst::rpca
