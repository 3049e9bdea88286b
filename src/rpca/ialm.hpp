// Inexact augmented Lagrange multiplier RPCA solver (Lin, Chen & Ma).
//
// Solves  min ||D||_* + lambda ||E||_1  s.t. A = D + E  by alternating
// the two proximal updates against the augmented Lagrangian and updating
// the multiplier Y. Typically converges in far fewer SVDs than APG; kept
// as an ablation target for the paper's solver choice.
#pragma once

#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// The Solver::Ialm body of rpca::solve (see solve_apg for the
/// conventions). Numerically identical to reference::solve_ialm.
void solve_ialm(const linalg::Matrix& a, const Options& options,
                double lambda, SolverWorkspace& ws, Result& result);

}  // namespace netconst::rpca
