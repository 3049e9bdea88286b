// Frozen pre-workspace solver implementations.
//
// These are the original allocation-per-expression APG solver and
// rank-1 polish, kept verbatim for two jobs:
//
//  * equivalence testing — the workspace solver in apg and the polish
//    in rank1 must reproduce these bit for bit (the fused kernels and
//    scratch SVD paths preserve floating-point operation order; see
//    tests/rpca/workspace_equivalence_test.cpp);
//  * the perf baseline — bench/perf_regression.cpp reports workspace
//    speedup against exactly this code, so the comparison cannot drift
//    as the production solver evolves.
//
// rank1_huber_fit and polish came later, written in the same
// allocating style as twins of rpca::rank1_huber_fit and rpca::polish.
//
// Do not "optimize" anything in reference.cpp; its slowness is the point.
#pragma once

#include <vector>

#include "rpca/rpca.hpp"

namespace netconst::rpca::reference {

/// Replica of the original rpca::solve, including default lambda and
/// the allocating rank-1 polish.
Result solve(const linalg::Matrix& a, const Options& options = {});

Result solve_apg(const linalg::Matrix& a, const Options& options);

/// Twin of one 1-D fit of linalg::huber_fit_columns: the minimiser of
/// sum_t h_tau(b[t] - c[t] x) from `x`, comparing pieces through
/// per-term vectors.
double huber_fit_1d(const std::vector<double>& b,
                    const std::vector<double>& c, double tau, double x);

/// Twin of linalg::huber_newton_pass and linalg::huber_newton_hessian in
/// one: the objective, with the reduced gradient and Hessian in
/// `gradient` and `hessian`; every sum in four column lanes (column j in
/// lane j mod 4), added as ((l0 + l1) + l2) + l3.
double huber_newton_pass(const linalg::Matrix& a, const std::vector<double>& u,
                         const std::vector<double>& v, double tau,
                         std::vector<double>& gradient,
                         linalg::Matrix& hessian);

/// Twin of rpca::rank1_huber_fit: copies every column and row it fits,
/// compares pieces through per-term vectors and builds D and E with
/// matrix temporaries. Returns the v-sweeps run.
int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps, double polish_tolerance);

/// Twin of rpca::polish (the polish stage of rpca::solve; with
/// `huber_start`, rank1_huber_fit opens the budget), on the allocating
/// polish that reference::solve runs.
void polish(const linalg::Matrix& a, const Options& options,
            bool huber_start, Result& result);

}  // namespace netconst::rpca::reference
