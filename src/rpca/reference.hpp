// Frozen pre-workspace solver implementations.
//
// These are the original allocation-per-expression RPCA solvers, kept
// verbatim for two jobs:
//
//  * equivalence testing — the workspace solvers in apg/stable_pcp/
//    stable_pcp_tf and the polish in rank1 must reproduce these bit
//    for bit (the fused kernels and scratch SVD paths preserve
//    floating-point operation order; see
//    tests/rpca/workspace_equivalence_test.cpp);
//  * the perf baseline — bench/perf_regression.cpp reports workspace
//    speedup against exactly this code, so the comparison cannot drift
//    as the production solvers evolve.
//
// rank1_huber_fit and polish came later, written in the same
// allocating style as twins of rpca::rank1_huber_fit and rpca::polish.
//
// Do not "optimize" anything in reference.cpp; its slowness is the point.
#pragma once

#include "rpca/rpca.hpp"
#include "rpca/stable_pcp.hpp"
#include "rpca/stable_pcp_tf.hpp"

namespace netconst::rpca::reference {

/// Replica of the original rpca::solve dispatch, including default
/// lambda and the allocating rank-1 polish.
Result solve(const linalg::Matrix& a, Solver solver,
             const Options& options = {});

Result solve_apg(const linalg::Matrix& a, const Options& options);
Result solve_stable_pcp(const linalg::Matrix& a,
                        const StablePcpOptions& options = {});
// The TF-constrained variant's transform kernels (basis build, panel
// products, coefficient shrink) are sequential scalar loops shared with
// the production solver — sharing them is what makes the equivalence
// structural rather than a rewrite that has to be re-validated.
Result solve_stable_pcp_tf(const linalg::Matrix& a,
                           const StablePcpTfOptions& options = {});

/// Twin of rpca::rank1_huber_fit: copies every column and row it fits,
/// compares pieces through per-term vectors and builds D and E with
/// matrix temporaries. Returns the sweeps run.
int rank1_huber_fit(const linalg::Matrix& a, Result& result, double lambda,
                    int max_sweeps);

/// Twin of rpca::polish (the polish stage of rpca::solve; with
/// `huber_start`, rank1_huber_fit opens the budget), on the allocating
/// polish that reference::solve runs.
void polish(const linalg::Matrix& a, const Options& options,
            bool huber_start, Result& result);

}  // namespace netconst::rpca::reference
