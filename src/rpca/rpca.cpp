#include "rpca/rpca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/norms.hpp"
#include "obs/trace.hpp"
#include "rpca/apg.hpp"
#include "rpca/stable_pcp.hpp"
#include "rpca/stable_pcp_tf.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"

namespace netconst::rpca {

std::string solver_name(Solver solver) {
  switch (solver) {
    case Solver::Apg:
      return "APG";
    case Solver::StablePcp:
      return "StablePCP";
    case Solver::StablePcpTf:
      return "StablePCP-TF";
  }
  return "unknown";
}

double default_lambda(std::size_t rows, std::size_t cols) {
  NETCONST_CHECK(rows > 0 && cols > 0, "lambda of an empty matrix");
  return 1.0 / std::sqrt(static_cast<double>(std::max(rows, cols)));
}

Result solve(const linalg::Matrix& a, Solver solver,
             const Options& options) {
  SolverWorkspace workspace;
  Result result;
  solve(a, solver, options, workspace, result);
  return result;
}

namespace {

const char* solve_span_name(Solver solver) {
  switch (solver) {
    case Solver::Apg:
      return "rpca.solve.apg";
    case Solver::StablePcp:
      return "rpca.solve.stable_pcp";
    case Solver::StablePcpTf:
      return "rpca.solve.stable_pcp_tf";
  }
  return "rpca.solve";
}

}  // namespace

void solve(const linalg::Matrix& a, Solver solver, const Options& options,
           SolverWorkspace& workspace, Result& result) {
  NETCONST_CHECK(!a.empty(), "RPCA of an empty matrix");
  obs::Span solve_span(solve_span_name(solver));
  // Resolve the default lambda without copying Options (a copy would
  // duplicate any warm-start factors, defeating the workspace).
  const double lambda = options.lambda > 0.0
                            ? options.lambda
                            : default_lambda(a.rows(), a.cols());
  switch (solver) {
    case Solver::Apg:
      solve_apg(a, options, lambda, workspace, result);
      break;
    case Solver::StablePcp:
      solve_stable_pcp(a, options, lambda, /*noise_sigma=*/0.0, workspace,
                       result);
      break;
    case Solver::StablePcpTf:
      solve_stable_pcp_tf(a, options, lambda, /*noise_sigma=*/0.0,
                          kDefaultTfPassband, kDefaultTfWeight, workspace,
                          result);
      break;
    default:
      throw Error("unknown RPCA solver");
  }
  // A supplied seed must never be dropped silently: solvers without
  // warm-start support report the cold solve through the diagnostics.
  if (!options.warm_start.empty() && !result.warm_started) {
    result.warm_start_ignored = true;
  }
  result.solver_residual = result.residual;
  if (options.polish_iterations > 0) {
    polish(a, options, /*huber_start=*/false, workspace, result);
  }
  solve_span.set_value(result.iterations);
}

double relative_l0(const linalg::Matrix& e, const linalg::Matrix& a,
                   double rel_tol) {
  NETCONST_CHECK(e.same_shape(a), "relative_l0 shape mismatch");
  const double cutoff = rel_tol * linalg::max_abs(a);
  const auto e_count = linalg::l0_count(e, cutoff);
  const auto a_count = linalg::l0_count(a, cutoff);
  if (a_count == 0) return 0.0;
  const double ratio =
      static_cast<double>(e_count) / static_cast<double>(a_count);
  return std::clamp(ratio, 0.0, 1.0);
}

}  // namespace netconst::rpca
