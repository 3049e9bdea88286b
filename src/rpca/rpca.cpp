#include "rpca/rpca.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/norms.hpp"
#include "obs/trace.hpp"
#include "rpca/apg.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"

namespace netconst::rpca {

double default_lambda(std::size_t rows, std::size_t cols) {
  NETCONST_CHECK(rows > 0 && cols > 0, "lambda of an empty matrix");
  return 1.0 / std::sqrt(static_cast<double>(std::max(rows, cols)));
}

Result solve(const linalg::Matrix& a, const Options& options) {
  SolverWorkspace workspace;
  Result result;
  solve(a, options, workspace, result);
  return result;
}

void solve(const linalg::Matrix& a, const Options& options,
           SolverWorkspace& workspace, Result& result) {
  NETCONST_CHECK(!a.empty(), "RPCA of an empty matrix");
  obs::Span solve_span("rpca.solve.apg");
  // Resolve the default lambda without copying Options.
  const double lambda = options.lambda > 0.0
                            ? options.lambda
                            : default_lambda(a.rows(), a.cols());
  solve_apg(a, options, lambda, workspace, result);
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
