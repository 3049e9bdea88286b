#include "rpca/workspace.hpp"

#include <algorithm>

namespace netconst::rpca {

void SolverWorkspace::reserve(std::size_t rows, std::size_t cols) {
  for (linalg::Matrix* p :
       {&d, &e, &d_prev, &e_prev, &gd, &ge, &target}) {
    p->resize(rows, cols);
  }
  const std::size_t small = std::min(rows, cols);
  const std::size_t large = std::max(rows, cols);
  // Gram fast-path working set (engaged for wide inputs; harmless
  // over-reserve otherwise).
  svt.gram.resize(small, small);
  svt.eig_scratch.work.resize(small, small);
  svt.eig_scratch.rotations.resize(small, small);
  svt.eig_scratch.order.reserve(small);
  svt.eig_scratch.diagonal.reserve(small);
  svt.eig.eigenvalues.reserve(small);
  svt.eig.eigenvectors.resize(small, small);
  svt.singular_values.reserve(small);
  svt.shrunk.reserve(small);
  svt.v.resize(small, large);
  svt.u_kept.resize(small, small);
  spectral.x.reserve(small);
  spectral.y.reserve(small);
  spectral.t.reserve(large);
  rank1.u.reserve(rows);
  rank1.v.reserve(cols);
  rank1.w.reserve(large);
}

void reset_result(Result& result) {
  result.iterations = 0;
  result.converged = false;
  result.rank = 0;
  result.residual = 0.0;
  result.solve_seconds = 0.0;
  result.solver_residual = 0.0;
  result.polished = false;
  result.polish_iterations = 0;
  result.polish_converged = true;
}

}  // namespace netconst::rpca
