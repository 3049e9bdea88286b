// The workspace solver must be a drop-in replacement for the frozen
// allocation-per-expression baseline in rpca/reference.hpp: same
// factors, same iteration counts, same diagnostics, bit for bit. These
// tests pin that contract on seeded random TP-shaped inputs, on and off
// the Gram fast path, and across shapes through one workspace.
#include <cstddef>

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/rng.hpp"

namespace netconst::rpca {
namespace {

// The workspace<->reference contract is defined on the scalar operation
// order (docs/PERFORMANCE.md): the workspace solver's fused convergence
// reduction lane-splits its accumulators under a SIMD level while the
// frozen reference keeps its in-line scalar loop, so this suite pins
// the scalar kernels for the whole binary. tests/linalg/simd_test.cpp
// covers scalar-vs-vector agreement separately.
const linalg::simd::ScopedLevel g_scalar_kernels(
    linalg::simd::Level::Scalar);

void expect_identical(const Result& ws, const Result& ref) {
  ASSERT_TRUE(ws.low_rank.same_shape(ref.low_rank));
  ASSERT_TRUE(ws.sparse.same_shape(ref.sparse));
  EXPECT_EQ(ws.low_rank.max_abs_diff(ref.low_rank), 0.0);
  EXPECT_EQ(ws.sparse.max_abs_diff(ref.sparse), 0.0);
  EXPECT_EQ(ws.iterations, ref.iterations);
  EXPECT_EQ(ws.converged, ref.converged);
  EXPECT_EQ(ws.rank, ref.rank);
  EXPECT_EQ(ws.residual, ref.residual);
  EXPECT_EQ(ws.solver_residual, ref.solver_residual);
  EXPECT_EQ(ws.polished, ref.polished);
  EXPECT_EQ(ws.polish_iterations, ref.polish_iterations);
  EXPECT_EQ(ws.polish_converged, ref.polish_converged);
}

linalg::Matrix tp_shaped_problem(std::size_t rows, std::size_t cols,
                                 unsigned seed) {
  Rng rng(seed);
  SyntheticSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.rank = 1;
  spec.sparsity = 0.05;
  return make_synthetic(spec, rng).data;
}

TEST(WorkspaceEquivalence, AllSolversMatchReferenceBitExactly) {
  const linalg::Matrix a = tp_shaped_problem(10, 64, 7);
  Options opts;
  opts.max_iterations = 200;
  expect_identical(solve(a, opts), reference::solve(a, opts));
}

// Narrow (non-Gram-eligible) shapes route the SVT through the general
// SVD fallback; equivalence must hold there too.
TEST(WorkspaceEquivalence, ApgMatchesOffTheGramFastPath) {
  const linalg::Matrix a = tp_shaped_problem(8, 12, 9);
  Options opts;
  opts.max_iterations = 150;
  expect_identical(solve(a, opts), reference::solve(a, opts));
}

// A workspace that served one problem shape must produce untainted
// results on a different shape (and back again).
TEST(WorkspaceEquivalence, WorkspaceReuseAcrossShapes) {
  Options opts;
  opts.max_iterations = 120;
  SolverWorkspace ws;
  Result result;
  for (const auto& a :
       {tp_shaped_problem(6, 24, 3), tp_shaped_problem(10, 48, 4),
        tp_shaped_problem(6, 24, 3)}) {
    solve(a, opts, ws, result);
    expect_identical(result, reference::solve(a, opts));
  }
}

}  // namespace
}  // namespace netconst::rpca
