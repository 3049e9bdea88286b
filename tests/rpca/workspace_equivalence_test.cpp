// The workspace solvers must be drop-in replacements for the frozen
// allocation-per-expression baselines in rpca/reference.hpp: same
// factors, same iteration counts, same diagnostics, bit for bit. These
// tests pin that contract on seeded random TP-shaped inputs and on a
// sliding-window trace-replay trajectory with warm starts and the
// rank-1 polish — the exact shapes the online refresher drives.
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/stable_pcp.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/rng.hpp"

namespace netconst::rpca {
namespace {

// The workspace<->reference contract is defined on the scalar operation
// order (docs/PERFORMANCE.md): the workspace solvers' fused convergence
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
  EXPECT_EQ(ws.warm_started, ref.warm_started);
  EXPECT_EQ(ws.warm_start_ignored, ref.warm_start_ignored);
  EXPECT_EQ(ws.final_mu, ref.final_mu);
  EXPECT_EQ(ws.mu_floor, ref.mu_floor);
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
  for (const Solver solver :
       {Solver::Apg, Solver::StablePcp, Solver::StablePcpTf}) {
    SCOPED_TRACE(solver_name(solver));
    const Result ws = solve(a, solver, opts);
    const Result ref = reference::solve(a, solver, opts);
    expect_identical(ws, ref);
  }
}

// Narrow (non-Gram-eligible) shapes route the SVT through the general
// SVD fallback; equivalence must hold there too.
TEST(WorkspaceEquivalence, ApgMatchesOffTheGramFastPath) {
  const linalg::Matrix a = tp_shaped_problem(8, 12, 9);
  Options opts;
  opts.max_iterations = 150;
  expect_identical(solve(a, Solver::Apg, opts),
                   reference::solve(a, Solver::Apg, opts));
}

// Sliding-window trace replay: each step shifts the window and re-solves
// warm from the previous factors with the rank-1 polish on — the online
// refresher's exact access pattern. One SolverWorkspace serves the whole
// trajectory, so this also proves reuse never leaks state between
// solves.
TEST(WorkspaceEquivalence, WarmStartTrajectoryMatchesReference) {
  const std::size_t rows = 8, cols = 36, steps = 5;
  Rng noise(21);
  std::vector<linalg::Matrix> window;
  linalg::Matrix base = tp_shaped_problem(rows, cols, 13);
  for (std::size_t s = 0; s < steps; ++s) {
    for (auto& v : base.data()) v += noise.uniform(-1e-3, 1e-3);
    window.push_back(base);
  }

  Options opts;
  opts.max_iterations = 200;
  opts.polish_iterations = 300;

  SolverWorkspace ws;
  Result ws_result;
  Result ref_prev;
  Result ws_prev;
  for (std::size_t s = 0; s < steps; ++s) {
    SCOPED_TRACE(s);
    Options ref_opts = opts;
    Options ws_opts = opts;
    if (s > 0) {
      ref_opts.warm_start = {ref_prev.low_rank, ref_prev.sparse,
                             ref_prev.final_mu, ref_prev.mu_floor};
      ws_opts.warm_start = {ws_prev.low_rank, ws_prev.sparse,
                            ws_prev.final_mu, ws_prev.mu_floor};
    }
    solve(window[s], Solver::Apg, ws_opts, ws, ws_result);
    const Result ref = reference::solve(window[s], Solver::Apg, ref_opts);
    expect_identical(ws_result, ref);
    EXPECT_EQ(ws_result.warm_started, s > 0);
    if (s > 0) {
      EXPECT_TRUE(ws_result.polished);
    }
    ref_prev = ref;
    ws_prev = ws_result;
  }
  EXPECT_EQ(ws.stats.solves, steps);
  EXPECT_EQ(ws.stats.svt_fallbacks, 0u);
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
    solve(a, Solver::Apg, opts, ws, result);
    expect_identical(result, reference::solve(a, Solver::Apg, opts));
  }
}

// A warm seed carrying the previous continuation state must skip the
// spectral-norm estimate entirely (the point of threading mu through
// WarmStart); a cold solve must pay for exactly one.
TEST(WorkspaceEquivalence, WarmSeedSkipsSpectralNormEstimate) {
  const linalg::Matrix a = tp_shaped_problem(8, 36, 17);
  Options opts;
  opts.max_iterations = 200;
  SolverWorkspace ws;
  Result result;
  solve(a, Solver::Apg, opts, ws, result);
  EXPECT_EQ(ws.stats.spectral_norm_evals, 1u);

  Options warm = opts;
  warm.warm_start = {result.low_rank, result.sparse, result.final_mu,
                     result.mu_floor};
  solve(a, Solver::Apg, warm, ws, result);
  EXPECT_TRUE(result.warm_started);
  EXPECT_EQ(ws.stats.spectral_norm_evals, 1u);

  // A seed without continuation state still has to re-derive the
  // schedule.
  warm.warm_start.mu = 0.0;
  warm.warm_start.mu_floor = 0.0;
  solve(a, Solver::Apg, warm, ws, result);
  EXPECT_EQ(ws.stats.spectral_norm_evals, 2u);
}

}  // namespace
}  // namespace netconst::rpca
