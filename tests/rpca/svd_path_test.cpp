// The randomized-SVT dispatch inside the batch solvers: policy off must
// keep the exact path byte-for-byte (the bit-exactness pinned in
// workspace_equivalence_test), policy on must converge to the same
// decomposition within the verified inexact-prox budget, reproduce
// bit-identically across SIMD levels, and fall back to the exact
// decomposition whenever the truncation bound trips.
#include "rpca/svd_path.hpp"

#include <gtest/gtest.h>

#include "linalg/norms.hpp"
#include "linalg/simd.hpp"
#include "rpca/validation.hpp"

namespace netconst::rpca {
namespace {

SyntheticProblem tall_problem(std::uint64_t seed) {
  // 72 rows defeats the Gram fast path (small > 64), which is exactly
  // where the sketch is meant to take over.
  SyntheticSpec spec;
  spec.rows = 72;
  spec.cols = 160;
  spec.rank = 3;
  spec.sparsity = 0.05;
  Rng rng(seed);
  return make_synthetic(spec, rng);
}

Options exact_options() {
  Options options;
  // The comparisons below re-solve the same instance up to four times;
  // a 1e-6 target keeps the suite fast without weakening any assertion
  // (both sides of every comparison share the options).
  options.tolerance = 1e-6;
  return options;
}

Options randomized_options() {
  Options options = exact_options();
  options.randomized.enabled = true;
  return options;
}

TEST(SvdPath, PolicyOffNeverSketches) {
  const SyntheticProblem problem = tall_problem(1);
  SolverWorkspace ws;
  Result result;
  solve(problem.data, Solver::Apg, exact_options(), ws, result);
  EXPECT_EQ(ws.stats.randomized_attempts, 0u);
  EXPECT_EQ(ws.stats.randomized_accepts, 0u);
  EXPECT_EQ(ws.stats.randomized_fallbacks, 0u);
}

TEST(SvdPath, RandomizedMatchesExactWithinBudget) {
  const SyntheticProblem problem = tall_problem(2);

  SolverWorkspace exact_ws;
  Result exact;
  solve(problem.data, Solver::Apg, exact_options(), exact_ws, exact);

  SolverWorkspace sketch_ws;
  Result sketched;
  solve(problem.data, Solver::Apg, randomized_options(), sketch_ws,
        sketched);

  EXPECT_GT(sketch_ws.stats.randomized_attempts, 0u);
  EXPECT_GT(sketch_ws.stats.randomized_accepts, 0u);
  EXPECT_EQ(sketched.rank, exact.rank);
  const double scale = linalg::frobenius_norm(problem.data);
  EXPECT_LT(exact.low_rank.max_abs_diff(sketched.low_rank), 1e-5 * scale);
  EXPECT_LT(exact.sparse.max_abs_diff(sketched.sparse), 1e-5 * scale);
  // The accepted steps carried the adaptive rank target forward.
  EXPECT_GT(sketch_ws.randomized.next_rank, 0u);
}

TEST(SvdPath, RandomizedRecoversPlantedFactors) {
  const SyntheticProblem problem = tall_problem(3);
  SolverWorkspace ws;
  Result result;
  solve(problem.data, Solver::Apg, randomized_options(), ws, result);
  const RecoveryError err =
      measure_recovery(problem, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 1e-3);
  EXPECT_LT(err.sparse_error, 1e-2);
}

// The sketch kernels are bit-identical across SIMD levels (pinned in
// randomized_svd_test); the surrounding solver is not (its spectral
// norms use the lane-split dot, as on the exact path). What must hold
// here is that the *dispatch decisions* — every attempt, accept, retry
// and fallback — never depend on the SIMD level, and the factors agree
// to solver precision.
TEST(SvdPath, PathDecisionsInvariantAcrossSimdLevels) {
  const SyntheticProblem problem = tall_problem(4);
  Result scalar_result, native_result;
  WorkspaceStats scalar_stats, native_stats;
  {
    linalg::simd::ScopedLevel force(linalg::simd::Level::Scalar);
    SolverWorkspace ws;
    solve(problem.data, Solver::Apg, randomized_options(), ws,
          scalar_result);
    scalar_stats = ws.stats;
  }
  {
    SolverWorkspace ws;
    solve(problem.data, Solver::Apg, randomized_options(), ws,
          native_result);
    native_stats = ws.stats;
  }
  EXPECT_EQ(scalar_stats.randomized_attempts,
            native_stats.randomized_attempts);
  EXPECT_EQ(scalar_stats.randomized_accepts,
            native_stats.randomized_accepts);
  EXPECT_EQ(scalar_stats.randomized_retries,
            native_stats.randomized_retries);
  EXPECT_EQ(scalar_stats.randomized_fallbacks,
            native_stats.randomized_fallbacks);
  EXPECT_EQ(scalar_result.iterations, native_result.iterations);
  EXPECT_EQ(scalar_result.rank, native_result.rank);
  const double scale = linalg::frobenius_norm(problem.data);
  EXPECT_LT(scalar_result.low_rank.max_abs_diff(native_result.low_rank),
            1e-10 * scale);
  EXPECT_LT(scalar_result.sparse.max_abs_diff(native_result.sparse),
            1e-10 * scale);
}

TEST(SvdPath, ReproducesAcrossFreshWorkspaces) {
  const SyntheticProblem problem = tall_problem(5);
  Result first, second;
  {
    SolverWorkspace ws;
    solve(problem.data, Solver::Apg, randomized_options(), ws, first);
  }
  {
    SolverWorkspace ws;
    solve(problem.data, Solver::Apg, randomized_options(), ws, second);
  }
  EXPECT_EQ(first.low_rank.max_abs_diff(second.low_rank), 0.0);
  EXPECT_EQ(first.sparse.max_abs_diff(second.sparse), 0.0);
}

TEST(SvdPath, StarvedRankBudgetFallsBackExactly) {
  const SyntheticProblem problem = tall_problem(6);
  Options starved = randomized_options();
  // A rank-1 sketch with no oversampling cannot cover the planted
  // rank-3 spectrum and has no growth headroom: every step must trip
  // the truncation bound and be redone through the exact path.
  starved.randomized.min_rank = 1;
  starved.randomized.max_rank = 1;
  starved.randomized.oversampling = 0;
  starved.randomized.tau_safety = 0.0;
  starved.randomized.error_budget_rel = 0.0;

  SolverWorkspace exact_ws;
  Result exact;
  solve(problem.data, Solver::Apg, exact_options(), exact_ws, exact);

  SolverWorkspace starved_ws;
  Result fallback;
  solve(problem.data, Solver::Apg, starved, starved_ws, fallback);

  EXPECT_GT(starved_ws.stats.randomized_attempts, 0u);
  EXPECT_EQ(starved_ws.stats.randomized_accepts, 0u);
  EXPECT_GT(starved_ws.stats.randomized_fallbacks, 0u);
  // The fallback route IS the exact path: bit-identical results.
  EXPECT_EQ(exact.low_rank.max_abs_diff(fallback.low_rank), 0.0);
  EXPECT_EQ(exact.sparse.max_abs_diff(fallback.sparse), 0.0);
}

TEST(SvdPath, StablePcpAcceptsSketches) {
  const SyntheticProblem problem = tall_problem(7);
  SolverWorkspace exact_ws, sketch_ws;
  Result exact, sketched;
  solve(problem.data, Solver::StablePcp, exact_options(), exact_ws, exact);
  solve(problem.data, Solver::StablePcp, randomized_options(), sketch_ws,
        sketched);
  EXPECT_GT(sketch_ws.stats.randomized_accepts, 0u);
  const double scale = linalg::frobenius_norm(problem.data);
  EXPECT_LT(exact.low_rank.max_abs_diff(sketched.low_rank), 1e-4 * scale);
}

TEST(SvdPath, ReserveRandomizedKeepsSolveIdentical) {
  const SyntheticProblem problem = tall_problem(8);
  const Options options = randomized_options();
  SolverWorkspace cold_ws, reserved_ws;
  reserved_ws.reserve(problem.data.rows(), problem.data.cols());
  reserved_ws.reserve_randomized(problem.data.rows(), problem.data.cols(),
                                 options.randomized);
  Result cold, reserved;
  solve(problem.data, Solver::Apg, options, cold_ws, cold);
  solve(problem.data, Solver::Apg, options, reserved_ws, reserved);
  EXPECT_EQ(cold.low_rank.max_abs_diff(reserved.low_rank), 0.0);
  EXPECT_EQ(cold.sparse.max_abs_diff(reserved.sparse), 0.0);
}

}  // namespace
}  // namespace netconst::rpca
