#include "rpca/rpca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/norms.hpp"
#include "rpca/rank1.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

TEST(Rpca, DefaultLambda) {
  EXPECT_NEAR(default_lambda(10, 100), 0.1, 1e-12);
  EXPECT_NEAR(default_lambda(100, 10), 0.1, 1e-12);
  EXPECT_THROW(default_lambda(0, 1), ContractViolation);
}

TEST(Rpca, SolverNames) {
  EXPECT_EQ(solver_name(Solver::Apg), "APG");
  EXPECT_EQ(solver_name(Solver::Ialm), "IALM");
  EXPECT_EQ(solver_name(Solver::RankOne), "Rank1");
}

TEST(Rpca, EmptyInputThrows) {
  EXPECT_THROW(solve(linalg::Matrix(), Solver::Apg), ContractViolation);
}

TEST(Rpca, RelativeL0OfExactDecomposition) {
  linalg::Matrix a{{1, 1}, {1, 1}};
  linalg::Matrix e{{0, 0}, {0, 0.5}};
  EXPECT_NEAR(relative_l0(e, a), 0.25, 1e-12);
}

TEST(Rpca, RelativeL0ShapeMismatchThrows) {
  EXPECT_THROW(relative_l0(linalg::Matrix(2, 2), linalg::Matrix(2, 3)),
               ContractViolation);
}

TEST(Rpca, RelativeL0Clamped) {
  linalg::Matrix a{{1e-9, 0}, {0, 0}};
  linalg::Matrix e{{5, 5}, {5, 5}};
  const double norm = relative_l0(e, a);
  EXPECT_LE(norm, 1.0);
  EXPECT_GE(norm, 0.0);
}

TEST(Rank1Approximation, ExactOnRankOneInput) {
  linalg::Matrix a{{2, 4}, {3, 6}, {1, 2}};
  Rank1Scratch scratch;
  linalg::Matrix d;
  rank1_approximation_into(a, scratch, d);
  EXPECT_LT(a.max_abs_diff(d), 1e-9);
}

TEST(Rank1Approximation, ZeroMatrix) {
  Rank1Scratch scratch;
  linalg::Matrix d;
  rank1_approximation_into(linalg::Matrix(3, 4), scratch, d);
  EXPECT_EQ(linalg::max_abs(d), 0.0);
}

class SolverRecovery : public ::testing::TestWithParam<Solver> {};

TEST_P(SolverRecovery, RecoversPlantedDecomposition) {
  // Rank-1 planted problem — the structure the paper's TP-matrices have.
  SyntheticSpec spec;
  spec.rows = 12;
  spec.cols = 60;
  spec.rank = 1;
  spec.sparsity = 0.05;
  spec.sparse_magnitude = 8.0;
  Rng rng(77);
  const SyntheticProblem problem = make_synthetic(spec, rng);

  Options options;
  options.max_iterations = 600;
  const Result result = solve(problem.data, GetParam(), options);
  const RecoveryError err =
      measure_recovery(problem, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 0.08)
      << "solver " << solver_name(GetParam());
  EXPECT_GT(err.support_f1, 0.80) << "solver " << solver_name(GetParam());
  // Decomposition adds back up to A.
  linalg::Matrix sum = result.low_rank;
  sum += result.sparse;
  EXPECT_LT(sum.max_abs_diff(problem.data) /
                std::max(linalg::max_abs(problem.data), 1.0),
            0.05);
}

TEST_P(SolverRecovery, CleanLowRankYieldsTinyErrorNorm) {
  SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 50;
  spec.rank = 1;
  spec.sparsity = 0.0;  // no corruption at all
  Rng rng(78);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data, GetParam());
  // All solvers leave a little sub-threshold residue in E; the norm must
  // still be far below the ~0.1 the paper calls "relatively stable".
  EXPECT_LT(relative_l0(result.sparse, problem.data, 1e-2), 0.15)
      << "solver " << solver_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SolverRecovery,
                         ::testing::Values(Solver::Apg, Solver::Ialm,
                                           Solver::RankOne),
                         [](const auto& info) {
                           return solver_name(info.param);
                         });

TEST(Rpca, IalmConvergesOnRank2) {
  SyntheticSpec spec;
  spec.rows = 40;
  spec.cols = 40;
  spec.rank = 2;
  spec.sparsity = 0.05;
  Rng rng(79);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data, Solver::Ialm);
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-6);
  const RecoveryError err =
      measure_recovery(problem, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 0.05);
}

TEST(Rpca, ApgSparseComponentIsSparse) {
  SyntheticSpec spec;
  spec.rows = 15;
  spec.cols = 45;
  spec.rank = 1;
  spec.sparsity = 0.08;
  Rng rng(80);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data, Solver::Apg);
  // The recovered E should not be dense.
  EXPECT_LT(relative_l0(result.sparse, problem.data, 1e-2), 0.35);
}

TEST(Rpca, RankOneEnforcesRankConstraint) {
  SyntheticSpec spec;
  spec.rows = 8;
  spec.cols = 32;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Rng rng(81);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data, Solver::RankOne);
  EXPECT_EQ(result.rank, 1u);
  // Numerical rank of the returned D is really 1.
  const auto dec = linalg::svd(result.low_rank);
  EXPECT_EQ(dec.rank(1e-8), 1u);
}

TEST(Rpca, LambdaControlsSparsity) {
  SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 40;
  spec.rank = 1;
  spec.sparsity = 0.10;
  Rng rng(82);
  const SyntheticProblem problem = make_synthetic(spec, rng);

  Options loose;
  loose.lambda = 0.02;  // cheap sparsity -> bigger support
  Options tight;
  tight.lambda = 1.0;  // expensive sparsity -> smaller support
  const Result a = solve(problem.data, Solver::Ialm, loose);
  const Result b = solve(problem.data, Solver::Ialm, tight);
  EXPECT_GT(relative_l0(a.sparse, problem.data, 1e-3),
            relative_l0(b.sparse, problem.data, 1e-3));
}

TEST(Rpca, ReportsSolveTime) {
  SyntheticSpec spec;
  Rng rng(83);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data, Solver::Ialm);
  EXPECT_GT(result.solve_seconds, 0.0);
  EXPECT_GT(result.iterations, 0);
}

}  // namespace
}  // namespace netconst::rpca
