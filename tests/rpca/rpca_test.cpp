#include "rpca/rpca.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/fused.hpp"
#include "linalg/norms.hpp"
#include "rpca/rank1.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::rpca {
namespace {

TEST(Rpca, DefaultLambda) {
  EXPECT_NEAR(default_lambda(10, 100), 0.1, 1e-12);
  EXPECT_NEAR(default_lambda(100, 10), 0.1, 1e-12);
  EXPECT_THROW(default_lambda(0, 1), ContractViolation);
}

TEST(Rpca, EmptyInputThrows) {
  EXPECT_THROW(solve(linalg::Matrix()), ContractViolation);
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

TEST(SolverRecovery, RecoversPlantedDecomposition) {
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
  const Result result = solve(problem.data, options);
  const RecoveryError err =
      measure_recovery(problem, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 0.08);
  EXPECT_GT(err.support_f1, 0.80);
  // Decomposition adds back up to A.
  linalg::Matrix sum = result.low_rank;
  sum += result.sparse;
  EXPECT_LT(sum.max_abs_diff(problem.data) /
                std::max(linalg::max_abs(problem.data), 1.0),
            0.05);
}

TEST(SolverRecovery, CleanLowRankYieldsTinyErrorNorm) {
  SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 50;
  spec.rank = 1;
  spec.sparsity = 0.0;  // no corruption at all
  Rng rng(78);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data);
  // APG leaves a little sub-threshold residue in E; the norm must still
  // be far below the ~0.1 the paper calls "relatively stable".
  EXPECT_LT(relative_l0(result.sparse, problem.data, 1e-2), 0.15);
}

TEST(Rpca, ApgSparseComponentIsSparse) {
  SyntheticSpec spec;
  spec.rows = 15;
  spec.cols = 45;
  spec.rank = 1;
  spec.sparsity = 0.08;
  Rng rng(80);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data);
  // The recovered E should not be dense.
  EXPECT_LT(relative_l0(result.sparse, problem.data, 1e-2), 0.35);
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
  const Result a = solve(problem.data, loose);
  const Result b = solve(problem.data, tight);
  EXPECT_GT(relative_l0(a.sparse, problem.data, 1e-3),
            relative_l0(b.sparse, problem.data, 1e-3));
}

TEST(Rpca, ReportsSolveTime) {
  SyntheticSpec spec;
  Rng rng(83);
  const SyntheticProblem problem = make_synthetic(spec, rng);
  const Result result = solve(problem.data);
  EXPECT_GT(result.solve_seconds, 0.0);
  EXPECT_GT(result.iterations, 0);
}

/// A 10 x 1024 window (the paper's N = 32 shape): planted rank-1 +
/// 5% sparse, plus dense N(0, noise^2) on every entry, and the APG
/// solve the polish starts from.
struct NoisyWindow {
  linalg::Matrix a;
  Result start;
  double lambda = 0.0;

  NoisyWindow(std::uint64_t seed, double noise) {
    Rng rng(seed);
    SyntheticSpec spec;
    spec.rows = 10;
    spec.cols = 1024;
    spec.rank = 1;
    spec.sparsity = 0.05;
    a = make_synthetic(spec, rng).data;
    for (double& x : a.data()) x += noise * rng.normal();
    lambda = default_lambda(a.rows(), a.cols());
    start = solve(a);
  }
};

double relative_diff(const linalg::Matrix& x, const linalg::Matrix& y,
                     double scale) {
  linalg::Matrix d = x;
  d -= y;
  return linalg::frobenius_norm(d) / scale;
}

// Where the plain alternation crawls to its 300-step cap, the Huber fit
// lands on a point that passes the alternation's own step test at once.
TEST(Rank1HuberFit, PassesThePolishStepTestWherePlainPolishCaps) {
  const NoisyWindow w(10, 0.03);
  SolverWorkspace ws;
  Result plain = w.start;
  polish_rank1(w.a, plain, w.lambda, 300, 1e-10, ws);
  ASSERT_EQ(plain.polish_iterations, 300);
  ASSERT_FALSE(plain.polish_converged);

  Result fit = w.start;
  const int sweeps =
      rank1_huber_fit(w.a, fit, w.lambda, kHuberFitSweeps, 1e-10, ws);
  EXPECT_GT(sweeps, 0);
  EXPECT_LT(sweeps, kHuberFitSweeps);  // stopped on its tolerance
  EXPECT_EQ(fit.rank, 1u);
  polish_rank1(w.a, fit, w.lambda, 1, 1e-10, ws);
  EXPECT_TRUE(fit.polish_converged);
}

// The fit's stop rule: it stops one digit under the closing step's
// tolerance, so after a converged fit that step passes at once, from
// the APG start and from E = 0 (the refresher's bootstrap), on every
// noise level of the EC2-like band.
TEST(Rank1HuberFit, ConvergedFitPassesTheClosingStepInOneStep) {
  const double tolerance = Options{}.polish_tolerance;
  for (const double noise : {0.01, 0.03, 0.04}) {
    for (const std::uint64_t seed : {10u, 17u, 38u}) {
      SCOPED_TRACE(testing::Message() << "noise " << noise << " seed " << seed);
      const NoisyWindow w(seed, noise);
      Result from_zero;
      from_zero.low_rank.resize(w.a.rows(), w.a.cols());
      from_zero.sparse.resize(w.a.rows(), w.a.cols());
      from_zero.sparse.fill(0.0);
      for (const Result& start : {w.start, from_zero}) {
        SolverWorkspace ws;
        Result fit = start;
        const int sweeps = rank1_huber_fit(w.a, fit, w.lambda,
                                           kHuberFitSweeps, tolerance, ws);
        ASSERT_LT(sweeps, kHuberFitSweeps);  // stopped on its tolerance
        polish_rank1(w.a, fit, w.lambda, 300, tolerance, ws);
        EXPECT_TRUE(fit.polish_converged);
        EXPECT_EQ(fit.polish_iterations, 1);
      }
    }
  }
}

/// sum_ij h_tau(A_ij - D_ij), the objective the fit minimises.
double huber_objective(const linalg::Matrix& a, const linalg::Matrix& d,
                       double tau) {
  double sum = 0.0;
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double r = std::abs(a.data()[k] - d.data()[k]);
    sum += r <= tau ? 0.5 * r * r : tau * r - 0.5 * tau * tau;
  }
  return sum;
}

/// The alternating fit the Newton fit replaced, run for `sweeps` sweeps
/// (v against u, then u against v) from the rank-1 approximation of
/// A - E; returns its u v^T.
linalg::Matrix alternating_fit(const linalg::Matrix& a, const Result& start,
                               double tau, int sweeps) {
  // The fit with no sweeps leaves the power iteration's factors of
  // A - E in the workspace.
  Result power = start;
  SolverWorkspace ws;
  rank1_huber_fit(a, power, /*lambda=*/1.0, /*max_sweeps=*/0,
                  /*polish_tolerance=*/1e-10, ws);
  std::vector<double> u = ws.rank1.u, v = ws.rank1.v;
  linalg::Matrix at(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = a(i, j);
  }
  std::vector<double> next_u(u.size()), next_v(v.size());
  for (int s = 0; s < sweeps; ++s) {
    linalg::huber_fit_columns(a, at, u, tau, v, next_v);
    v = next_v;
    linalg::huber_fit_columns(at, a, v, tau, u, next_u);
    u = next_u;
  }
  linalg::Matrix d(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) d(i, j) = u[i] * v[j];
  }
  return d;
}

// Newton on u converges superlinearly where the alternation it replaced
// converged linearly (~0.09 per sweep): on every noise level of the
// EC2-like band, from the APG start and from E = 0, the fit stops within
// 7 v-sweeps, at an objective no higher than 50 alternating sweeps
// reach from the same start.
TEST(Rank1HuberFit, NewtonFitNeedsFewVSweeps) {
  const double tolerance = Options{}.polish_tolerance;
  for (const double noise : {0.01, 0.03, 0.04}) {
    for (const std::uint64_t seed : {10u, 17u, 38u}) {
      SCOPED_TRACE(testing::Message() << "noise " << noise << " seed " << seed);
      const NoisyWindow w(seed, noise);
      const double tau =
          w.lambda * linalg::l1_norm(w.a) / static_cast<double>(w.a.size());
      Result from_zero;
      from_zero.low_rank.resize(w.a.rows(), w.a.cols());
      from_zero.sparse.resize(w.a.rows(), w.a.cols());
      from_zero.sparse.fill(0.0);
      for (const Result& start : {w.start, from_zero}) {
        SolverWorkspace ws;
        Result fit = start;
        const int sweeps = rank1_huber_fit(w.a, fit, w.lambda,
                                           kHuberFitSweeps, tolerance, ws);
        EXPECT_LE(sweeps, 7);
        const double newton = huber_objective(w.a, fit.low_rank, tau);
        const double alternating =
            huber_objective(w.a, alternating_fit(w.a, start, tau, 50), tau);
        EXPECT_LE(newton, alternating * (1.0 + 1e-12))
            << "newton " << newton << " alternating " << alternating;
      }
    }
  }
}

// Where the plain alternation settles inside its budget, the fitted
// polish reaches the same fixed point to within 1e-8.
TEST(Rank1HuberFit, MatchesTheFixedPointWherePlainPolishConverges) {
  Options options;
  options.polish_iterations = 300;
  int compared = 0;
  for (const std::uint64_t seed : {10u, 17u, 38u, 45u}) {
    SCOPED_TRACE(seed);
    const NoisyWindow w(seed, 0.01);
    SolverWorkspace ws;
    Result plain = w.start;
    polish(w.a, options, /*huber_start=*/false, ws, plain);
    if (!plain.polish_converged) continue;
    ++compared;
    Result fitted = w.start;
    polish(w.a, options, /*huber_start=*/true, ws, fitted);
    EXPECT_TRUE(fitted.polish_converged);
    EXPECT_LT(fitted.polish_iterations, plain.polish_iterations);
    const double a_norm = linalg::frobenius_norm(w.a);
    EXPECT_LT(relative_diff(fitted.low_rank, plain.low_rank,
                            linalg::frobenius_norm(plain.low_rank)),
              1e-8);
    EXPECT_LT(relative_diff(fitted.sparse, plain.sparse, a_norm), 1e-8);
  }
  EXPECT_GE(compared, 3);
}

// The fit on an exactly rank-1 window with no noise leaves E = 0 and
// reproduces the window.
TEST(Rank1HuberFit, RecoversAnExactRankOneWindow) {
  linalg::Matrix a(6, 40);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = (1.0 + 0.1 * static_cast<double>(i)) *
                (2.0 + std::sin(static_cast<double>(j)));
    }
  }
  SolverWorkspace ws;
  Result result;
  result.sparse.resize(a.rows(), a.cols());
  result.sparse.fill(0.0);
  rank1_huber_fit(a, result, default_lambda(a.rows(), a.cols()),
                  kHuberFitSweeps, 1e-10, ws);
  EXPECT_LT(result.low_rank.max_abs_diff(a), 1e-12);
  EXPECT_EQ(linalg::max_abs(result.sparse), 0.0);
  EXPECT_LT(result.residual, 1e-12);
}

TEST(Rank1HuberFit, RejectsBadArguments) {
  const linalg::Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  SolverWorkspace ws;
  Result result;
  result.sparse.resize(2, 2);
  result.sparse.fill(0.0);
  EXPECT_THROW(rank1_huber_fit(a, result, 0.0, 5, 1e-10, ws), ContractViolation);
  EXPECT_THROW(rank1_huber_fit(a, result, 0.5, -1, 1e-10, ws), ContractViolation);
  result.sparse.resize(3, 2);
  EXPECT_THROW(rank1_huber_fit(a, result, 0.5, 5, 1e-10, ws), ContractViolation);
}

}  // namespace
}  // namespace netconst::rpca
