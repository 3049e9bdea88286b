#include "rpca/stable_pcp.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/norms.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

// Low-rank + sparse + dense Gaussian noise — the setting stable PCP is
// built for (and plain RPCA is not).
struct NoisyProblem {
  SyntheticProblem clean;
  linalg::Matrix data;
  double sigma = 0.0;
};

NoisyProblem make_noisy(std::size_t rows, std::size_t cols, double sigma,
                        Rng& rng) {
  SyntheticSpec spec;
  spec.rows = rows;
  spec.cols = cols;
  spec.rank = 1;
  spec.sparsity = 0.05;
  spec.sparse_magnitude = 6.0;
  NoisyProblem p;
  p.clean = make_synthetic(spec, rng);
  p.data = p.clean.data;
  p.sigma = sigma;
  for (auto& v : p.data.data()) v += rng.normal(0.0, sigma);
  return p;
}

TEST(StablePcp, Contracts) {
  EXPECT_THROW(solve(linalg::Matrix(), Solver::StablePcp), ContractViolation);
  SolverWorkspace ws;
  EXPECT_THROW(estimate_noise_sigma(linalg::Matrix(), ws), ContractViolation);
}

TEST(StablePcp, NoiseEstimateIsAccurate) {
  Rng rng(11);
  const NoisyProblem p = make_noisy(20, 200, 0.3, rng);
  SolverWorkspace ws;
  const double estimate = estimate_noise_sigma(p.data, ws);
  EXPECT_NEAR(estimate, 0.3, 0.15);
}

TEST(StablePcp, RecoversLowRankUnderDenseNoise) {
  Rng rng(12);
  const NoisyProblem p = make_noisy(15, 120, 0.2, rng);
  const Result result = solve(p.data, Solver::StablePcp);
  const RecoveryError err =
      measure_recovery(p.clean, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 0.2);
  // The dense noise must live in the residual, not be forced into E.
  EXPECT_GT(result.residual, 0.0);
}

TEST(StablePcp, SparseComponentStaysSparseUnderNoise) {
  Rng rng(13);
  const NoisyProblem p = make_noisy(12, 144, 0.15, rng);
  const Result result = solve(p.data, Solver::StablePcp);
  // E should hold roughly the corrupted fraction, not the dense noise.
  const double e_density = relative_l0(result.sparse, p.data, 1e-2);
  EXPECT_LT(e_density, 0.35);
}

TEST(StablePcp, SolverEnumDispatch) {
  Rng rng(14);
  const NoisyProblem p = make_noisy(10, 80, 0.1, rng);
  const Result result = solve(p.data, Solver::StablePcp);
  EXPECT_GT(result.iterations, 0);
  EXPECT_EQ(solver_name(Solver::StablePcp), "StablePCP");
}

TEST(StablePcp, ExplicitSigmaIsRespected) {
  Rng rng(15);
  const NoisyProblem p = make_noisy(10, 80, 0.1, rng);
  // An explicit sigma bypasses the estimate: mu enormous -> D shrunk to
  // ~zero.
  SolverWorkspace ws;
  Result result;
  solve_stable_pcp(p.data, Options{},
                   default_lambda(p.data.rows(), p.data.cols()),
                   /*noise_sigma=*/100.0, ws, result);
  EXPECT_LT(linalg::frobenius_norm(result.low_rank),
            linalg::frobenius_norm(p.data) * 0.1);
}

TEST(StablePcp, CleanInputBehavesLikeRpca) {
  SyntheticSpec spec;
  spec.rows = 12;
  spec.cols = 96;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Rng rng(16);
  const SyntheticProblem p = make_synthetic(spec, rng);
  const Result result = solve(p.data, Solver::StablePcp);
  const RecoveryError err =
      measure_recovery(p, result.low_rank, result.sparse);
  EXPECT_LT(err.low_rank_error, 0.15);
}

}  // namespace
}  // namespace netconst::rpca
