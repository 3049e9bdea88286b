// Time-frequency constrained stable PCP: transform-kernel contracts
// (orthonormality, SIMD-level bit-identity), bit-exact equivalence with
// the frozen reference implementation, and recovery behavior on the
// workloads the solver exists for — diurnally modulated constants under
// dense noise, where plain shrinkage either blurs the cycle or leaks
// fast churn into the constant component.
#include "rpca/stable_pcp_tf.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/norms.hpp"
#include "linalg/simd.hpp"
#include "rpca/reference.hpp"
#include "rpca/stable_pcp.hpp"
#include "rpca/workspace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::rpca {
namespace {

// The paper's window structure under a diurnal cycle: every snapshot
// row repeats one positive constant row, multiplicatively modulated by
// a slow sinusoid along the window axis, plus sparse interference and
// dense noise — the TF solver's target workload. (A random temporal
// profile would be the wrong model here: real windows vary slowly in
// time, which is exactly the prior the band limit encodes.)
struct DiurnalProblem {
  linalg::Matrix low_rank;  // f_i * c_j ground truth
  linalg::Matrix data;
  double sigma = 0.0;
};

DiurnalProblem make_diurnal(std::size_t rows, std::size_t cols,
                            double amplitude, double sigma, Rng& rng) {
  DiurnalProblem p;
  p.sigma = sigma;
  p.low_rank.resize(rows, cols);
  linalg::Matrix constant_row(1, cols);
  for (std::size_t j = 0; j < cols; ++j) {
    constant_row(0, j) = rng.uniform(0.5, 2.0);
  }
  // One full cycle across the window: frequency index ~2 of the DCT,
  // comfortably inside the default quarter-band passband.
  for (std::size_t i = 0; i < rows; ++i) {
    const double phase = 2.0 * 3.14159265358979323846 *
                         static_cast<double>(i) /
                         static_cast<double>(rows);
    const double factor = 1.0 + amplitude * std::sin(phase);
    for (std::size_t j = 0; j < cols; ++j) {
      p.low_rank(i, j) = factor * constant_row(0, j);
    }
  }
  p.data = p.low_rank;
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      double v = p.data(i, j) + rng.normal(0.0, sigma);
      if (rng.uniform() < 0.05) v += rng.uniform(-6.0, 6.0);
      p.data(i, j) = v;
    }
  }
  return p;
}

/// Fraction of ||D||_F^2 living above the passband frequencies.
double high_frequency_energy(const linalg::Matrix& d,
                             std::size_t keep_rows) {
  linalg::Matrix basis, coeffs;
  temporal_dct_basis_into(d.rows(), basis);
  temporal_dct_forward(basis, d, coeffs);
  double high = 0.0, total = 0.0;
  for (std::size_t k = 0; k < coeffs.rows(); ++k) {
    for (std::size_t j = 0; j < coeffs.cols(); ++j) {
      const double v = coeffs(k, j) * coeffs(k, j);
      total += v;
      if (k >= keep_rows) high += v;
    }
  }
  return total > 0.0 ? high / total : 0.0;
}

TEST(StablePcpTf, Contracts) {
  EXPECT_THROW(solve(linalg::Matrix(), Solver::StablePcpTf),
               ContractViolation);
  EXPECT_THROW(tf_passband_rows(0, 0.5), ContractViolation);
  linalg::Matrix basis;
  EXPECT_THROW(temporal_dct_basis_into(0, basis), ContractViolation);
}

TEST(StablePcpTf, PassbandRowsClampAndRound) {
  EXPECT_EQ(tf_passband_rows(8, 0.25), 2u);
  EXPECT_EQ(tf_passband_rows(10, 0.25), 3u);  // round(2.5) = 3
  EXPECT_EQ(tf_passband_rows(4, 0.0), 1u);    // at least the DC atom
  EXPECT_EQ(tf_passband_rows(4, 1.0), 4u);
  EXPECT_EQ(tf_passband_rows(4, 5.0), 4u);    // clamped to the window
}

TEST(StablePcpTf, DctBasisIsOrthonormalAndInverts) {
  linalg::Matrix basis;
  temporal_dct_basis_into(7, basis);
  // B B^T = I.
  for (std::size_t a = 0; a < 7; ++a) {
    for (std::size_t b = 0; b < 7; ++b) {
      double dot = 0.0;
      for (std::size_t i = 0; i < 7; ++i) dot += basis(a, i) * basis(b, i);
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-12);
    }
  }
  // Round trip reproduces the panel to rounding.
  Rng rng(3);
  linalg::Matrix x(7, 12);
  for (auto& v : x.data()) v = rng.uniform(-2.0, 2.0);
  linalg::Matrix coeffs, back;
  temporal_dct_forward(basis, x, coeffs);
  temporal_dct_inverse(basis, coeffs, back);
  EXPECT_LT(back.max_abs_diff(x), 1e-12);
}

// The TF kernels are sequential scalar loops: their outputs must be
// byte-identical no matter which SIMD level is active.
TEST(StablePcpTf, TransformKernelsAreBitIdenticalAcrossSimdLevels) {
  Rng rng(5);
  linalg::Matrix x(9, 20);
  for (auto& v : x.data()) v = rng.uniform(-3.0, 3.0);
  linalg::Matrix basis_s, coeffs_s, back_s;
  {
    linalg::simd::ScopedLevel lvl(linalg::simd::Level::Scalar);
    temporal_dct_basis_into(9, basis_s);
    temporal_dct_forward(basis_s, x, coeffs_s);
    shrink_high_frequencies(coeffs_s, 3, 0.05);
    temporal_dct_inverse(basis_s, coeffs_s, back_s);
  }
  linalg::Matrix basis_v, coeffs_v, back_v;
  {
    linalg::simd::ScopedLevel lvl(linalg::simd::best_available_level());
    temporal_dct_basis_into(9, basis_v);
    temporal_dct_forward(basis_v, x, coeffs_v);
    shrink_high_frequencies(coeffs_v, 3, 0.05);
    temporal_dct_inverse(basis_v, coeffs_v, back_v);
  }
  EXPECT_EQ(basis_s.max_abs_diff(basis_v), 0.0);
  EXPECT_EQ(coeffs_s.max_abs_diff(coeffs_v), 0.0);
  EXPECT_EQ(back_s.max_abs_diff(back_v), 0.0);
}

TEST(StablePcpTf, ShrinkLeavesPassbandUntouched) {
  linalg::Matrix coeffs(4, 3);
  double fill = 1.0;
  for (auto& v : coeffs.data()) v = fill += 0.5;
  const linalg::Matrix before = coeffs;
  shrink_high_frequencies(coeffs, 2, 0.75);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(coeffs(0, j), before(0, j));
    EXPECT_EQ(coeffs(1, j), before(1, j));
    EXPECT_EQ(coeffs(2, j), before(2, j) - 0.75);
    EXPECT_EQ(coeffs(3, j), before(3, j) - 0.75);
  }
}

// Workspace solver vs the frozen reference, bit for bit, on the scalar
// operation order (the same contract the other two solvers pin in
// workspace_equivalence_test.cpp).
TEST(StablePcpTf, MatchesReferenceBitExactly) {
  const linalg::simd::ScopedLevel scalar(linalg::simd::Level::Scalar);
  Rng rng(17);
  const DiurnalProblem p = make_diurnal(10, 56, 0.3, 0.15, rng);
  Options opts;
  opts.max_iterations = 200;
  const Result ws = solve(p.data, Solver::StablePcpTf, opts);
  const Result ref = reference::solve(p.data, Solver::StablePcpTf, opts);
  ASSERT_TRUE(ws.low_rank.same_shape(ref.low_rank));
  EXPECT_EQ(ws.low_rank.max_abs_diff(ref.low_rank), 0.0);
  EXPECT_EQ(ws.sparse.max_abs_diff(ref.sparse), 0.0);
  EXPECT_EQ(ws.iterations, ref.iterations);
  EXPECT_EQ(ws.converged, ref.converged);
  EXPECT_EQ(ws.rank, ref.rank);
  EXPECT_EQ(ws.residual, ref.residual);
}

TEST(StablePcpTf, RecoversDiurnalLowRankUnderDenseNoise) {
  Rng rng(19);
  const DiurnalProblem p = make_diurnal(16, 90, 0.35, 0.2, rng);
  const Result result = solve(p.data, Solver::StablePcpTf);
  double diff = 0.0, norm = 0.0;
  for (std::size_t idx = 0; idx < p.data.data().size(); ++idx) {
    const double d = result.low_rank.data()[idx] - p.low_rank.data()[idx];
    diff += d * d;
    norm += p.low_rank.data()[idx] * p.low_rank.data()[idx];
  }
  EXPECT_LT(std::sqrt(diff / norm), 0.2);
  // The dense noise lives in the residual, not in E.
  EXPECT_GT(result.residual, 0.0);
  EXPECT_LT(relative_l0(result.sparse, p.data, 1e-2), 0.35);
}

// The reason this solver exists: its constant component must carry less
// high-frequency temporal energy than plain stable PCP's on the same
// noisy diurnal window.
TEST(StablePcpTf, SuppressesHighFrequencyEnergyVersusStablePcp) {
  Rng rng(23);
  const DiurnalProblem p = make_diurnal(16, 90, 0.35, 0.25, rng);
  const Result tf = solve(p.data, Solver::StablePcpTf);
  const Result plain = solve(p.data, Solver::StablePcp);
  const std::size_t keep = tf_passband_rows(16, kDefaultTfPassband);
  const double tf_high = high_frequency_energy(tf.low_rank, keep);
  const double plain_high = high_frequency_energy(plain.low_rank, keep);
  EXPECT_LT(tf_high, plain_high);
  EXPECT_LT(tf_high, 0.05);
}

TEST(StablePcpTf, SolverEnumDispatchAndNames) {
  Rng rng(29);
  const DiurnalProblem p = make_diurnal(8, 30, 0.2, 0.1, rng);
  const Result result = solve(p.data, Solver::StablePcpTf);
  EXPECT_GT(result.iterations, 0);
  EXPECT_EQ(solver_name(Solver::StablePcpTf), "StablePCP-TF");
}

// No warm-start support: a supplied seed must be reported as ignored,
// never silently dropped (same contract as StablePcp).
TEST(StablePcpTf, WarmStartIsReportedIgnored) {
  Rng rng(31);
  const DiurnalProblem p = make_diurnal(8, 30, 0.2, 0.1, rng);
  Options opts;
  const Result cold = solve(p.data, Solver::StablePcpTf, opts);
  opts.warm_start = {cold.low_rank, cold.sparse, 0.0, 0.0};
  const Result seeded = solve(p.data, Solver::StablePcpTf, opts);
  EXPECT_FALSE(seeded.warm_started);
  EXPECT_TRUE(seeded.warm_start_ignored);
  EXPECT_EQ(seeded.low_rank.max_abs_diff(cold.low_rank), 0.0);
}

// One workspace across window lengths: the cached DCT basis must be
// rebuilt when the length changes and must not leak state back.
TEST(StablePcpTf, WorkspaceReuseAcrossWindowLengths) {
  const linalg::simd::ScopedLevel scalar(linalg::simd::Level::Scalar);
  Options opts;
  opts.max_iterations = 150;
  SolverWorkspace ws;
  Result result;
  Rng rng(37);
  for (const std::size_t rows : {8u, 12u, 8u}) {
    SCOPED_TRACE(rows);
    const DiurnalProblem p = make_diurnal(rows, 42, 0.3, 0.15, rng);
    solve(p.data, Solver::StablePcpTf, opts, ws, result);
    const Result ref = reference::solve(p.data, Solver::StablePcpTf, opts);
    EXPECT_EQ(result.low_rank.max_abs_diff(ref.low_rank), 0.0);
    EXPECT_EQ(result.sparse.max_abs_diff(ref.sparse), 0.0);
    EXPECT_EQ(result.iterations, ref.iterations);
  }
  EXPECT_EQ(ws.stats.solves, 3u);
}

// Vector-level solves deliver the same decomposition quality as scalar
// (full byte-identity across levels is pinned for the TF kernels above;
// the shared convergence reductions are deterministic per level, as for
// the other two solvers).
TEST(StablePcpTf, VectorLevelMatchesScalarQuality) {
  Rng rng(41);
  const DiurnalProblem p = make_diurnal(12, 56, 0.3, 0.2, rng);
  Result scalar_result, vector_result;
  {
    linalg::simd::ScopedLevel lvl(linalg::simd::Level::Scalar);
    scalar_result = solve(p.data, Solver::StablePcpTf);
  }
  {
    linalg::simd::ScopedLevel lvl(linalg::simd::best_available_level());
    vector_result = solve(p.data, Solver::StablePcpTf);
  }
  EXPECT_LT(scalar_result.low_rank.max_abs_diff(vector_result.low_rank),
            1e-6);
  EXPECT_EQ(scalar_result.rank, vector_result.rank);
}

TEST(StablePcpTf, ZeroTfWeightReducesToStablePcp) {
  const linalg::simd::ScopedLevel scalar(linalg::simd::Level::Scalar);
  Rng rng(43);
  const DiurnalProblem p = make_diurnal(10, 42, 0.0, 0.15, rng);
  const double lambda = default_lambda(p.data.rows(), p.data.cols());
  SolverWorkspace tf_ws, plain_ws;
  Result tf, plain;
  solve_stable_pcp_tf(p.data, Options{}, lambda, /*noise_sigma=*/0.0,
                      kDefaultTfPassband, /*tf_weight=*/0.0, tf_ws, tf);
  solve_stable_pcp(p.data, Options{}, lambda, /*noise_sigma=*/0.0, plain_ws,
                   plain);
  EXPECT_EQ(tf.low_rank.max_abs_diff(plain.low_rank), 0.0);
  EXPECT_EQ(tf.sparse.max_abs_diff(plain.sparse), 0.0);
  EXPECT_EQ(tf.iterations, plain.iterations);
}

}  // namespace
}  // namespace netconst::rpca
