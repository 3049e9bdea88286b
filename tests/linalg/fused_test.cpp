// Bit-exactness tests for the fused RPCA kernels: every kernel in
// linalg/fused.hpp (and the scratch-based SVT paths in shrinkage.hpp)
// must perform the same floating-point operations in the same
// per-element order as the operator chain it replaces. The assertions
// here are exact equality on purpose — a tolerance would hide exactly
// the kind of reassociation these kernels promise not to introduce.
#include "linalg/fused.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double lo = -2.0, double hi = 2.0) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(lo, hi);
  return m;
}

// The shapes exercise both the parallel grain boundary (large) and the
// sequential fallback (tiny).
struct Shape {
  std::size_t rows, cols;
};
constexpr Shape kShapes[] = {{1, 1}, {3, 7}, {10, 1024}};

// Each stage of gradient_step against its elementwise form. With
// inv_lf = 0 the gradient step is the identity, so gd is the momentum
// extrapolation d + (d - d_prev) * c itself.
TEST(Fused, ExtrapolateMatchesElementwiseForm) {
  Rng rng(12);
  for (const auto& s : kShapes) {
    const Matrix x = random_matrix(s.rows, s.cols, rng);
    const Matrix xp = random_matrix(s.rows, s.cols, rng);
    const Matrix e = random_matrix(s.rows, s.cols, rng);
    const Matrix a = random_matrix(s.rows, s.cols, rng);
    const double c = 0.61803;
    Matrix expected(s.rows, s.cols);
    for (std::size_t i = 0; i < expected.data().size(); ++i) {
      expected.data()[i] = x.data()[i] + (x.data()[i] - xp.data()[i]) * c;
    }
    Matrix gd, en;
    gradient_step(x, xp, e, e, a, c, /*inv_lf=*/0.0, 0.0, gd, en);
    EXPECT_EQ(gd.max_abs_diff(expected), 0.0);
    EXPECT_EQ(en.max_abs_diff(e), 0.0);
  }
}

// With c = 0 (APG's first iteration, where the momentum (t_prev - 1) / t
// is zero) the extrapolation is the identity, leaving the shared
// residual r = (d + e) - a and the two steps d - r * inv_lf and
// soft-threshold(e - r * inv_lf).
TEST(Fused, ResidualAndSubScaledMatch) {
  Rng rng(13);
  for (const auto& s : kShapes) {
    const Matrix d = random_matrix(s.rows, s.cols, rng);
    const Matrix e = random_matrix(s.rows, s.cols, rng);
    const Matrix a = random_matrix(s.rows, s.cols, rng);
    const Matrix prev = random_matrix(s.rows, s.cols, rng);
    const double inv_lf = 0.5, tau = 0.3;
    Matrix expected_gd(s.rows, s.cols), expected_ge(s.rows, s.cols);
    for (std::size_t i = 0; i < expected_gd.data().size(); ++i) {
      const double r = (d.data()[i] + e.data()[i]) - a.data()[i];
      expected_gd.data()[i] = d.data()[i] - r * inv_lf;
      expected_ge.data()[i] = e.data()[i] - r * inv_lf;
    }
    Matrix gd, en;
    gradient_step(d, prev, e, prev, a, /*c=*/0.0, inv_lf, tau, gd, en);
    EXPECT_EQ(gd.max_abs_diff(expected_gd), 0.0);
    EXPECT_EQ(en.max_abs_diff(soft_threshold(expected_ge, tau)), 0.0);
  }
}

TEST(Fused, GradientStepMatchesKernelChain) {
  Rng rng(14);
  for (const auto& s : kShapes) {
    const Matrix d = random_matrix(s.rows, s.cols, rng);
    const Matrix dp = random_matrix(s.rows, s.cols, rng);
    const Matrix e = random_matrix(s.rows, s.cols, rng, -0.5, 0.5);
    const Matrix ep = random_matrix(s.rows, s.cols, rng, -0.5, 0.5);
    const Matrix a = random_matrix(s.rows, s.cols, rng);
    const double c = 0.8, inv_lf = 0.5, tau = 0.05;

    // The reference APG iteration's operator chain (rpca/reference.cpp):
    // extrapolate both blocks, form the shared residual, take both
    // gradient steps, then soft-threshold the sparse block.
    const Matrix yd = d + (d - dp) * c;
    const Matrix ye = e + (e - ep) * c;
    const Matrix r = (yd + ye) - a;
    const Matrix gd_ref = yd - r * inv_lf;
    const Matrix en_ref = soft_threshold(ye - r * inv_lf, tau);

    Matrix gd, en;
    gradient_step(d, dp, e, ep, a, c, inv_lf, tau, gd, en);
    EXPECT_EQ(gd.max_abs_diff(gd_ref), 0.0);
    EXPECT_EQ(en.max_abs_diff(en_ref), 0.0);
  }
}

TEST(Fused, GradientStepRejectsNegativeTau) {
  Matrix m(2, 2, 1.0);
  Matrix gd, en;
  EXPECT_THROW(gradient_step(m, m, m, m, m, 0.5, 0.5, -1.0, gd, en),
               ContractViolation);
}

TEST(Fused, SubVariantsMatchOperatorChain) {
  Rng rng(15);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.cols, rng);
    const Matrix b = random_matrix(s.rows, s.cols, rng);
    const Matrix c = random_matrix(s.rows, s.cols, rng);
    Matrix out;
    sub(a, b, out);
    EXPECT_EQ(out.max_abs_diff(a - b), 0.0);
    const double norm = residual_norm(a, b, c);
    const double chain = frobenius_norm((a - b) - c);
    EXPECT_EQ(std::memcmp(&norm, &chain, sizeof norm), 0);
  }
}

TEST(Fused, SoftThresholdIntoMatchesCopyingForm) {
  Rng rng(17);
  for (const auto& s : kShapes) {
    const Matrix a = random_matrix(s.rows, s.cols, rng);
    Matrix out;
    soft_threshold_into(a, 0.4, out);
    EXPECT_EQ(out.max_abs_diff(soft_threshold(a, 0.4)), 0.0);
  }
}

// Scratch SVT on a Gram-eligible (wide) shape must reproduce the
// allocating SVT exactly, across thresholds that keep all, some, and
// none of the spectrum.
TEST(Fused, ScratchSvtMatchesAllocatingSvt) {
  Rng rng(18);
  const Matrix a = random_matrix(8, 48, rng);
  GramSvtScratch scratch;
  for (const double tau_scale : {0.0, 0.1, 0.9, 10.0}) {
    const SvtResult full = singular_value_threshold(a, 1.0);
    const double tau = tau_scale * full.top_singular_value + 1e-6;
    const SvtResult expected = singular_value_threshold(a, tau);
    Matrix out;
    const SvtInfo info =
        singular_value_threshold_into(a, tau, {}, scratch, out);
    EXPECT_TRUE(info.used_scratch);
    EXPECT_EQ(info.rank, expected.rank);
    EXPECT_EQ(info.top_singular_value, expected.top_singular_value);
    EXPECT_EQ(out.max_abs_diff(expected.value), 0.0);
  }
}

// Surviving ranks past the compile-time unroll cutoff take the
// runtime-rank tile pass; it must be just as exact.
TEST(Fused, ScratchSvtMatchesAtHighRank) {
  Rng rng(19);
  const Matrix a = random_matrix(16, 80, rng);
  const SvtResult expected = singular_value_threshold(a, 1e-6);
  ASSERT_GT(expected.rank, 12u);
  GramSvtScratch scratch;
  Matrix out;
  const SvtInfo info =
      singular_value_threshold_into(a, 1e-6, {}, scratch, out);
  EXPECT_TRUE(info.used_scratch);
  EXPECT_EQ(info.rank, expected.rank);
  EXPECT_EQ(out.max_abs_diff(expected.value), 0.0);
}

// Non-Gram-eligible shapes must fall back to the allocating SVT and
// still agree exactly.
TEST(Fused, ScratchSvtFallsBackOffTheGramPath) {
  Rng rng(20);
  const Matrix a = random_matrix(8, 12, rng);  // large < 4 * small
  const SvtResult expected = singular_value_threshold(a, 0.5);
  GramSvtScratch scratch;
  Matrix out;
  const SvtInfo info =
      singular_value_threshold_into(a, 0.5, {}, scratch, out);
  EXPECT_FALSE(info.used_scratch);
  EXPECT_EQ(info.rank, expected.rank);
  EXPECT_EQ(out.max_abs_diff(expected.value), 0.0);
}

}  // namespace
}  // namespace netconst::linalg
