#include "linalg/svd.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/blas.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix random_low_rank(std::size_t rows, std::size_t cols, std::size_t rank,
                       Rng& rng) {
  return multiply(random_matrix(rows, rank, rng),
                  random_matrix(rank, cols, rng));
}

void expect_valid_svd(const Matrix& a, const SvdResult& result,
                      double tol) {
  // Reconstruction.
  EXPECT_LT(a.max_abs_diff(result.reconstruct()), tol);
  // Ordering and non-negativity.
  for (std::size_t k = 0; k < result.singular_values.size(); ++k) {
    EXPECT_GE(result.singular_values[k], 0.0);
    if (k > 0) {
      EXPECT_GE(result.singular_values[k - 1], result.singular_values[k]);
    }
  }
  // Orthonormal columns for non-null singular directions.
  const Matrix utu = multiply(result.u.transposed(), result.u);
  const Matrix vtv = multiply(result.v.transposed(), result.v);
  for (std::size_t k = 0; k < result.singular_values.size(); ++k) {
    if (result.singular_values[k] <=
        result.singular_values.front() * 1e-10) {
      continue;  // null-space columns may be zero-filled (Gram path)
    }
    EXPECT_NEAR(utu(k, k), 1.0, 1e-8);
    EXPECT_NEAR(vtv(k, k), 1.0, 1e-8);
    for (std::size_t l = 0; l < k; ++l) {
      if (result.singular_values[l] <=
          result.singular_values.front() * 1e-10) {
        continue;
      }
      EXPECT_NEAR(utu(k, l), 0.0, 1e-8);
      EXPECT_NEAR(vtv(k, l), 0.0, 1e-8);
    }
  }
}

TEST(Svd, RejectsEmpty) {
  EXPECT_THROW(svd(Matrix()), ContractViolation);
}

TEST(Svd, DiagonalKnownValues) {
  Matrix a{{3, 0}, {0, 4}};
  const auto result = svd(a);
  EXPECT_NEAR(result.singular_values[0], 4.0, 1e-12);
  EXPECT_NEAR(result.singular_values[1], 3.0, 1e-12);
}

TEST(Svd, RankOneMatrix) {
  Matrix a{{1, 2}, {2, 4}, {3, 6}};
  const auto result = svd(a);
  EXPECT_EQ(result.rank(), 1u);
  // sigma_1 = ||[1,2,3]|| * ||[1,2]|| = sqrt(14) * sqrt(5).
  EXPECT_NEAR(result.singular_values[0], std::sqrt(14.0 * 5.0), 1e-10);
}

TEST(Svd, NuclearNormOfIdentity) {
  const auto result = svd(Matrix::identity(5));
  EXPECT_NEAR(result.nuclear_norm(), 5.0, 1e-10);
}

struct SvdCase {
  int rows;
  int cols;
  SvdMethod method;
};

class SvdSweep : public ::testing::TestWithParam<SvdCase> {};

TEST_P(SvdSweep, FullRankReconstruction) {
  const SvdCase c = GetParam();
  Rng rng(static_cast<std::uint64_t>(c.rows * 977 + c.cols));
  Matrix a = random_matrix(static_cast<std::size_t>(c.rows),
                           static_cast<std::size_t>(c.cols), rng);
  SvdOptions options;
  options.method = c.method;
  const auto result = svd(a, options);
  expect_valid_svd(a, result, 1e-9);
}

TEST_P(SvdSweep, LowRankDetection) {
  const SvdCase c = GetParam();
  const auto rank = static_cast<std::size_t>(
      std::max(1, std::min(c.rows, c.cols) / 3));
  Rng rng(static_cast<std::uint64_t>(c.rows * 31 + c.cols * 7));
  Matrix a = random_low_rank(static_cast<std::size_t>(c.rows),
                             static_cast<std::size_t>(c.cols), rank, rng);
  SvdOptions options;
  options.method = c.method;
  const auto result = svd(a, options);
  EXPECT_EQ(result.rank(1e-9), rank);
  expect_valid_svd(a, result, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    JacobiShapes, SvdSweep,
    ::testing::Values(SvdCase{3, 3, SvdMethod::OneSidedJacobi},
                      SvdCase{10, 4, SvdMethod::OneSidedJacobi},
                      SvdCase{4, 10, SvdMethod::OneSidedJacobi},
                      SvdCase{25, 6, SvdMethod::OneSidedJacobi},
                      SvdCase{6, 25, SvdMethod::OneSidedJacobi},
                      SvdCase{16, 16, SvdMethod::OneSidedJacobi}));

INSTANTIATE_TEST_SUITE_P(
    GramShapes, SvdSweep,
    ::testing::Values(SvdCase{4, 40, SvdMethod::Gram},
                      SvdCase{40, 4, SvdMethod::Gram},
                      SvdCase{10, 100, SvdMethod::Gram},
                      SvdCase{6, 36, SvdMethod::Gram}));

INSTANTIATE_TEST_SUITE_P(
    AutoShapes, SvdSweep,
    ::testing::Values(SvdCase{10, 400, SvdMethod::Auto},
                      SvdCase{12, 12, SvdMethod::Auto},
                      SvdCase{3, 120, SvdMethod::Auto}));

TEST(Svd, GramAndJacobiAgreeOnSingularValues) {
  Rng rng(55);
  Matrix a = random_matrix(6, 48, rng);
  SvdOptions gram_opts;
  gram_opts.method = SvdMethod::Gram;
  SvdOptions jacobi_opts;
  jacobi_opts.method = SvdMethod::OneSidedJacobi;
  const auto g = svd(a, gram_opts);
  const auto j = svd(a, jacobi_opts);
  ASSERT_EQ(g.singular_values.size(), j.singular_values.size());
  for (std::size_t k = 0; k < g.singular_values.size(); ++k) {
    EXPECT_NEAR(g.singular_values[k], j.singular_values[k], 1e-8);
  }
}

TEST(Svd, TpMatrixShape) {
  // The shape RPCA sees: time_step x N^2 with N = 14.
  Rng rng(56);
  Matrix a = random_low_rank(10, 196, 1, rng);
  const auto result = svd(a);
  EXPECT_EQ(result.rank(1e-9), 1u);
  EXPECT_LT(a.max_abs_diff(result.reconstruct()), 1e-9);
}

TEST(Svd, LowRankApproximationOptimality) {
  Rng rng(57);
  Matrix a = random_matrix(12, 9, rng);
  const auto full = svd(a);
  // The best rank-3 approximation: the SVD with its tail zeroed.
  SvdResult truncated = full;
  for (std::size_t k = 3; k < truncated.singular_values.size(); ++k) {
    truncated.singular_values[k] = 0.0;
  }
  const Matrix approx = truncated.reconstruct();
  // Eckart-Young: the rank-3 truncation error is sqrt(sum of the
  // discarded squared singular values).
  double expected2 = 0.0;
  for (std::size_t k = 3; k < full.singular_values.size(); ++k) {
    expected2 += full.singular_values[k] * full.singular_values[k];
  }
  Matrix diff = a;
  diff -= approx;
  double actual2 = 0.0;
  for (double v : diff.data()) actual2 += v * v;
  EXPECT_NEAR(actual2, expected2, 1e-8);
}

TEST(Svd, FrobeniusEqualsSingularValueNorm) {
  Rng rng(58);
  Matrix a = random_matrix(7, 11, rng);
  const auto result = svd(a);
  double fro2 = 0.0;
  for (double v : a.data()) fro2 += v * v;
  double sv2 = 0.0;
  for (double s : result.singular_values) sv2 += s * s;
  EXPECT_NEAR(fro2, sv2, 1e-9);
}

}  // namespace
}  // namespace netconst::linalg
