#include "linalg/qr.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

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

TEST(Qr, RejectsWideInput) {
  EXPECT_THROW(qr_decompose(Matrix(2, 3)), ContractViolation);
}

TEST(Qr, RIsUpperTriangular) {
  Rng rng(21);
  const auto qr = qr_decompose(random_matrix(8, 5, rng));
  for (std::size_t i = 0; i < qr.r.rows(); ++i) {
    for (std::size_t j = 0; j < i; ++j) EXPECT_EQ(qr.r(i, j), 0.0);
  }
}

class QrSweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrSweep, ReconstructsAndOrthonormal) {
  const auto [m, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 1000 + n));
  Matrix a = random_matrix(static_cast<std::size_t>(m),
                           static_cast<std::size_t>(n), rng);
  const auto qr = qr_decompose(a);
  EXPECT_LT(a.max_abs_diff(multiply(qr.q, qr.r)), 1e-12);
  const Matrix qtq = multiply(qr.q.transposed(), qr.q);
  EXPECT_LT(qtq.max_abs_diff(Matrix::identity(a.cols())), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrSweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{3, 3},
                                           std::pair{5, 2}, std::pair{10, 10},
                                           std::pair{20, 7},
                                           std::pair{50, 12}));

// G = M^T M + I is positive definite: the solve reproduces b.
TEST(Cholesky, SolvesAPositiveDefiniteSystem) {
  Rng rng(5);
  const Matrix m = random_matrix(12, 10, rng);
  Matrix g(10, 10);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      double s = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < 12; ++k) s += m(k, i) * m(k, j);
      g(i, j) = s;
    }
  }
  std::vector<double> b(10);
  for (double& x : b) x = rng.uniform(-1.0, 1.0);
  Matrix factor = g;
  std::vector<double> x = b;
  ASSERT_TRUE(cholesky_solve(factor, x));
  for (std::size_t i = 0; i < 10; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 10; ++j) s += g(i, j) * x[j];
    EXPECT_NEAR(s, b[i], 1e-12);
  }
}

TEST(Cholesky, RejectsIndefiniteAndNaNMatrices) {
  Matrix indefinite{{1.0, 2.0}, {2.0, 1.0}};
  std::vector<double> x{1.0, 1.0};
  EXPECT_FALSE(cholesky_solve(indefinite, x));
  Matrix with_nan{{1.0, 0.0}, {0.0, std::nan("")}};
  EXPECT_FALSE(cholesky_solve(with_nan, x));
  Matrix wide(2, 3);
  EXPECT_THROW(cholesky_solve(wide, x), ContractViolation);
}

}  // namespace
}  // namespace netconst::linalg
