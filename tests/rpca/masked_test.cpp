// Masked (partial-observation) RPCA front-end: imputation priority
// order, the observed-entry residual, and end-to-end recovery of the
// rank-1 constant from masked data through APG.
#include "rpca/masked.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "rpca/rpca.hpp"
#include "support/error.hpp"
#include "../support/proptest.hpp"

namespace netconst::rpca {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

linalg::Matrix constant_matrix(std::size_t rows, std::size_t cols,
                               double value) {
  linalg::Matrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) m(i, j) = value;
  }
  return m;
}

TEST(Masked, CountMissingSeesEveryNonFiniteKind) {
  linalg::Matrix m = constant_matrix(2, 3, 1.0);
  EXPECT_EQ(count_missing(m), 0u);
  m(0, 0) = kNaN;
  m(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_EQ(count_missing(m), 2u);
}

TEST(Masked, FullyObservedDataIsUntouched) {
  linalg::Matrix m = constant_matrix(3, 3, 2.5);
  const ImputeStats stats = impute_missing(m);
  EXPECT_FALSE(stats.any());
  EXPECT_EQ(stats.missing, 0u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 2.5);
  }
}

TEST(Masked, ConstantRowWinsOverColumnMean) {
  linalg::Matrix m = constant_matrix(3, 2, 10.0);
  m(1, 0) = kNaN;
  linalg::Matrix constant(1, 2);
  constant(0, 0) = 7.0;
  constant(0, 1) = 8.0;

  const ImputeStats stats = impute_missing(m, &constant);
  EXPECT_EQ(stats.missing, 1u);
  EXPECT_EQ(stats.from_constant, 1u);
  EXPECT_EQ(stats.from_column, 0u);
  EXPECT_EQ(m(1, 0), 7.0);
}

TEST(Masked, ColumnMeanUsedWithoutConstantRow) {
  linalg::Matrix m = constant_matrix(4, 2, 0.0);
  m(0, 0) = 2.0;
  m(1, 0) = 4.0;
  m(2, 0) = 6.0;
  m(3, 0) = kNaN;
  const ImputeStats stats = impute_missing(m);
  EXPECT_EQ(stats.from_column, 1u);
  EXPECT_DOUBLE_EQ(m(3, 0), 4.0);  // mean of the observed column entries
}

TEST(Masked, NonFiniteConstantEntryFallsThroughToColumnMean) {
  linalg::Matrix m = constant_matrix(3, 1, 5.0);
  m(2, 0) = kNaN;
  linalg::Matrix constant(1, 1);
  constant(0, 0) = kNaN;
  const ImputeStats stats = impute_missing(m, &constant);
  EXPECT_EQ(stats.from_constant, 0u);
  EXPECT_EQ(stats.from_column, 1u);
  EXPECT_DOUBLE_EQ(m(2, 0), 5.0);
}

TEST(Masked, WholeColumnOutageFallsBackToGlobalMean) {
  linalg::Matrix m(2, 2);
  m(0, 0) = 3.0;
  m(1, 0) = 5.0;
  m(0, 1) = kNaN;
  m(1, 1) = kNaN;
  const ImputeStats stats = impute_missing(m);
  EXPECT_EQ(stats.from_global, 2u);
  EXPECT_DOUBLE_EQ(m(0, 1), 4.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 4.0);
}

TEST(Masked, FullyUnobservedMatrixDegradesToZeros) {
  linalg::Matrix m = constant_matrix(2, 2, kNaN);
  const ImputeStats stats = impute_missing(m);
  EXPECT_EQ(stats.from_global, 4u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Masked, ConstantRowShapeIsChecked) {
  linalg::Matrix m = constant_matrix(2, 3, 1.0);
  linalg::Matrix wrong(1, 2);
  EXPECT_THROW(impute_missing(m, &wrong), ContractViolation);
}

TEST(Masked, ResidualIgnoresUnobservedEntries) {
  linalg::Matrix a = constant_matrix(2, 2, 1.0);
  a(0, 1) = kNaN;
  linalg::Matrix d = constant_matrix(2, 2, 1.0);
  d(0, 1) = 123.0;  // only disagreement is at the unobserved entry
  const linalg::Matrix e = constant_matrix(2, 2, 0.0);
  EXPECT_EQ(masked_relative_residual(a, d, e), 0.0);

  linalg::Matrix d2 = d;
  d2(1, 1) = 1.5;  // observed disagreement must register
  EXPECT_GT(masked_relative_residual(a, d2, e), 0.0);

  const linalg::Matrix none = constant_matrix(2, 2, kNaN);
  EXPECT_EQ(masked_relative_residual(none, d, e), 0.0);
}

TEST(Masked, ResidualShapeMismatchThrows) {
  const linalg::Matrix a = constant_matrix(2, 2, 1.0);
  const linalg::Matrix d = constant_matrix(2, 3, 1.0);
  EXPECT_THROW(masked_relative_residual(a, d, a), ContractViolation);
}

// The headline chaos tolerance: at <= 20% masking, imputing from the
// true constant row and solving recovers the constant. Recovery error
// is heavy-tailed per column — a column that lost rows to the mask AND
// absorbed an outlier keeps a visible bias — so the contract is on the
// distribution: the median column error stays under 5% and the mean
// under 10%, and no column may ever be off by more than 2x.
// docs/TESTING.md documents these bounds.
TEST(Masked, TwentyPercentMaskRecoversConstantAcrossSolvers) {
  netconst::testing::run_property(0xC0FFEE, 4, [](Rng& rng) {
    const std::size_t rows = netconst::testing::random_size(rng, 6, 10);
    const std::size_t cols = netconst::testing::random_size(rng, 12, 30);
    auto made = netconst::testing::random_rank1_sparse(rng, rows, cols,
                                                       /*outliers=*/0.05);
    linalg::Matrix masked = made.data;
    netconst::testing::mask_entries(rng, masked, 0.20);

    linalg::Matrix repaired = masked;
    impute_missing(repaired, &made.constant_row);

    const Result result = solve(repaired);
    // D + E explains every entry that was actually observed.
    EXPECT_LT(
        masked_relative_residual(masked, result.low_rank, result.sparse),
        5e-2);
    // Column means of D recover the constant row.
    std::vector<double> errors(cols, 0.0);
    for (std::size_t j = 0; j < cols; ++j) {
      double mean = 0.0;
      for (std::size_t i = 0; i < rows; ++i) mean += result.low_rank(i, j);
      mean /= static_cast<double>(rows);
      errors[j] = std::abs(mean - made.constant_row(0, j)) /
                  made.constant_row(0, j);
      EXPECT_LT(errors[j], 1.0) << "column " << j;
    }
    double mean_error = 0.0;
    for (const double e : errors) mean_error += e;
    mean_error /= static_cast<double>(cols);
    EXPECT_LT(mean_error, 0.10);
    std::nth_element(errors.begin(), errors.begin() + cols / 2, errors.end());
    EXPECT_LT(errors[cols / 2], 0.05);
  });
}

}  // namespace
}  // namespace netconst::rpca
