#include "rpca/validation.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/norms.hpp"
#include "linalg/svd.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

TEST(SyntheticProblem, DataIsSumOfComponents) {
  SyntheticSpec spec;
  Rng rng(1);
  const SyntheticProblem p = make_synthetic(spec, rng);
  linalg::Matrix sum = p.low_rank;
  sum += p.sparse;
  EXPECT_EQ(sum.max_abs_diff(p.data), 0.0);
}

TEST(SyntheticProblem, LowRankHasRequestedRank) {
  SyntheticSpec spec;
  spec.rows = 20;
  spec.cols = 30;
  spec.rank = 3;
  Rng rng(2);
  const SyntheticProblem p = make_synthetic(spec, rng);
  EXPECT_EQ(linalg::svd(p.low_rank).rank(1e-9), 3u);
}

TEST(SyntheticProblem, SparsityFractionIsHonoured) {
  SyntheticSpec spec;
  spec.rows = 30;
  spec.cols = 30;
  spec.sparsity = 0.10;
  Rng rng(3);
  const SyntheticProblem p = make_synthetic(spec, rng);
  const std::size_t nonzeros = linalg::l0_count(p.sparse, 0.0);
  EXPECT_EQ(nonzeros, 90u);  // 10% of 900
}

TEST(SyntheticProblem, SparseEntriesBoundedAwayFromZero) {
  SyntheticSpec spec;
  spec.sparse_magnitude = 5.0;
  Rng rng(4);
  const SyntheticProblem p = make_synthetic(spec, rng);
  for (double v : p.sparse.data()) {
    if (v != 0.0) {
      EXPECT_GE(std::abs(v), 0.5);
    }
  }
}

TEST(SyntheticProblem, InvalidSpecThrows) {
  Rng rng(5);
  SyntheticSpec bad_rank;
  bad_rank.rank = 0;
  EXPECT_THROW(make_synthetic(bad_rank, rng), ContractViolation);
  SyntheticSpec bad_sparsity;
  bad_sparsity.sparsity = 1.5;
  EXPECT_THROW(make_synthetic(bad_sparsity, rng), ContractViolation);
}

TEST(SyntheticProblem, DeterministicGivenRngState) {
  SyntheticSpec spec;
  Rng a(9), b(9);
  const SyntheticProblem pa = make_synthetic(spec, a);
  const SyntheticProblem pb = make_synthetic(spec, b);
  EXPECT_EQ(pa.data.max_abs_diff(pb.data), 0.0);
}

TEST(MeasureRecovery, PerfectRecoveryScoresPerfectly) {
  SyntheticSpec spec;
  Rng rng(6);
  const SyntheticProblem p = make_synthetic(spec, rng);
  const RecoveryError err = measure_recovery(p, p.low_rank, p.sparse);
  EXPECT_NEAR(err.low_rank_error, 0.0, 1e-12);
  EXPECT_NEAR(err.sparse_error, 0.0, 1e-12);
  EXPECT_NEAR(err.support_f1, 1.0, 1e-12);
}

TEST(MeasureRecovery, WrongSupportLowersF1) {
  SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 10;
  spec.sparsity = 0.2;
  Rng rng(7);
  const SyntheticProblem p = make_synthetic(spec, rng);
  // Estimate: empty sparse component -> recall 0 -> F1 0.
  const RecoveryError err =
      measure_recovery(p, p.data, linalg::Matrix(10, 10));
  EXPECT_EQ(err.support_f1, 0.0);
}

TEST(MeasureRecovery, ShapeMismatchThrows) {
  SyntheticSpec spec;
  Rng rng(8);
  const SyntheticProblem p = make_synthetic(spec, rng);
  EXPECT_THROW(
      measure_recovery(p, linalg::Matrix(2, 2), linalg::Matrix(2, 2)),
      ContractViolation);
}

}  // namespace
}  // namespace netconst::rpca
