// IncrementalTracker: subspace tracking against full solves.
//
// The tracker's contract has three legs. Two are pinned here:
//  * at the anchor it reproduces the full solve (rank-1 factors and the
//    cached Norm(N_E) counts are exactly the anchor solve's), and
//  * across single-row slides it stays within the soft-threshold
//    resolution of a cold re-solve while drift stays quiet.
// The third, that a drift breach hands the refresher's ordinary full
// path (the Huber fit from the tracked E) bit-exactly against
// rpca::reference, is pinned in tests/online/refresher_test.cpp.
#include "rpca/incremental.hpp"

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "linalg/norms.hpp"
#include "support/error.hpp"

namespace netconst::rpca {
namespace {

constexpr double kL0Tol = 0.05;

Options online_options() {
  Options options;
  options.polish_iterations = 300;  // the online warm/cold-equivalence mode
  return options;
}

/// Replace row `slot` of `data` with the case's constant row plus
/// `outliers` interference entries (factor x5), like a window slide
/// under an unchanged placement.
void slide_row(linalg::Matrix& data, std::size_t slot,
               const linalg::Matrix& constant_row, std::size_t outliers,
               Rng& rng) {
  for (std::size_t j = 0; j < data.cols(); ++j) {
    data(slot, j) = constant_row(0, j);
  }
  for (std::size_t k = 0; k < outliers; ++k) {
    const auto j = testing::random_size(rng, 0, data.cols() - 1);
    data(slot, j) = constant_row(0, j) * 5.0;
  }
}

double relative_diff(const linalg::Matrix& a, const linalg::Matrix& b) {
  linalg::Matrix diff = a;
  diff -= b;
  const double scale = linalg::frobenius_norm(b);
  return scale == 0.0 ? linalg::frobenius_norm(diff)
                      : linalg::frobenius_norm(diff) / scale;
}

TEST(IncrementalTracker, ContractsBeforeAnchor) {
  IncrementalTracker tracker;
  EXPECT_FALSE(tracker.ready());
  EXPECT_EQ(tracker.rank(), 0u);
  linalg::Matrix data(4, 16);
  data.fill(1.0);
  EXPECT_THROW(tracker.update(data, 0), ContractViolation);
  EXPECT_THROW(tracker.error_norm(), ContractViolation);
}

TEST(IncrementalTracker, AnchorReproducesTheFullSolve) {
  Rng rng(11);
  const auto problem = testing::random_rank1_sparse(rng, 8, 64, 0.05);
  const Result full = solve(problem.data, Solver::Apg, online_options());

  IncrementalTracker tracker;
  tracker.anchor(problem.data, full, kL0Tol);
  ASSERT_TRUE(tracker.ready());
  EXPECT_EQ(tracker.rank(), 1u);

  // The polished low-rank component is exactly rank 1, so projecting
  // onto its own direction loses nothing.
  linalg::Matrix materialized;
  tracker.materialize_low_rank(materialized);
  EXPECT_LT(materialized.max_abs_diff(full.low_rank), 1e-10);
  EXPECT_EQ(tracker.sparse().max_abs_diff(full.sparse), 0.0);
  // Identical cutoff, identical counts: the cached Norm(N_E) IS
  // relative_l0 at the anchor.
  EXPECT_DOUBLE_EQ(tracker.error_norm(),
                   relative_l0(full.sparse, problem.data, kL0Tol));
}

TEST(IncrementalTracker, UpdateTracksAStationarySubspace) {
  Rng rng(12);
  const auto problem = testing::random_rank1_sparse(rng, 8, 64, 0.05);
  linalg::Matrix data = problem.data;
  const Result full = solve(data, Solver::Apg, online_options());

  IncrementalTracker tracker;
  tracker.anchor(data, full, kL0Tol);
  ASSERT_TRUE(tracker.ready());

  for (std::size_t step = 0; step < 4; ++step) {
    const std::size_t slot = step % data.rows();
    slide_row(data, slot, problem.constant_row, 3, rng);
    const DriftStats drift = tracker.update(data, slot);
    EXPECT_FALSE(drift.breach) << "step " << step;
    EXPECT_LT(drift.instant, 0.2) << "step " << step;
  }
  EXPECT_EQ(tracker.updates(), 4u);

  // The tracked constant stays on the planted one.
  linalg::Matrix constant;
  tracker.constant_row_into(constant);
  EXPECT_LT(relative_diff(constant, problem.constant_row), 0.1);
  // And the decomposition still explains the data: A - D - E small
  // relative to the soft-threshold floor.
  linalg::Matrix low_rank;
  tracker.materialize_low_rank(low_rank);
  linalg::Matrix residual = data;
  residual -= low_rank;
  residual -= tracker.sparse();
  EXPECT_LT(linalg::frobenius_norm(residual) /
                linalg::frobenius_norm(data),
            0.15);
}

TEST(IncrementalTracker, PlacementShiftBreaches) {
  Rng rng(13);
  const auto problem = testing::random_rank1_sparse(rng, 8, 64, 0.05);
  linalg::Matrix data = problem.data;
  const Result full = solve(data, Solver::Apg, online_options());

  IncrementalTracker tracker;
  tracker.anchor(data, full, kL0Tol);
  ASSERT_TRUE(tracker.ready());

  // A placement change: the replaced row follows a different constant
  // (every link roughly tripled — far outside the frozen direction's
  // soft-threshold band).
  for (std::size_t j = 0; j < data.cols(); ++j) {
    data(0, j) = problem.constant_row(0, j) * 3.0 + 0.5;
  }
  const DriftStats drift = tracker.update(data, 0);
  EXPECT_TRUE(drift.breach);
  EXPECT_GT(drift.instant, tracker.options().drift_threshold);
}

TEST(IncrementalTracker, ResetRequiresReanchor) {
  Rng rng(15);
  const auto problem = testing::random_rank1_sparse(rng, 6, 32, 0.05);
  const Result full = solve(problem.data, Solver::Apg, online_options());
  IncrementalTracker tracker;
  tracker.anchor(problem.data, full, kL0Tol);
  ASSERT_TRUE(tracker.ready());
  tracker.reset();
  EXPECT_FALSE(tracker.ready());
  EXPECT_THROW(tracker.update(problem.data, 0), ContractViolation);
}

TEST(IncrementalTracker, ZeroConstantLeavesTrackerNotReady) {
  linalg::Matrix data(4, 16);
  data.fill(0.0);
  Result synthetic;
  synthetic.low_rank.resize(4, 16);
  synthetic.low_rank.fill(0.0);
  synthetic.sparse.resize(4, 16);
  synthetic.sparse.fill(0.0);
  IncrementalTracker tracker;
  tracker.anchor(data, synthetic, kL0Tol);
  EXPECT_FALSE(tracker.ready());
}

}  // namespace
}  // namespace netconst::rpca
