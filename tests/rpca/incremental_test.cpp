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

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "../support/proptest.hpp"
#include "core/constant_finder.hpp"
#include "detect/detector.hpp"
#include "linalg/norms.hpp"
#include "rpca/masked.hpp"
#include "rpca/workspace.hpp"
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
  const Result full = solve(problem.data, online_options());

  IncrementalTracker tracker;
  Result anchored = full;
  tracker.anchor(problem.data, anchored, kL0Tol, 8);
  ASSERT_TRUE(tracker.ready());
  EXPECT_EQ(tracker.rank(), 1u);
  // The tracker took E: the layer holds one copy of it.
  EXPECT_TRUE(anchored.sparse.empty());

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

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// The refresher's full path on `data`: the Huber fit from E = 0.
Result online_fit(const linalg::Matrix& data) {
  Result result;
  result.low_rank.resize(data.rows(), data.cols());
  result.sparse.resize(data.rows(), data.cols());
  result.sparse.fill(0.0);
  SolverWorkspace ws;
  polish(data, online_options(), /*huber_start=*/true, ws, result);
  return result;
}

/// The anchor pass against the recounts it replaces on the full path:
/// rpca::relative_l0, core::constant_row and detect::support_stats at
/// the same cutoff, each bit for bit.
void expect_anchor_matches_recounts(const linalg::Matrix& data,
                                    const Result& full, double tol,
                                    std::size_t vms) {
  IncrementalTracker tracker;
  Result anchored = full;
  tracker.anchor(data, anchored, tol, vms);
  const double cutoff = tol * linalg::max_abs(data);
  EXPECT_TRUE(same_bits(tracker.error_norm(),
                        relative_l0(full.sparse, data, tol)));

  linalg::Matrix row;
  tracker.anchor_constant_row_into(row);
  const linalg::Matrix constant = core::constant_row(full.low_rank, vms);
  ASSERT_EQ(row.cols(), vms * vms);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < vms; ++i) {
    for (std::size_t j = 0; j < vms; ++j) {
      differing += !same_bits(row(0, i * vms + j), constant(i, j));
    }
  }
  EXPECT_EQ(differing, 0u);

  const detect::SupportStats expected =
      detect::support_stats(full.sparse, vms, cutoff);
  const detect::SupportStats got =
      detect::support_geometry(tracker.support_touches(), data.rows());
  EXPECT_TRUE(same_bits(got.fraction, expected.fraction));
  EXPECT_TRUE(same_bits(got.concentration, expected.concentration));
  EXPECT_EQ(got.vm, expected.vm);
}

// On a clean window, on a masked one after imputation, and with E
// entries that the two counts treat differently: a diagonal entry
// (l0 counts it, the support never does), one exactly at the cutoff
// (neither counts it) and a NaN (the support counts it, l0 does not).
// Row counts 7 and 10 cover every row group the anchor pass walks.
TEST(IncrementalTracker, AnchorMeasuresWhatTheRecountsCompute) {
  constexpr std::size_t kVms = 8;
  for (const std::size_t rows : {7u, 10u}) {
    SCOPED_TRACE(rows);
    Rng rng(40 + rows);
    auto problem = testing::random_rank1_sparse(rng, rows, kVms * kVms, 0.05);
    for (double& x : problem.data.data()) x *= 1.0 + 0.02 * rng.normal();
    {
      SCOPED_TRACE("clean");
      const Result full = online_fit(problem.data);
      expect_anchor_matches_recounts(problem.data, full, kL0Tol, kVms);
      expect_anchor_matches_recounts(problem.data, full, 1e-3, kVms);
    }
    {
      SCOPED_TRACE("masked");
      linalg::Matrix masked = problem.data;
      ASSERT_GT(testing::mask_entries(rng, masked, 0.05), 0u);
      impute_missing(masked);
      const Result full = online_fit(masked);
      expect_anchor_matches_recounts(masked, full, kL0Tol, kVms);
    }
    {
      SCOPED_TRACE("edge entries");
      Result full = online_fit(problem.data);
      const double cutoff = kL0Tol * linalg::max_abs(problem.data);
      full.sparse(0, 0) = 10.0 * cutoff;
      full.sparse(1, 5) = -cutoff;
      full.sparse(2, 9) = std::numeric_limits<double>::quiet_NaN();
      expect_anchor_matches_recounts(problem.data, full, kL0Tol, kVms);
    }
  }
}

/// The row update as two separate prox steps per sweep and separate
/// passes for every statistic, with the branching soft threshold: the
/// tracker's update must reproduce it bit for bit.
struct RowProxTwin {
  linalg::Matrix e;
  std::vector<double> q;
  std::vector<double> row_l1;
  double lambda = 0.0;
  double cutoff = 0.0;
  double ewma = 0.0;

  RowProxTwin(const linalg::Matrix& data, const Result& full, double tol)
      : e(full.sparse), q(data.cols(), 0.0), row_l1(data.rows(), 0.0) {
    const std::size_t m = data.rows();
    const std::size_t n = data.cols();
    lambda = default_lambda(m, n);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) q[j] += full.low_rank(i, j);
    }
    double norm2 = 0.0;
    for (double& x : q) {
      x *= 1.0 / static_cast<double>(m);
      norm2 += x * x;
    }
    for (double& x : q) x *= 1.0 / std::sqrt(norm2);
    cutoff = tol * linalg::max_abs(data);
    std::size_t support = 0;
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        row_l1[i] += std::abs(data(i, j));
        support += std::abs(e(i, j)) > cutoff;
      }
    }
    ewma = static_cast<double>(support) / static_cast<double>(m * n);
  }

  static double soft(double x, double tau) {
    if (x > tau) return x - tau;
    if (x < -tau) return x + tau;
    return 0.0;
  }

  DriftStats update(const linalg::Matrix& data, std::size_t slot,
                    const IncrementalOptions& options) {
    const std::size_t n = data.cols();
    const double* a = data.row(slot).data();
    double* row = e.row(slot).data();
    row_l1[slot] = 0.0;
    for (std::size_t j = 0; j < n; ++j) row_l1[slot] += std::abs(a[j]);
    double l1 = 0.0;
    for (const double v : row_l1) l1 += v;
    const double tau = lambda * l1 /
                       (static_cast<double>(data.rows()) *
                        static_cast<double>(n));
    for (std::size_t j = 0; j < n; ++j) row[j] = 0.0;
    double c = 0.0;
    for (int s = 0; s < options.update_sweeps; ++s) {
      c = 0.0;
      for (std::size_t j = 0; j < n; ++j) c += (a[j] - row[j]) * q[j];
      for (std::size_t j = 0; j < n; ++j) row[j] = soft(a[j] - c * q[j], tau);
    }
    std::size_t unexplained = 0;
    double res2 = 0.0, a2 = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (row[j] != 0.0) ++unexplained;
      const double r = a[j] - c * q[j] - row[j];
      res2 += r * r;
      a2 += a[j] * a[j];
    }
    DriftStats drift;
    drift.instant = static_cast<double>(unexplained) / static_cast<double>(n);
    ewma = options.ewma_alpha * drift.instant +
           (1.0 - options.ewma_alpha) * ewma;
    drift.ewma = ewma;
    drift.novelty = std::sqrt(res2 / std::max(a2, 1e-30));
    drift.breach = drift.instant > options.drift_threshold ||
                   drift.ewma > options.ewma_threshold;
    return drift;
  }
};

TEST(IncrementalTracker, UpdateMatchesTheTwoStepRowProx) {
  Rng rng(14);
  const auto problem = testing::random_rank1_sparse(rng, 8, 64, 0.05);
  linalg::Matrix data = problem.data;
  Result full = solve(data, online_options());

  RowProxTwin twin(data, full, kL0Tol);
  IncrementalTracker tracker;
  tracker.anchor(data, full, kL0Tol, 8);
  ASSERT_TRUE(tracker.ready());
  for (std::size_t step = 0; step < 12; ++step) {
    SCOPED_TRACE(step);
    const std::size_t slot = step % data.rows();
    slide_row(data, slot, problem.constant_row, step % 4, rng);
    for (std::size_t j = 0; j < data.cols(); ++j) {
      data(slot, j) *= 1.0 + 0.03 * rng.normal();
    }
    const DriftStats got = tracker.update(data, slot);
    const DriftStats want = twin.update(data, slot, tracker.options());
    EXPECT_TRUE(same_bits(got.instant, want.instant));
    EXPECT_TRUE(same_bits(got.ewma, want.ewma));
    EXPECT_TRUE(same_bits(got.novelty, want.novelty));
    EXPECT_EQ(got.breach, want.breach);
    EXPECT_EQ(std::memcmp(tracker.sparse().row(slot).data(),
                          twin.e.row(slot).data(),
                          data.cols() * sizeof(double)),
              0);
    // The cached counts sit at the cutoff frozen at the anchor.
    const double ratio =
        static_cast<double>(linalg::l0_count(twin.e, twin.cutoff)) /
        static_cast<double>(linalg::l0_count(data, twin.cutoff));
    EXPECT_TRUE(same_bits(tracker.error_norm(), std::clamp(ratio, 0.0, 1.0)));
  }
}

TEST(IncrementalTracker, UpdateTracksAStationarySubspace) {
  Rng rng(12);
  const auto problem = testing::random_rank1_sparse(rng, 8, 64, 0.05);
  linalg::Matrix data = problem.data;
  Result full = solve(data, online_options());

  IncrementalTracker tracker;
  tracker.anchor(data, full, kL0Tol, 8);
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
  Result full = solve(data, online_options());

  IncrementalTracker tracker;
  tracker.anchor(data, full, kL0Tol, 8);
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
  const auto problem = testing::random_rank1_sparse(rng, 6, 36, 0.05);
  Result full = solve(problem.data, online_options());
  IncrementalTracker tracker;
  tracker.anchor(problem.data, full, kL0Tol, 6);
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
  tracker.anchor(data, synthetic, kL0Tol, 4);
  EXPECT_FALSE(tracker.ready());
}

}  // namespace
}  // namespace netconst::rpca
