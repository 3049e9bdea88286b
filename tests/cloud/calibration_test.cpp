#include "cloud/calibration.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cloud/synthetic.hpp"
#include "support/error.hpp"

namespace netconst::cloud {
namespace {

TEST(AllPairsRounds, CoversEveryOrderedPairExactlyOnce) {
  for (std::size_t n : {2u, 3u, 4u, 7u, 8u, 13u}) {
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const PairList& round : all_pairs_rounds(n)) {
      for (const auto& pair : round) {
        EXPECT_TRUE(seen.insert(pair).second)
            << "pair repeated for n=" << n;
      }
    }
    EXPECT_EQ(seen.size(), n * (n - 1)) << "n=" << n;
  }
}

TEST(AllPairsRounds, RoundsAreVertexDisjoint) {
  for (std::size_t n : {4u, 5u, 8u, 9u}) {
    for (const PairList& round : all_pairs_rounds(n)) {
      std::set<std::size_t> vertices;
      for (const auto& [a, b] : round) {
        EXPECT_TRUE(vertices.insert(a).second);
        EXPECT_TRUE(vertices.insert(b).second);
      }
    }
  }
}

TEST(AllPairsRounds, EvenClusterUsesNOver2PairsPerRound) {
  const auto rounds = all_pairs_rounds(8);
  EXPECT_EQ(rounds.size(), 14u);  // 2 * (8 - 1)
  for (const PairList& round : rounds) EXPECT_EQ(round.size(), 4u);
}

TEST(AllPairsRounds, TooSmallThrows) {
  EXPECT_THROW(all_pairs_rounds(1), ContractViolation);
}

TEST(CalibrateSnapshot, FillsEveryLink) {
  SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.seed = 5;
  SyntheticCloud cloud(config);
  const CalibrationResult result = calibrate_snapshot(cloud);
  EXPECT_EQ(result.matrix.size(), 6u);
  EXPECT_TRUE(result.matrix.is_valid());
  EXPECT_GT(result.elapsed_seconds, 0.0);
  EXPECT_EQ(result.rounds, 10u);  // 2 * (6 - 1)
  // Every off-diagonal link got a real (non-default) value: bandwidths
  // should be in the synthetic cloud's plausible range.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      EXPECT_GT(result.matrix.link(i, j).beta, 1e6);
      EXPECT_LT(result.matrix.link(i, j).beta, 1e10);
    }
  }
}

// A schedule built once and reused calibrates exactly as rebuilding it
// per snapshot does: two consecutive snapshots on one cloud match, bit
// for bit, the same two on an identical cloud with a fresh schedule
// each. A schedule for another cluster size is rejected.
TEST(CalibrateSnapshot, ReusedScheduleMatchesAFreshOneBitForBit) {
  SyntheticCloudConfig config;
  config.cluster_size = 7;
  config.seed = 9;
  SyntheticCloud reused(config), fresh(config);
  const std::vector<PairList> rounds = all_pairs_rounds(7);
  for (int snapshot = 0; snapshot < 2; ++snapshot) {
    SCOPED_TRACE(snapshot);
    const CalibrationResult a = calibrate_snapshot(reused, rounds);
    const CalibrationResult b = calibrate_snapshot(fresh);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.elapsed_seconds, b.elapsed_seconds);
    for (std::size_t i = 0; i < 7; ++i) {
      for (std::size_t j = 0; j < 7; ++j) {
        if (i == j) continue;
        EXPECT_EQ(a.matrix.link(i, j).alpha, b.matrix.link(i, j).alpha);
        EXPECT_EQ(a.matrix.link(i, j).beta, b.matrix.link(i, j).beta);
      }
    }
    reused.advance(600.0);
    fresh.advance(600.0);
  }
  EXPECT_THROW(calibrate_snapshot(reused, all_pairs_rounds(6)),
               ContractViolation);
}

TEST(CalibrateSnapshot, EstimatesTrackGroundTruth) {
  SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.band_sigma = 0.01;
  config.mean_quiet_duration = 1e12;  // no spikes
  config.seed = 6;
  SyntheticCloud cloud(config);
  const auto truth = cloud.ground_truth_constant();
  CalibrationOptions options;
  options.concurrent = false;  // avoid uplink sharing bias
  const CalibrationResult result = calibrate_snapshot(cloud, options);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      const double est = result.matrix.link(i, j).beta;
      const double ref = truth.link(i, j).beta;
      EXPECT_NEAR(est / ref, 1.0, 0.10) << i << "->" << j;
    }
  }
}

TEST(CalibrateSnapshot, ConcurrentIsFasterThanSequential) {
  SyntheticCloudConfig config;
  config.cluster_size = 8;
  config.seed = 7;
  SyntheticCloud c1(config), c2(config);
  CalibrationOptions sequential;
  sequential.concurrent = false;
  const double t_seq = calibrate_snapshot(c1, sequential).elapsed_seconds;
  const double t_conc = calibrate_snapshot(c2).elapsed_seconds;
  EXPECT_LT(t_conc, t_seq);
}

TEST(CalibrateSeries, ProducesRequestedRows) {
  SyntheticCloudConfig config;
  config.cluster_size = 5;
  config.seed = 8;
  SyntheticCloud cloud(config);
  SeriesOptions options;
  options.time_step = 4;
  options.interval = 10.0;
  const SeriesResult result = calibrate_series(cloud, options);
  EXPECT_EQ(result.series.row_count(), 4u);
  EXPECT_GT(result.elapsed_seconds, 30.0);  // at least the idle intervals
  // Times strictly increasing.
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_GT(result.series.time_at(r), result.series.time_at(r - 1));
  }
}

TEST(CalibrateSeries, ZeroTimeStepThrows) {
  SyntheticCloudConfig config;
  config.cluster_size = 4;
  SyntheticCloud cloud(config);
  SeriesOptions options;
  options.time_step = 0;
  EXPECT_THROW(calibrate_series(cloud, options), ContractViolation);
}

TEST(CalibrationOverhead, GrowsRoughlyLinearlyWithClusterSize) {
  // The paper's Figure 4 behaviour: overhead ~ linear in N.
  auto overhead = [](std::size_t n) {
    SyntheticCloudConfig config;
    config.cluster_size = n;
    config.seed = 9;
    SyntheticCloud cloud(config);
    return calibrate_snapshot(cloud).elapsed_seconds;
  };
  const double t8 = overhead(8);
  const double t16 = overhead(16);
  const double t32 = overhead(32);
  // Doubling N roughly doubles the overhead (within generous slack).
  EXPECT_GT(t16 / t8, 1.5);
  EXPECT_LT(t16 / t8, 3.0);
  EXPECT_GT(t32 / t16, 1.5);
  EXPECT_LT(t32 / t16, 3.0);
}

}  // namespace
}  // namespace netconst::cloud
