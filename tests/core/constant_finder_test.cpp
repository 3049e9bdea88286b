#include "core/constant_finder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::core {
namespace {

// A series whose links have fixed constants plus per-row band noise and
// optional sparse spikes — the structure RPCA must pick apart.
netmodel::TemporalPerformance synthetic_series(std::size_t n,
                                               std::size_t rows,
                                               double band_sigma,
                                               double spike_fraction,
                                               Rng& rng) {
  // Fixed constants per link.
  netmodel::PerformanceMatrix constant(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        constant.set_link(
            i, j, {rng.uniform(1e-4, 5e-4), rng.uniform(3e7, 1.2e8)});
      }
    }
  }
  netmodel::TemporalPerformance series;
  for (std::size_t r = 0; r < rows; ++r) {
    netmodel::PerformanceMatrix snap(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        auto link = constant.link(i, j);
        link.alpha *= std::exp(band_sigma * rng.normal());
        link.beta *= std::exp(band_sigma * rng.normal());
        if (rng.bernoulli(spike_fraction)) link.beta /= 4.0;
        snap.set_link(i, j, link);
      }
    }
    series.append(static_cast<double>(r) * 60.0, std::move(snap));
  }
  return series;
}

TEST(ConstantFinder, RequiresTwoRows) {
  netmodel::TemporalPerformance series;
  series.append(0.0, netmodel::PerformanceMatrix(3));
  EXPECT_THROW(find_constant(series), ContractViolation);
}

TEST(ConstantRow, AveragesLowRankRows) {
  linalg::Matrix low_rank(3, 4, 2.0);
  low_rank(0, 1) = 5.0;
  low_rank(1, 1) = 5.0;
  low_rank(2, 1) = 5.0;
  const linalg::Matrix row = constant_row(low_rank, 2);
  EXPECT_EQ(row.rows(), 2u);
  EXPECT_EQ(row(0, 1), 5.0);
  EXPECT_EQ(row(1, 0), 2.0);
  EXPECT_THROW(constant_row(low_rank, 3), ContractViolation);
}

TEST(ConstantFinder, RecoversConstantsOnCleanSeries) {
  Rng rng(10);
  const auto series = synthetic_series(6, 10, 0.01, 0.0, rng);
  const ConstantComponent component = find_constant(series);
  // Low noise, no spikes: Norm(N_E) should be small.
  EXPECT_LT(component.error_norm, 0.15);
  EXPECT_TRUE(component.constant.is_valid());
  // The recovered constants match the per-link time averages within the
  // band width.
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      double mean_beta = 0.0;
      for (std::size_t r = 0; r < series.row_count(); ++r) {
        mean_beta += series.snapshot(r).link(i, j).beta;
      }
      mean_beta /= static_cast<double>(series.row_count());
      EXPECT_NEAR(component.constant.link(i, j).beta / mean_beta, 1.0,
                  0.10);
    }
  }
}

TEST(ConstantFinder, SpikesRaiseErrorNorm) {
  Rng rng(11);
  const auto clean = synthetic_series(6, 10, 0.01, 0.0, rng);
  Rng rng2(11);
  const auto spiky = synthetic_series(6, 10, 0.01, 0.25, rng2);
  const double clean_norm = find_constant(clean).error_norm;
  const double spiky_norm = find_constant(spiky).error_norm;
  EXPECT_GT(spiky_norm, clean_norm);
  EXPECT_GT(spiky_norm, 0.05);
}

TEST(ConstantFinder, SpikesDoNotCorruptTheConstant) {
  // The point of RPCA over averaging: sparse spikes should barely move
  // the recovered constant.
  Rng rng(12);
  const auto spiky = synthetic_series(6, 12, 0.01, 0.10, rng);
  const ConstantComponent component = find_constant(spiky);
  // Constant should be near the per-link *median*-like value, i.e. much
  // closer to the clean constant than to the spike-dragged mean. Since
  // spikes only divide beta, the constant must exceed the naive mean on
  // spiked links in aggregate.
  double rpca_total = 0.0, mean_total = 0.0, max_total = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      if (i == j) continue;
      rpca_total += component.constant.link(i, j).beta;
      double mean_beta = 0.0, max_beta = 0.0;
      for (std::size_t r = 0; r < spiky.row_count(); ++r) {
        const double b = spiky.snapshot(r).link(i, j).beta;
        mean_beta += b;
        max_beta = std::max(max_beta, b);
      }
      mean_total += mean_beta / static_cast<double>(spiky.row_count());
      max_total += max_beta;
    }
  }
  EXPECT_GT(rpca_total, mean_total * 0.98);
  EXPECT_LT(rpca_total, max_total);
}

TEST(ConstantFinder, SolverChoicesAllWork) {
  Rng rng(13);
  const auto series = synthetic_series(5, 8, 0.02, 0.05, rng);
  const ConstantComponent component = find_constant(series);
  EXPECT_TRUE(component.constant.is_valid());
  EXPECT_GE(component.error_norm, 0.0);
  EXPECT_LE(component.error_norm, 1.0);
}

TEST(ConstantFinder, ReportsRankAndTiming) {
  Rng rng(14);
  const auto series = synthetic_series(5, 8, 0.02, 0.0, rng);
  const ConstantComponent component = find_constant(series);
  EXPECT_GE(component.bandwidth_rank, 1u);
  EXPECT_GT(component.solve_seconds, 0.0);
}

}  // namespace
}  // namespace netconst::core
