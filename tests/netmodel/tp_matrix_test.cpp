#include "netmodel/tp_matrix.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "support/error.hpp"

namespace netconst::netmodel {
namespace {

PerformanceMatrix make_snapshot(std::size_t n, double alpha, double beta) {
  PerformanceMatrix p(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) p.set_link(i, j, {alpha, beta});
    }
  }
  return p;
}

TEST(TpMatrix, AppendAndAccess) {
  TemporalPerformance series;
  EXPECT_TRUE(series.empty());
  series.append(0.0, make_snapshot(3, 1e-3, 1e7));
  series.append(60.0, make_snapshot(3, 2e-3, 2e7));
  EXPECT_EQ(series.row_count(), 2u);
  EXPECT_EQ(series.cluster_size(), 3u);
  EXPECT_EQ(series.time_at(1), 60.0);
  EXPECT_EQ(series.snapshot(1).link(0, 1).alpha, 2e-3);
}

TEST(TpMatrix, RejectsOutOfOrderTimes) {
  TemporalPerformance series;
  series.append(10.0, make_snapshot(2, 1e-3, 1e7));
  EXPECT_THROW(series.append(5.0, make_snapshot(2, 1e-3, 1e7)),
               ContractViolation);
}

TEST(TpMatrix, RejectsSizeChange) {
  TemporalPerformance series;
  series.append(0.0, make_snapshot(2, 1e-3, 1e7));
  EXPECT_THROW(series.append(1.0, make_snapshot(3, 1e-3, 1e7)),
               ContractViolation);
}

TEST(TpMatrix, AtTimeSelectsLatestSnapshot) {
  TemporalPerformance series;
  series.append(0.0, make_snapshot(2, 1.0, 1e7));
  series.append(100.0, make_snapshot(2, 2.0, 1e7));
  EXPECT_EQ(series.at_time(-5.0).link(0, 1).alpha, 1.0);
  EXPECT_EQ(series.at_time(50.0).link(0, 1).alpha, 1.0);
  EXPECT_EQ(series.at_time(100.0).link(0, 1).alpha, 2.0);
  EXPECT_EQ(series.at_time(1e9).link(0, 1).alpha, 2.0);
}

TEST(TpMatrix, FlattenShapeAndLayout) {
  TemporalPerformance series;
  PerformanceMatrix p(2);
  p.set_link(0, 1, {0.5, 4e6});
  p.set_link(1, 0, {0.25, 8e6});
  series.append(0.0, p);
  const auto flat = series.flatten(Field::Latency);
  ASSERT_EQ(flat.rows(), 1u);
  ASSERT_EQ(flat.cols(), 4u);
  // Row-major: (0,0), (0,1), (1,0), (1,1).
  EXPECT_EQ(flat(0, 1), 0.5);
  EXPECT_EQ(flat(0, 2), 0.25);
  const auto bw = series.flatten(Field::Bandwidth);
  EXPECT_EQ(bw(0, 1), 4e6);
}

TEST(TpMatrix, FlattenTransferTimeUsesReferenceSize) {
  TemporalPerformance series;
  PerformanceMatrix p(2);
  p.set_link(0, 1, {1.0, 100.0});
  p.set_link(1, 0, {1.0, 100.0});
  series.append(0.0, p);
  const auto tt = series.flatten(Field::TransferTime, 200);
  EXPECT_NEAR(tt(0, 1), 3.0, 1e-12);  // 1 + 200/100
  EXPECT_EQ(tt(0, 0), 0.0);           // self link
}

TEST(TpMatrix, UnflattenInvertsFlatten) {
  TemporalPerformance series;
  PerformanceMatrix p(3);
  p.set_link(0, 2, {0.125, 1e7});
  series.append(0.0, p);
  const auto flat = series.flatten(Field::Latency);
  const auto back = TemporalPerformance::unflatten_row(flat, 0, 3);
  EXPECT_EQ(back(0, 2), 0.125);
  EXPECT_EQ(back.rows(), 3u);
}

TEST(TpMatrix, UnflattenBadShapeThrows) {
  linalg::Matrix flat(1, 5);  // not a perfect square width for n=2
  EXPECT_THROW(TemporalPerformance::unflatten_row(flat, 0, 2),
               ContractViolation);
}

TEST(TpMatrix, KeepLastDropsOldest) {
  TemporalPerformance series;
  for (int i = 0; i < 5; ++i) {
    series.append(i, make_snapshot(2, 1.0 + i, 1e7));
  }
  series.keep_last(2);
  EXPECT_EQ(series.row_count(), 2u);
  EXPECT_EQ(series.time_at(0), 3.0);
}

TEST(MatricesToPerformance, FromSquareMatrices) {
  linalg::Matrix lat{{0, 0.5}, {0.25, 0}};
  linalg::Matrix bw{{1e18, 4e6}, {8e6, 1e18}};
  const PerformanceMatrix p = matrices_to_performance(lat, bw);
  EXPECT_EQ(p.link(0, 1).alpha, 0.5);
  EXPECT_EQ(p.link(1, 0).beta, 8e6);
}

TEST(MatricesToPerformance, ClampsUnphysicalValues) {
  // RPCA low-rank output can slightly undershoot physical bounds.
  linalg::Matrix lat{{0, -0.001}, {0.25, 0}};
  linalg::Matrix bw{{1e18, -5.0}, {8e6, 1e18}};
  const PerformanceMatrix p = matrices_to_performance(lat, bw);
  EXPECT_EQ(p.link(0, 1).alpha, 0.0);
  EXPECT_GT(p.link(0, 1).beta, 0.0);
  EXPECT_TRUE(p.is_valid());
}

TEST(MatricesToPerformance, FromFlattenedRows) {
  TemporalPerformance series;
  PerformanceMatrix p(2);
  p.set_link(0, 1, {0.5, 4e6});
  p.set_link(1, 0, {0.75, 2e6});
  series.append(0.0, p);
  const auto lat = series.flatten(Field::Latency);
  const auto bw = series.flatten(Field::Bandwidth);
  const PerformanceMatrix back = matrices_to_performance(lat, bw);
  EXPECT_EQ(back.link(0, 1).alpha, 0.5);
  EXPECT_EQ(back.link(1, 0).beta, 2e6);
}

// The constant rows are read in place: a 1 x N^2 row and its N x N
// matrix give the same links, in any mix of layouts, and layers of two
// cluster sizes are rejected.
TEST(MatricesToPerformance, FlattenedAndSquareLayoutsAgree) {
  const linalg::Matrix lat{{0, 0.5, 0.25}, {0.75, 0, 0.125}, {0.3, 0.6, 0}};
  const linalg::Matrix bw{{1e18, 4e6, 2e6}, {8e6, 1e18, 3e6}, {5e6, 6e6, 1e18}};
  linalg::Matrix lat_row(1, 9), bw_row(1, 9);
  for (std::size_t k = 0; k < 9; ++k) {
    lat_row(0, k) = lat(k / 3, k % 3);
    bw_row(0, k) = bw(k / 3, k % 3);
  }
  const PerformanceMatrix square = matrices_to_performance(lat, bw);
  using Layers = std::pair<const linalg::Matrix*, const linalg::Matrix*>;
  for (const auto& [l, b] : {Layers{&lat_row, &bw_row}, Layers{&lat_row, &bw},
                             Layers{&lat, &bw_row}}) {
    const PerformanceMatrix p = matrices_to_performance(*l, *b);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j = 0; j < 3; ++j) {
        if (i == j) continue;
        EXPECT_EQ(p.link(i, j).alpha, square.link(i, j).alpha);
        EXPECT_EQ(p.link(i, j).beta, square.link(i, j).beta);
      }
    }
  }
  const linalg::Matrix small{{0, 0.5}, {0.25, 0}};
  EXPECT_THROW(matrices_to_performance(lat_row, small), ContractViolation);
}

TEST(TpMatrix, EmptySeriesContractViolations) {
  TemporalPerformance series;
  EXPECT_THROW(series.flatten(Field::Latency), ContractViolation);
  EXPECT_THROW(series.at_time(0.0), ContractViolation);
}

}  // namespace
}  // namespace netconst::netmodel
