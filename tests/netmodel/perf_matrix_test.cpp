#include "netmodel/perf_matrix.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace netconst::netmodel {
namespace {

TEST(PerfMatrix, DefaultsApplied) {
  PerformanceMatrix p(4, {1e-3, 2e7});
  const LinkParams link = p.link(0, 1);
  EXPECT_EQ(link.alpha, 1e-3);
  EXPECT_EQ(link.beta, 2e7);
  EXPECT_TRUE(p.is_valid());
}

TEST(PerfMatrix, SelfLinkIsFree) {
  PerformanceMatrix p(3);
  EXPECT_EQ(p.transfer_time(1, 1, kEightMiB), 0.0);
  EXPECT_EQ(p.link(2, 2).alpha, 0.0);
}

TEST(PerfMatrix, SetAndGetLink) {
  PerformanceMatrix p(3);
  p.set_link(0, 2, {0.5, 1e6});
  EXPECT_EQ(p.link(0, 2).alpha, 0.5);
  EXPECT_EQ(p.link(0, 2).beta, 1e6);
  // Directed: the reverse link is untouched.
  EXPECT_NE(p.link(2, 0).alpha, 0.5);
}

TEST(PerfMatrix, SetSelfLinkThrows) {
  PerformanceMatrix p(3);
  EXPECT_THROW(p.set_link(1, 1, {0.1, 1e6}), ContractViolation);
}

TEST(PerfMatrix, InvalidParamsThrow) {
  PerformanceMatrix p(3);
  EXPECT_THROW(p.set_link(0, 1, {-0.1, 1e6}), ContractViolation);
  EXPECT_THROW(p.set_link(0, 1, {0.1, 0.0}), ContractViolation);
}

TEST(PerfMatrix, OutOfRangeThrows) {
  PerformanceMatrix p(2);
  EXPECT_THROW(p.link(2, 0), ContractViolation);
  EXPECT_THROW(p.set_link(0, 5, {0.1, 1e6}), ContractViolation);
}

TEST(PerfMatrix, TransferTimeUsesAlphaBeta) {
  PerformanceMatrix p(2);
  p.set_link(0, 1, {0.25, 4.0});
  EXPECT_NEAR(p.transfer_time(0, 1, 8), 0.25 + 2.0, 1e-12);
}

TEST(PerfMatrix, WeightMatrixDiagonalZeroSmallerIsBetter) {
  PerformanceMatrix p(3);
  p.set_link(0, 1, {0.0, 1e9});  // fast link
  p.set_link(0, 2, {0.0, 1e6});  // slow link
  const auto w = p.weight_matrix(kOneMiB);
  EXPECT_EQ(w(0, 0), 0.0);
  EXPECT_LT(w(0, 1), w(0, 2));
}

TEST(PerfMatrix, MemberWeightMatrixIsTheRestrictionsBitForBit) {
  PerformanceMatrix p(5);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      if (i != j) {
        p.set_link(i, j, {1e-5 * static_cast<double>(1 + i + 3 * j),
                          1e7 * static_cast<double>(3 + 2 * i + j)});
      }
    }
  }
  const std::vector<std::size_t> members{4, 0, 2};
  const auto w = p.weight_matrix(members, kEightMiB + 3);
  const auto expected = p.restrict_to(members).weight_matrix(kEightMiB + 3);
  ASSERT_EQ(w.rows(), 3u);
  ASSERT_EQ(w.cols(), 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) EXPECT_EQ(w(a, b), expected(a, b));
  }
  // Where restrict_to throws, so does the member weight matrix.
  EXPECT_THROW(p.weight_matrix({0, 5}, kOneMiB), ContractViolation);
  p.mark_link_missing(2, 0);
  EXPECT_THROW(p.restrict_to(members), ContractViolation);
  EXPECT_THROW(p.weight_matrix(members, kOneMiB), ContractViolation);
  EXPECT_NO_THROW(p.weight_matrix({0, 1, 3}, kOneMiB));  // 2 is not in it
}

TEST(PerfMatrix, RestrictToSubCluster) {
  PerformanceMatrix p(4);
  p.set_link(1, 3, {0.7, 3e6});
  const PerformanceMatrix sub = p.restrict_to({1, 3});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.link(0, 1).alpha, 0.7);
  EXPECT_EQ(sub.link(0, 1).beta, 3e6);
}

TEST(PerfMatrix, RestrictOutOfRangeThrows) {
  PerformanceMatrix p(3);
  EXPECT_THROW(p.restrict_to({0, 5}), ContractViolation);
}

TEST(PerfMatrix, ValidityDetection) {
  PerformanceMatrix p(2);
  EXPECT_TRUE(p.is_valid());
  p.latency()(0, 1) = -1.0;  // bypass the checked setter
  EXPECT_FALSE(p.is_valid());
}

}  // namespace
}  // namespace netconst::netmodel
