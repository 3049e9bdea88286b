#include "linalg/randomized_svd.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <thread>
#include <vector>

#include "linalg/blas.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "linalg/simd.hpp"
#include "support/error.hpp"

namespace netconst::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

Matrix random_low_rank(std::size_t rows, std::size_t cols,
                       std::size_t rank, Rng& rng) {
  return multiply(random_matrix(rows, rank, rng),
                  random_matrix(rank, cols, rng));
}

TEST(RandomizedSvd, Contracts) {
  Rng rng(1);
  RandomizedSvdScratch scratch;
  Matrix out;
  const RandomizedSvdOptions opt;
  EXPECT_THROW(
      randomized_svt_into(Matrix(), 0.1, 1, rng, opt, 0.0, 0.0, scratch, out),
      ContractViolation);
  EXPECT_THROW(randomized_svt_into(Matrix(2, 2), 0.1, 0, rng, opt, 0.0, 0.0,
                                   scratch, out),
               ContractViolation);
  EXPECT_THROW(randomized_svt_into(Matrix(2, 2), -0.1, 1, rng, opt, 0.0, 0.0,
                                   scratch, out),
               ContractViolation);
  // RPCA data is wide; tall inputs take the exact path instead.
  EXPECT_THROW(randomized_svt_into(Matrix(3, 2), 0.1, 1, rng, opt, 0.0, 0.0,
                                   scratch, out),
               ContractViolation);
  EXPECT_THROW(
      randomized_low_rank_into(Matrix(), 1, rng, opt, 0.0, 0.0, scratch, out),
      ContractViolation);
  EXPECT_THROW(randomized_low_rank_into(Matrix(2, 2), 0, rng, opt, 0.0, 0.0,
                                        scratch, out),
               ContractViolation);
  EXPECT_THROW(randomized_low_rank_into(Matrix(3, 2), 1, rng, opt, 0.0, 0.0,
                                        scratch, out),
               ContractViolation);
}

// A rank-3 input with a rank-3 target: the tau = 0 SVT is the identity
// on the captured spectrum, so it reproduces the input.
TEST(RandomizedSvd, ExactOnLowRankInput) {
  Rng rng(2);
  const Matrix a = random_low_rank(12, 200, 3, rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  const RandomizedSvdInfo info = randomized_svt_into(
      a, 0.0, 3, rng, RandomizedSvdOptions{}, 0.0, 1e-6, scratch, out);
  ASSERT_TRUE(info.accepted);
  EXPECT_EQ(info.rank, 3u);
  EXPECT_LT(a.max_abs_diff(out), 1e-8);
}

TEST(RandomizedSvd, MatchesExactSvdLeadingValues) {
  Rng rng(3);
  const Matrix a = random_matrix(20, 120, rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  // A full-rank input leaves a large truncation error; accept anyway to
  // read the captured spectrum.
  const RandomizedSvdInfo info = randomized_low_rank_into(
      a, 5, rng, RandomizedSvdOptions{},
      std::numeric_limits<double>::infinity(), 0.0, scratch, out);
  ASSERT_TRUE(info.accepted);
  ASSERT_GE(scratch.singular_values.size(), 5u);
  const SvdResult exact = svd(a);
  EXPECT_EQ(info.top_singular_value, scratch.singular_values[0]);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_NEAR(scratch.singular_values[k], exact.singular_values[k],
                exact.singular_values[k] * 0.05 + 1e-9)
        << "k=" << k;
  }
}

// The rank cut never keeps more than min(m, n) values, however large
// the requested k.
TEST(RandomizedSvd, RankBudgetCapsOutput) {
  Rng rng(5);
  const Matrix a = random_matrix(6, 40, rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  const RandomizedSvdInfo info = randomized_low_rank_into(
      a, 100, rng, RandomizedSvdOptions{}, 0.0, 0.0, scratch, out);
  ASSERT_TRUE(info.accepted);
  EXPECT_EQ(info.rank, 6u);  // min(m, n)
  EXPECT_LT(a.max_abs_diff(out), 1e-9);
}

// The sketch basis Q is orthonormal, which is what makes the reported
// truncation_error (from ||A||_F^2 - ||Q^T A||_F^2) equal the real
// ||A - Q Q^T A||_F.
TEST(RandomizedSvd, OrthonormalFactors) {
  Rng rng(6);
  const Matrix a = random_matrix(15, 90, rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  const RandomizedSvdInfo info = randomized_svt_into(
      a, 0.0, 4, rng, RandomizedSvdOptions{},
      std::numeric_limits<double>::infinity(), 0.0, scratch, out);
  ASSERT_TRUE(info.accepted);
  ASSERT_LT(info.sketch, a.rows());
  ASSERT_EQ(scratch.q.cols(), info.sketch);
  const Matrix qtq = multiply(scratch.q.transposed(), scratch.q);
  EXPECT_LT(qtq.max_abs_diff(Matrix::identity(info.sketch)), 1e-12);
  const Matrix missed =
      a - multiply(scratch.q, multiply(scratch.q.transposed(), a));
  EXPECT_NEAR(info.truncation_error, frobenius_norm(missed),
              1e-9 * info.input_fro);
}

// Same Rng state, same output bytes — for both entry points, whether
// the call runs alone or from eight threads contending for the shared
// pool (the parallel loops split only independent output elements).
// 24 rows keep the sketch (3 + 8 oversampling) incomplete, so the power
// iterations run too.
TEST(RandomizedSvd, DeterministicGivenRngState) {
  Rng data_rng(8);
  const Matrix m = random_matrix(24, 200, data_rng);
  struct Run {
    RandomizedSvdInfo svt_info, cut_info;
    Matrix svt, cut;
  };
  const auto run = [&m](Run& r) {
    Rng stream(7);
    RandomizedSvdScratch scratch;
    r.svt_info = randomized_svt_into(m, 0.5, 3, stream, RandomizedSvdOptions{},
                                     std::numeric_limits<double>::infinity(),
                                     0.0, scratch, r.svt);
    r.cut_info = randomized_low_rank_into(
        m, 3, stream, RandomizedSvdOptions{},
        std::numeric_limits<double>::infinity(), 0.0, scratch, r.cut);
  };
  const auto expect_same = [](const Run& x, const Run& y) {
    EXPECT_EQ(x.svt_info.rank, y.svt_info.rank);
    EXPECT_EQ(x.svt_info.top_singular_value, y.svt_info.top_singular_value);
    EXPECT_EQ(x.svt_info.truncation_error, y.svt_info.truncation_error);
    EXPECT_EQ(x.cut_info.truncation_error, y.cut_info.truncation_error);
    ASSERT_TRUE(x.svt.same_shape(y.svt));
    ASSERT_TRUE(x.cut.same_shape(y.cut));
    EXPECT_EQ(x.svt.max_abs_diff(y.svt), 0.0);
    EXPECT_EQ(x.cut.max_abs_diff(y.cut), 0.0);
  };

  Run first, second;
  run(first);
  run(second);
  ASSERT_TRUE(first.svt_info.accepted);
  ASSERT_TRUE(first.cut_info.accepted);
  ASSERT_LT(first.svt_info.sketch, m.rows());
  expect_same(first, second);

  constexpr std::size_t kThreads = 8;
  std::vector<Run> concurrent(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&run, &concurrent, t] { run(concurrent[t]); });
  }
  for (auto& thread : threads) thread.join();
  for (const Run& r : concurrent) expect_same(first, r);
}

// Same Rng state, different SIMD levels: every byte of the SVT output
// and the acceptance decision must agree. The kernels are restricted to
// fixed-order scalar dots plus the elementwise blas trio exactly so
// this holds (see the header's determinism contract).
TEST(RandomizedSvd, BitIdenticalAcrossSimdLevels) {
  Rng data_rng(11);
  const Matrix a = random_low_rank(12, 300, 3, data_rng);
  const RandomizedSvdOptions opt;
  RandomizedSvdScratch scalar_scratch, native_scratch;
  Matrix scalar_out, native_out, scalar_cut, native_cut;
  Rng scalar_stream(42), native_stream(42);
  RandomizedSvdInfo scalar_info, native_info, scalar_cut_info,
      native_cut_info;
  {
    simd::ScopedLevel force(simd::Level::Scalar);
    scalar_info = randomized_svt_into(a, 0.01, 4, scalar_stream, opt, 0.0,
                                      1e-6, scalar_scratch, scalar_out);
    scalar_cut_info = randomized_low_rank_into(
        a, 2, scalar_stream, opt, 0.0, 1.0, scalar_scratch, scalar_cut);
  }
  native_info = randomized_svt_into(a, 0.01, 4, native_stream, opt, 0.0,
                                    1e-6, native_scratch, native_out);
  native_cut_info = randomized_low_rank_into(a, 2, native_stream, opt, 0.0,
                                             1.0, native_scratch, native_cut);
  ASSERT_TRUE(scalar_info.accepted);
  ASSERT_TRUE(native_info.accepted);
  EXPECT_EQ(scalar_info.rank, native_info.rank);
  EXPECT_EQ(scalar_info.truncation_error, native_info.truncation_error);
  EXPECT_EQ(scalar_info.input_fro, native_info.input_fro);
  ASSERT_TRUE(scalar_out.same_shape(native_out));
  EXPECT_EQ(scalar_out.max_abs_diff(native_out), 0.0);
  ASSERT_TRUE(scalar_cut_info.accepted);
  ASSERT_TRUE(native_cut_info.accepted);
  EXPECT_EQ(scalar_cut_info.rank, native_cut_info.rank);
  EXPECT_EQ(scalar_cut_info.truncation_error,
            native_cut_info.truncation_error);
  ASSERT_TRUE(scalar_cut.same_shape(native_cut));
  EXPECT_EQ(scalar_cut.max_abs_diff(native_cut), 0.0);
}

// A rejected sketch must not leak partial results: `out` keeps its
// prior contents so the caller's exact-path fallback starts clean.
TEST(RandomizedSvd, RejectedSketchLeavesOutputUntouched) {
  Rng data_rng(12);
  const Matrix a = random_matrix(24, 200, data_rng);  // full rank 24
  RandomizedSvdScratch scratch;
  Matrix out(1, 1);
  out(0, 0) = 7.5;
  Rng stream(1);
  const RandomizedSvdInfo info = randomized_svt_into(
      a, 1e-6, 2, stream, RandomizedSvdOptions{}, 0.0, 1e-12, scratch, out);
  EXPECT_FALSE(info.accepted);
  EXPECT_GT(info.truncation_error, 0.0);
  EXPECT_EQ(out.rows(), 1u);
  EXPECT_EQ(out(0, 0), 7.5);
}

// A sketch as wide as the row space is a complete decomposition: the
// scratch-based SVT must then agree with the exact prox to roundoff.
TEST(RandomizedSvd, CompleteSketchMatchesExactSvt) {
  Rng data_rng(13);
  const Matrix a = random_matrix(10, 80, data_rng);
  const double tau = 0.4;
  RandomizedSvdScratch scratch;
  Matrix out;
  Rng stream(2);
  // target 6 + oversampling 8 > rows: the sketch clamps to complete.
  const RandomizedSvdInfo info = randomized_svt_into(
      a, tau, 6, stream, RandomizedSvdOptions{}, 0.0, 0.0, scratch, out);
  ASSERT_TRUE(info.accepted);
  EXPECT_EQ(info.sketch, a.rows());
  const SvtResult exact = singular_value_threshold(a, tau);
  EXPECT_EQ(info.rank, exact.rank);
  EXPECT_LT(out.max_abs_diff(exact.value), 1e-9);
}

// target_rank >= min(rows, cols) must degrade to the full decomposition
// rather than trip a contract (the adaptive dispatch can ask for it).
TEST(RandomizedSvd, OversizedTargetRankIsComplete) {
  Rng data_rng(14);
  const Matrix a = random_matrix(6, 50, data_rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  Rng stream(3);
  const RandomizedSvdInfo info = randomized_svt_into(
      a, 0.05, 64, stream, RandomizedSvdOptions{}, 0.0, 0.0, scratch, out);
  ASSERT_TRUE(info.accepted);
  EXPECT_EQ(info.sketch, a.rows());
  EXPECT_LE(info.rank, a.rows());
}

// The low-rank variant against the exact rank-k cut.
TEST(RandomizedSvd, LowRankIntoMatchesExactCut) {
  Rng data_rng(15);
  const Matrix a = random_low_rank(12, 150, 3, data_rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  Rng stream(4);
  const RandomizedSvdInfo info = randomized_low_rank_into(
      a, 3, stream, RandomizedSvdOptions{}, 0.0, 1e-6, scratch, out);
  ASSERT_TRUE(info.accepted);
  GramSvtScratch exact_scratch;
  Matrix exact;
  low_rank_approximation_into(a, 3, SvdOptions{}, exact_scratch, exact);
  EXPECT_LT(out.max_abs_diff(exact), 1e-8);
}

// The shape RPCA would use it for: rank-1 TP-matrix sketches.
TEST(RandomizedSvd, TpShapedRankOne) {
  Rng rng(9);
  const Matrix a = random_low_rank(10, 1024, 1, rng);
  RandomizedSvdScratch scratch;
  Matrix out;
  const RandomizedSvdInfo info = randomized_low_rank_into(
      a, 1, rng, RandomizedSvdOptions{}, 0.0, 1e-6, scratch, out);
  ASSERT_TRUE(info.accepted);
  EXPECT_EQ(info.rank, 1u);
  EXPECT_LT(a.max_abs_diff(out), 1e-8 * max_abs(a) + 1e-10);
}

}  // namespace
}  // namespace netconst::linalg
