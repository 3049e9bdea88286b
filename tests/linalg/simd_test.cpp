// The SIMD dispatch contract (linalg/simd.hpp): elementwise kernels are
// bit-identical at every level; reduction kernels are deterministic per
// level and agree with the scalar order to rounding. On machines whose
// best level is Scalar these tests degenerate to scalar-vs-scalar and
// pass trivially, so the suite is portable.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/fused.hpp"
#include "linalg/matrix.hpp"
#include "linalg/norms.hpp"
#include "linalg/shrinkage.hpp"
#include "linalg/simd.hpp"
#include "rpca/rank1.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/rng.hpp"

namespace netconst::linalg {
namespace {

namespace simd = netconst::linalg::simd;

// The closing step's tolerance, which sets the fit's stop rule.
const double kPolishTolerance = rpca::Options{}.polish_tolerance;

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  Rng rng(seed);
  Matrix a(rows, cols);
  for (auto& v : a.data()) v = rng.uniform(-2.0, 2.0);
  return a;
}

// Every level this binary and CPU can run: Scalar, plus the best vector
// level when there is one.
std::vector<simd::Level> available_levels() {
  std::vector<simd::Level> levels{simd::Level::Scalar};
  if (simd::best_available_level() != simd::Level::Scalar) {
    levels.push_back(simd::best_available_level());
  }
  return levels;
}

// Bitwise equality, so signed zeros and NaNs count too.
bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

bool same_bits(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

bool same_bits(const Matrix& x, const Matrix& y) {
  return x.same_shape(y) && same_bits(x.data(), y.data());
}

TEST(SimdDispatch, ScopedLevelOverridesAndRestores) {
  const simd::Level ambient = simd::active_level();
  {
    simd::ScopedLevel scalar(simd::Level::Scalar);
    EXPECT_EQ(simd::active_level(), simd::Level::Scalar);
    {
      simd::ScopedLevel best(simd::best_available_level());
      EXPECT_EQ(simd::active_level(), simd::best_available_level());
    }
    EXPECT_EQ(simd::active_level(), simd::Level::Scalar);
  }
  EXPECT_EQ(simd::active_level(), ambient);
}

TEST(SimdDispatch, LaneWidthAndNamesAreConsistent) {
  EXPECT_EQ(simd::lane_width(simd::Level::Scalar), 1u);
  EXPECT_EQ(simd::lane_width(simd::Level::Avx2), 4u);
  EXPECT_EQ(simd::lane_width(simd::Level::Neon), 2u);
  EXPECT_STREQ(simd::level_name(simd::Level::Scalar), "scalar");
  // The binary can always execute the level it reports as best.
  simd::ScopedLevel best(simd::best_available_level());
  EXPECT_EQ(simd::active_level(), simd::best_available_level());
}

// Every elementwise fused kernel must produce bit-identical output at
// the best vector level and at scalar — including sizes that exercise
// the vector tail.
TEST(SimdKernels, ElementwiseKernelsAreBitIdenticalAcrossLevels) {
  for (const std::size_t cols : {1u, 5u, 64u, 257u}) {
    const Matrix x = random_matrix(7, cols, 11);
    const Matrix y = random_matrix(7, cols, 12);
    const Matrix z = random_matrix(7, cols, 13);

    Matrix scalar_out, vector_out;
    const auto run_both = [&](auto&& kernel) {
      {
        simd::ScopedLevel lvl(simd::Level::Scalar);
        kernel(scalar_out);
      }
      {
        simd::ScopedLevel lvl(simd::best_available_level());
        kernel(vector_out);
      }
      EXPECT_EQ(scalar_out.max_abs_diff(vector_out), 0.0);
    };

    run_both([&](Matrix& out) { sub(x, y, out); });
    run_both([&](Matrix& out) { soft_threshold_into(x, 0.4, out); });
  }
}

// gradient_step writes two outputs; check both explicitly.
TEST(SimdKernels, GradientStepBothOutputsBitIdentical) {
  const Matrix d = random_matrix(10, 101, 21);
  const Matrix dp = random_matrix(10, 101, 22);
  const Matrix e = random_matrix(10, 101, 23);
  const Matrix ep = random_matrix(10, 101, 24);
  const Matrix a = random_matrix(10, 101, 25);
  Matrix gd_s, en_s, gd_v, en_v;
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    gradient_step(d, dp, e, ep, a, 0.7, 0.5, 0.2, gd_s, en_s);
  }
  {
    simd::ScopedLevel lvl(simd::best_available_level());
    gradient_step(d, dp, e, ep, a, 0.7, 0.5, 0.2, gd_v, en_v);
  }
  EXPECT_EQ(gd_s.max_abs_diff(gd_v), 0.0);
  EXPECT_EQ(en_s.max_abs_diff(en_v), 0.0);
}

// The soft-threshold mask blend must reproduce the scalar if/else chain
// bitwise on the awkward inputs: exact +-tau (not shrunk), signed
// zeros, infinities, and NaN (maps to zero).
TEST(SimdKernels, SoftThresholdEdgeCasesMatchScalarBitwise) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Matrix src(1, 12);
  const double values[12] = {0.4,  -0.4, 0.4000000001, -0.5, 0.0, -0.0,
                             1e30, -1e30, inf,          -inf, nan, 0.39};
  for (std::size_t i = 0; i < 12; ++i) src(0, i) = values[i];
  for (const double tau : {0.0, 0.4}) {
    Matrix out_s, out_v;
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      soft_threshold_into(src, tau, out_s);
    }
    {
      simd::ScopedLevel lvl(simd::best_available_level());
      soft_threshold_into(src, tau, out_v);
    }
    for (std::size_t i = 0; i < 12; ++i) {
      if (std::isnan(values[i])) {
        EXPECT_EQ(out_s(0, i), 0.0);
        EXPECT_EQ(out_v(0, i), 0.0);
      } else {
        EXPECT_EQ(out_s(0, i), out_v(0, i)) << "i=" << i << " tau=" << tau;
        EXPECT_EQ(std::signbit(out_s(0, i)), std::signbit(out_v(0, i)));
      }
    }
  }
}

TEST(SimdKernels, AxpyAndScaledSetAreBitIdenticalAcrossLevels) {
  for (const std::size_t n : {1u, 3u, 8u, 1023u}) {
    const Matrix x = random_matrix(1, n, 31);
    Matrix y_s = random_matrix(1, n, 32);
    Matrix y_v = y_s;
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      axpy(1.3, x.data(), y_s.data());
    }
    {
      simd::ScopedLevel lvl(simd::best_available_level());
      axpy(1.3, x.data(), y_v.data());
    }
    EXPECT_EQ(y_s.max_abs_diff(y_v), 0.0);

    Matrix o_s(1, n), o_v(1, n);
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      scaled_set(-0.0, x.data(), o_s.data());
    }
    {
      simd::ScopedLevel lvl(simd::best_available_level());
      scaled_set(-0.0, x.data(), o_v.data());
    }
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(o_s(0, i), o_v(0, i));
      // The 0.0 + guard: a -0.0 product must come out as +0.0.
      EXPECT_FALSE(std::signbit(o_v(0, i)));
    }
  }
}

// The polish pass against the chain it replaced, written out with the
// unfused kernels and the polish's own scalar sum loop.
struct PolishOutputs {
  Matrix d, e, target;
  double change = 0.0, scale = 0.0, residual = 0.0;
};

PolishOutputs polish_pass_by_chain(const Matrix& a, const Matrix& u,
                                   const Matrix& v, double tau,
                                   const Matrix& d_prev,
                                   const Matrix& e_prev) {
  PolishOutputs o;
  o.d.resize(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) o.d(i, j) = u(0, i) * v(0, j);
  }
  Matrix shifted;
  sub(a, o.d, shifted);
  soft_threshold_into(shifted, tau, o.e);
  sub(a, o.e, o.target);
  const std::span<const double> dn = o.d.data(), dc = d_prev.data();
  const std::span<const double> en = o.e.data(), ec = e_prev.data();
  for (std::size_t idx = 0; idx < dn.size(); ++idx) {
    const double dd = dn[idx] - dc[idx];
    const double de = en[idx] - ec[idx];
    o.change += dd * dd + de * de;
    o.scale += dn[idx] * dn[idx] + en[idx] * en[idx];
  }
  const Matrix residual = (a - o.d) - o.e;
  for (const double r : residual.data()) o.residual += r * r;
  return o;
}

PolishOutputs polish_pass_fused(const Matrix& a, const Matrix& u,
                                const Matrix& v, double tau,
                                const Matrix& d_prev, const Matrix& e_prev) {
  PolishOutputs o;
  rank1_polish_pass(a, u.data(), v.data(), tau, d_prev, e_prev, o.d, o.e,
                    o.target, o.change, o.scale, o.residual);
  return o;
}

// The pass as the polish runs it: the next iterates written over the
// previous ones.
PolishOutputs polish_pass_in_place(const Matrix& a, const Matrix& u,
                                   const Matrix& v, double tau,
                                   const Matrix& d_prev,
                                   const Matrix& e_prev) {
  PolishOutputs o;
  o.d = d_prev;
  o.e = e_prev;
  rank1_polish_pass(a, u.data(), v.data(), tau, o.d, o.e, o.d, o.e,
                    o.target, o.change, o.scale, o.residual);
  return o;
}

void expect_same_polish(const PolishOutputs& x, const PolishOutputs& y) {
  EXPECT_TRUE(same_bits(x.d, y.d));
  EXPECT_TRUE(same_bits(x.e, y.e));
  EXPECT_TRUE(same_bits(x.target, y.target));
  EXPECT_TRUE(same_bits(x.change, y.change)) << x.change << " " << y.change;
  EXPECT_TRUE(same_bits(x.scale, y.scale)) << x.scale << " " << y.scale;
  EXPECT_TRUE(same_bits(x.residual, y.residual))
      << x.residual << " " << y.residual;
}

// The fused polish pass: scalar and vector bodies bit-identical to each
// other and to the unfused chain, sums included, on widths that leave a
// vector tail and on the awkward values — signed zeros, exact +-tau
// after the subtraction, tau = 0, and NaN.
TEST(SimdKernels, Rank1PolishPassIsBitIdenticalAcrossLevels) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::size_t cols : {1u, 3u, 7u, 13u, 1027u}) {
    for (const double tau : {0.0, 0.4}) {
      for (const bool awkward : {false, true}) {
        SCOPED_TRACE(testing::Message() << "cols=" << cols << " tau=" << tau
                                        << " awkward=" << awkward);
        const std::size_t rows = 5;
        Matrix a = random_matrix(rows, cols, 81);
        Matrix u = random_matrix(1, rows, 82);
        const Matrix v = random_matrix(1, cols, 83);
        const Matrix d_prev = random_matrix(rows, cols, 84);
        Matrix e_prev = random_matrix(rows, cols, 85);
        if (awkward) {
          // Rows 0 and 1 get d = +0 and -0, so a - d lands on exactly
          // +-tau and on both signed zeros.
          u(0, 0) = 0.0;
          u(0, 1) = -0.0;
          const double edge[6] = {tau, -tau, 0.0, -0.0, tau * 2.0, -tau};
          for (std::size_t j = 0; j < cols; ++j) {
            a(0, j) = edge[j % 6];
            a(1, j) = edge[(j + 3) % 6];
          }
          e_prev(2, cols / 2) = -0.0;
        }
        std::vector<PolishOutputs> fused, chain;
        for (const simd::Level level : available_levels()) {
          simd::ScopedLevel lvl(level);
          fused.push_back(polish_pass_fused(a, u, v, tau, d_prev, e_prev));
          chain.push_back(polish_pass_by_chain(a, u, v, tau, d_prev, e_prev));
        }
        for (std::size_t k = 0; k < fused.size(); ++k) {
          expect_same_polish(fused[k], chain[k]);
          expect_same_polish(fused[k], fused[0]);
        }
      }
    }
  }
  // NaN in the data or the previous iterate: a NaN shifted value
  // thresholds to zero, and both sums turn NaN, at every level.
  Matrix a = random_matrix(3, 9, 86);
  Matrix e_prev = random_matrix(3, 9, 87);
  a(1, 4) = nan;
  e_prev(2, 8) = nan;
  const Matrix u = random_matrix(1, 3, 88);
  const Matrix v = random_matrix(1, 9, 89);
  const Matrix d_prev = random_matrix(3, 9, 90);
  for (const simd::Level level : available_levels()) {
    simd::ScopedLevel lvl(level);
    const PolishOutputs f = polish_pass_fused(a, u, v, 0.3, d_prev, e_prev);
    const PolishOutputs c = polish_pass_by_chain(a, u, v, 0.3, d_prev, e_prev);
    EXPECT_EQ(f.e(1, 4), 0.0);
    EXPECT_TRUE(std::isnan(f.target(1, 4)));
    EXPECT_TRUE(std::isnan(f.change));
    EXPECT_FALSE(std::isnan(f.scale));
    EXPECT_TRUE(same_bits(f.d, c.d));
    EXPECT_TRUE(same_bits(f.e, c.e));
    EXPECT_TRUE(same_bits(f.scale, c.scale));
  }
}

// The polish writes each iterate over the last: the pass with d = d_prev
// and e = e_prev must equal the pass into fresh outputs bit for bit, the
// change sums included, at every level — on widths that leave a vector
// tail, with previous iterates that are random and that are the pass's
// own output one step earlier (where most change terms are near zero).
// A body that stored an element before it loaded that element's
// previous iterates would read its own output and sum zero changes.
TEST(SimdSolve, InPlacePolishPassMatchesOutOfPlaceAtEveryLevel) {
  for (const std::size_t cols : {1u, 3u, 7u, 13u, 1027u}) {
    for (const bool own_output : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "cols=" << cols << " own_output=" << own_output);
      const std::size_t rows = 10;
      const double tau = 0.3;
      const Matrix a = random_matrix(rows, cols, 91);
      const Matrix u = random_matrix(1, rows, 92);
      const Matrix v = random_matrix(1, cols, 93);
      Matrix d_prev = random_matrix(rows, cols, 94);
      Matrix e_prev = random_matrix(rows, cols, 95);
      if (own_output) {
        // One step earlier, from slightly different factors.
        Matrix u0 = u;
        for (auto& x : u0.data()) x *= 1.001;
        const PolishOutputs step =
            polish_pass_fused(a, u0, v, tau, d_prev, e_prev);
        d_prev = step.d;
        e_prev = step.e;
      }
      for (const simd::Level level : available_levels()) {
        SCOPED_TRACE(simd::level_name(level));
        simd::ScopedLevel lvl(level);
        const PolishOutputs fresh =
            polish_pass_fused(a, u, v, tau, d_prev, e_prev);
        expect_same_polish(
            polish_pass_in_place(a, u, v, tau, d_prev, e_prev), fresh);
        EXPECT_GT(fresh.change, 0.0);
      }
    }
  }
}

// multiply_into must give dot(a.row(i), x) per row, and
// multiply_transposed_into the zero fill plus one axpy per nonzero
// weight, at every level. Zero weights (both signs) are skipped, so an
// infinity in a row with weight zero must not turn the output NaN.
TEST(SimdKernels, GemvKernelsMatchTheirUnblockedForms) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::size_t rows : {1u, 3u, 4u, 5u, 10u, 13u}) {
    for (const std::size_t cols : {1u, 7u, 16u, 33u, 1024u}) {
      SCOPED_TRACE(testing::Message() << rows << " x " << cols);
      Matrix a = random_matrix(rows, cols, 91);
      const Matrix x = random_matrix(1, cols, 92);
      Matrix w = random_matrix(1, rows, 93);
      w(0, 0) = 0.0;
      if (rows > 2) {
        w(0, 2) = -0.0;
        a(2, cols - 1) = inf;
      }
      std::vector<std::vector<double>> transposed;
      for (const simd::Level level : available_levels()) {
        simd::ScopedLevel lvl(level);
        std::vector<double> y(rows), y_rows(rows);
        multiply_into(a, x.data(), y);
        for (std::size_t i = 0; i < rows; ++i) {
          y_rows[i] = dot(a.row(i), x.data());
        }
        EXPECT_TRUE(same_bits(y, y_rows));

        std::vector<double> t(cols), t_axpy(cols, 0.0);
        multiply_transposed_into(a, w.data(), t);
        for (std::size_t i = 0; i < rows; ++i) {
          if (w(0, i) == 0.0) continue;
          axpy(w(0, i), a.row(i), t_axpy);
        }
        EXPECT_TRUE(same_bits(t, t_axpy));
        for (const double ti : t) EXPECT_FALSE(std::isnan(ti));
        transposed.push_back(t);
      }
      // Elementwise, so also identical across levels.
      EXPECT_TRUE(same_bits(transposed.front(), transposed.back()));
    }
  }
}

// weighted_row_sum on strided weights and rows (the SVT tile's layout):
// every level agrees with the fill-then-scaled_set/axpy form, a row set
// whose weights are all zero gives +0.0, and a -0.0 product is +0.0.
TEST(SimdKernels, WeightedRowSumMatchesFillThenAxpy) {
  const std::size_t stride = 24;
  for (const std::size_t count : {0u, 1u, 2u, 5u, 12u, 13u}) {
    for (const std::size_t n : {1u, 4u, 15u, 16u, 21u}) {
      SCOPED_TRACE(testing::Message() << "count=" << count << " n=" << n);
      const Matrix rows = random_matrix(std::max<std::size_t>(count, 1),
                                        stride, 94);
      Matrix weights = random_matrix(std::max<std::size_t>(count, 1), 3, 95);
      if (count > 1) weights(1, 0) = 0.0;
      if (count > 4) weights(4, 0) = -0.0;
      std::vector<double> expected(n, 0.0);
      bool first = true;
      for (std::size_t k = 0; k < count; ++k) {
        const double wk = weights(k, 0);
        if (wk == 0.0) continue;
        const auto rk = rows.row(k).first(n);
        first ? scaled_set(wk, rk, expected) : axpy(wk, rk, expected);
        first = false;
      }
      for (const simd::Level level : available_levels()) {
        simd::ScopedLevel lvl(level);
        std::vector<double> y(n, 7.0);
        weighted_row_sum(weights.data().data(), 3, rows.data().data(),
                         stride, count, y);
        EXPECT_TRUE(same_bits(y, expected));
      }
    }
  }
  const Matrix row = random_matrix(1, 9, 96);
  for (const simd::Level level : available_levels()) {
    simd::ScopedLevel lvl(level);
    const double neg_zero = -0.0;
    std::vector<double> y(9, 7.0);
    weighted_row_sum(&neg_zero, 1, row.data().data(), 9, 1, y);
    for (const double yi : y) EXPECT_FALSE(std::signbit(yi));
  }
}

// The SVT reconstruction tile at every kept rank the compile-time
// variants cover (1-12) and past them (the runtime-rank path), against
// the allocating SVT (gram_svd + reconstruct) at the same level. The
// column count leaves a partial 64-column tile and a strip tail.
TEST(SimdKernels, SvtReconstructionTileMatchesAllocatingSvtAtEveryRank) {
  const Matrix a = random_matrix(16, 203, 97);
  for (const simd::Level level : available_levels()) {
    simd::ScopedLevel lvl(level);
    const SvdResult dec = svd(a);
    GramSvtScratch scratch;
    for (std::size_t keep = 1; keep <= 14; ++keep) {
      SCOPED_TRACE(testing::Message() << "keep=" << keep);
      const double tau = 0.5 * (dec.singular_values[keep - 1] +
                                dec.singular_values[keep]);
      const SvtResult expected = singular_value_threshold(a, tau);
      ASSERT_EQ(expected.rank, keep);
      Matrix out;
      const SvtInfo info =
          singular_value_threshold_into(a, tau, {}, scratch, out);
      EXPECT_TRUE(info.used_scratch);
      EXPECT_EQ(info.rank, keep);
      EXPECT_TRUE(same_bits(out, expected.value));
    }
  }
}

// Reductions reassociate under a vector level: not bit-identical, but
// they must agree with the scalar sum to rounding and be deterministic.
TEST(SimdKernels, DotAgreesWithScalarToRounding) {
  for (const std::size_t n : {6u, 64u, 4099u}) {
    const Matrix x = random_matrix(1, n, 41);
    const Matrix y = random_matrix(1, n, 42);
    double scalar, vec1, vec2;
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      scalar = dot(x.data(), y.data());
    }
    {
      simd::ScopedLevel lvl(simd::best_available_level());
      vec1 = dot(x.data(), y.data());
      vec2 = dot(x.data(), y.data());
    }
    EXPECT_EQ(vec1, vec2);  // deterministic per level
    const double tol =
        1e-13 * std::max(1.0, std::abs(scalar)) * static_cast<double>(n);
    EXPECT_NEAR(scalar, vec1, tol);
  }
}

TEST(SimdKernels, OuterGramAgreesWithScalarToRounding) {
  const Matrix a = random_matrix(10, 100, 51);
  Matrix g_s, g_v;
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    outer_gram_into(a, g_s);
  }
  {
    simd::ScopedLevel lvl(simd::best_available_level());
    outer_gram_into(a, g_v);
  }
  EXPECT_LT(g_s.max_abs_diff(g_v), 1e-11);
  // Symmetry must hold exactly at every level.
  for (std::size_t i = 0; i < g_v.rows(); ++i) {
    for (std::size_t j = 0; j < g_v.cols(); ++j) {
      EXPECT_EQ(g_v(i, j), g_v(j, i));
    }
  }
}

TEST(SimdKernels, IterateChangeNormsMatchesHandLoopAtScalar) {
  const Matrix d = random_matrix(6, 40, 61);
  const Matrix dp = random_matrix(6, 40, 62);
  const Matrix e = random_matrix(6, 40, 63);
  const Matrix ep = random_matrix(6, 40, 64);
  double expect_change = 0.0, expect_scale = 0.0;
  const auto ds = d.data(), dps = dp.data(), es = e.data(), eps = ep.data();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const double dd = ds[i] - dps[i];
    const double de = es[i] - eps[i];
    expect_change += dd * dd + de * de;
    expect_scale += ds[i] * ds[i] + es[i] * es[i];
  }
  double change = -1.0, scale = -1.0;
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    iterate_change_norms(d, dp, e, ep, change, scale);
  }
  EXPECT_EQ(change, expect_change);
  EXPECT_EQ(scale, expect_scale);
  {
    simd::ScopedLevel lvl(simd::best_available_level());
    iterate_change_norms(d, dp, e, ep, change, scale);
  }
  EXPECT_NEAR(change, expect_change, 1e-12 * std::max(1.0, expect_change));
  EXPECT_NEAR(scale, expect_scale, 1e-12 * std::max(1.0, expect_scale));
}

// End to end: a vector-level workspace solve must deliver the same
// decomposition quality as the scalar-level solve (tiny rounding drift
// in the reductions must not change rank, convergence, or residual
// beyond noise), and the scalar level must stay bit-identical to the
// frozen reference.
TEST(SimdSolve, VectorLevelMatchesScalarQuality) {
  Rng rng(71);
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 64;
  spec.rank = 1;
  spec.sparsity = 0.05;
  const Matrix a = rpca::make_synthetic(spec, rng).data;
  rpca::Options opts;
  opts.max_iterations = 200;

  rpca::Result scalar_result, vector_result;
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    scalar_result = rpca::solve(a, opts);
    const rpca::Result ref = rpca::reference::solve(a, opts);
    EXPECT_EQ(scalar_result.low_rank.max_abs_diff(ref.low_rank), 0.0);
    EXPECT_EQ(scalar_result.iterations, ref.iterations);
  }
  {
    simd::ScopedLevel lvl(simd::best_available_level());
    vector_result = rpca::solve(a, opts);
  }
  EXPECT_EQ(vector_result.converged, scalar_result.converged);
  EXPECT_EQ(vector_result.rank, scalar_result.rank);
  EXPECT_LT(vector_result.low_rank.max_abs_diff(scalar_result.low_rank),
            1e-6);
  EXPECT_LT(std::abs(vector_result.residual - scalar_result.residual), 1e-8);
}

// The whole polish, fused, against the old kernel chain written out
// inline, under every available level: a noisy 10 x 1024 window (the
// paper's N = 32 shape) whose polish runs to its 300-iteration cap, so
// every iteration's convergence decision is compared too.
TEST(SimdSolve, FusedPolishMatchesKernelChainAtEveryLevel) {
  Rng rng(98);
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 1024;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Matrix a = rpca::make_synthetic(spec, rng).data;
  for (auto& x : a.data()) x += 0.1 * rng.normal();
  const double lambda = 1.0 / std::sqrt(1024.0);
  const int cap = 300;
  const double tol = 1e-10;

  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    simd::ScopedLevel lvl(level);
    rpca::Options opts;
    opts.max_iterations = 40;
    rpca::SolverWorkspace ws;
    rpca::Result start;
    rpca::solve(a, opts, ws, start);

    rpca::Result fused = start;
    rpca::polish_rank1(a, fused, lambda, cap, tol, ws);

    // Inline oracle: the pre-fusion loop body.
    rpca::Result chain = start;
    rpca::SolverWorkspace cws;
    const double tau = lambda * (l1_norm(a) / static_cast<double>(a.size()));
    chain.polished = true;
    chain.polish_converged = false;
    for (int k = 0; k < cap; ++k) {
      // D = the rank-1 approximation of A - E: the Huber fit with no
      // sweeps is the power iteration and u v^T.
      rpca::Result power = chain;
      rpca::rank1_huber_fit(a, power, lambda, /*max_sweeps=*/0, tol, cws);
      cws.d.swap(power.low_rank);
      sub(a, cws.d, cws.target);
      soft_threshold_into(cws.target, tau, cws.e);
      double change = 0.0, scale = 0.0;
      const std::span<const double> dn = cws.d.data();
      const std::span<const double> dc = chain.low_rank.data();
      const std::span<const double> en = cws.e.data();
      const std::span<const double> ec = chain.sparse.data();
      for (std::size_t idx = 0; idx < dn.size(); ++idx) {
        const double dd = dn[idx] - dc[idx];
        const double de = en[idx] - ec[idx];
        change += dd * dd + de * de;
        scale += dn[idx] * dn[idx] + en[idx] * en[idx];
      }
      chain.low_rank.swap(cws.d);
      chain.sparse.swap(cws.e);
      chain.polish_iterations = k + 1;
      if (std::sqrt(change) <= tol * std::sqrt(scale)) {
        chain.polish_converged = true;
        break;
      }
    }
    chain.residual = frobenius_norm((a - chain.low_rank) - chain.sparse) /
                     frobenius_norm(a);

    EXPECT_EQ(chain.polish_iterations, cap);
    EXPECT_FALSE(chain.polish_converged);
    EXPECT_EQ(fused.polish_iterations, chain.polish_iterations);
    EXPECT_EQ(fused.polish_converged, chain.polish_converged);
    EXPECT_TRUE(same_bits(fused.low_rank, chain.low_rank));
    EXPECT_TRUE(same_bits(fused.sparse, chain.sparse));
    EXPECT_TRUE(same_bits(fused.residual, chain.residual));
    EXPECT_EQ(fused.rank, 1u);
  }
}

// The Huber fit and the polish it opens, against their allocating
// reference twins, under every available level: the same noisy N = 32
// window as above and one scalar-level APG start shared by every level.
// Under AVX2 the fit's 1-D fits run four to a vector, step for step as
// the scalar ones; its starting power iteration uses the level's
// dot/norm kernels (so does the twin's), so across levels the fits agree
// to rounding, and reach the same fixed point.
TEST(SimdSolve, HuberFitMatchesReferenceAtEveryLevel) {
  Rng rng(98);
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 1024;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Matrix a = rpca::make_synthetic(spec, rng).data;
  for (auto& x : a.data()) x += 0.1 * rng.normal();
  const double lambda = 1.0 / std::sqrt(1024.0);
  rpca::Options opts;
  opts.max_iterations = 40;
  opts.polish_iterations = 300;
  rpca::Result start;
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    rpca::Options solve_opts = opts;
    solve_opts.polish_iterations = 0;
    start = rpca::solve(a, solve_opts);
  }

  rpca::Result first_fit;
  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    simd::ScopedLevel lvl(level);
    rpca::SolverWorkspace ws;

    rpca::Result fit = start;
    rpca::Result ref = start;
    const int sweeps =
        rpca::rank1_huber_fit(a, fit, lambda, rpca::kHuberFitSweeps,
                              kPolishTolerance, ws);
    EXPECT_EQ(sweeps, rpca::reference::rank1_huber_fit(
                          a, ref, lambda, rpca::kHuberFitSweeps,
                          kPolishTolerance));
    EXPECT_TRUE(same_bits(fit.low_rank, ref.low_rank));
    EXPECT_TRUE(same_bits(fit.sparse, ref.sparse));
    EXPECT_TRUE(same_bits(fit.residual, ref.residual));
    if (first_fit.low_rank.empty()) {
      first_fit = fit;
    } else {
      EXPECT_LT(fit.low_rank.max_abs_diff(first_fit.low_rank),
                1e-9 * max_abs(first_fit.low_rank));
    }

    rpca::Result polished = start;
    rpca::Result ref_polished = start;
    rpca::polish(a, opts, /*huber_start=*/true, ws, polished);
    rpca::reference::polish(a, opts, /*huber_start=*/true, ref_polished);
    EXPECT_TRUE(polished.polish_converged);
    EXPECT_EQ(polished.polish_iterations, ref_polished.polish_iterations);
    EXPECT_EQ(polished.polish_converged, ref_polished.polish_converged);
    EXPECT_TRUE(same_bits(polished.low_rank, ref_polished.low_rank));
    EXPECT_TRUE(same_bits(polished.sparse, ref_polished.sparse));
    EXPECT_TRUE(same_bits(polished.residual, ref_polished.residual));
  }
}

// A sweep after convergence: each 1-D fit starts at its own minimiser.
// Refitting a fit's own output against the same factor takes one
// evaluation of g' (its slope is zero, its Newton step rounds to its
// start or lands on its piece) instead of bisecting down from the
// outermost kinks, returns within 1 ulp of the start at the factor's
// scale and matches the
// reference twin's fit bit for bit, at every level, on both sweeps of a
// converged Huber fit of a noisy window.
TEST(SimdSolve, HuberRefitFromItsOwnMinimiserTakesOneEvaluation) {
  Rng rng(98);
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 1024;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Matrix a = rpca::make_synthetic(spec, rng).data;
  for (auto& x : a.data()) x += 0.03 * rng.normal();
  const double lambda = 1.0 / std::sqrt(1024.0);
  const double tau = lambda * l1_norm(a) / static_cast<double>(a.size());
  Matrix at(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) at(j, i) = a(i, j);
  }

  // A converged fit's factors, and each sweep's minimisers against the
  // other factor: the starts of the refits below.
  std::vector<double> u, v, v_min(a.cols()), u_min(a.rows());
  {
    simd::ScopedLevel lvl(simd::Level::Scalar);
    rpca::SolverWorkspace ws;
    rpca::Result fit;
    fit.sparse.resize(a.rows(), a.cols());
    fit.sparse.fill(0.0);
    ASSERT_LT(rpca::rank1_huber_fit(a, fit, lambda, rpca::kHuberFitSweeps,
                                    kPolishTolerance, ws),
              rpca::kHuberFitSweeps);
    u = ws.rank1.u;
    v = ws.rank1.v;
    huber_fit_columns(a, at, u, tau, v, v_min);
    huber_fit_columns(at, a, v, tau, u, u_min);
  }
  // One ulp at the factor's scale: g' sums terms of that scale, so a
  // minimiser near zero is fixed only to their rounding (one v_j of
  // 4.7e-5 here moves 13 of its own ulps, 2e-15 relative).
  const auto ulp_at_scale = [](const std::vector<double>& x) {
    double peak = 0.0;
    for (const double value : x) peak = std::max(peak, std::abs(value));
    return std::nextafter(peak, std::numeric_limits<double>::infinity()) -
           peak;
  };

  for (const simd::Level level : available_levels()) {
    SCOPED_TRACE(simd::level_name(level));
    simd::ScopedLevel lvl(level);
    // v_j against u over the columns of A, then u_i against v over
    // those of A^T.
    for (const bool v_sweep : {true, false}) {
      SCOPED_TRACE(v_sweep ? "v-sweep" : "u-sweep");
      const Matrix& b = v_sweep ? a : at;
      const Matrix& bt = v_sweep ? at : a;
      const std::vector<double>& c = v_sweep ? u : v;
      const std::vector<double>& start = v_sweep ? v_min : u_min;
      std::vector<double> refit(start.size());
      std::vector<int> evaluations(start.size(), 0);
      huber_fit_columns(b, bt, c, tau, start, refit, evaluations);
      const double ulp = ulp_at_scale(start);
      std::size_t slow = 0, far = 0, unlike_twin = 0;
      for (std::size_t k = 0; k < start.size(); ++k) {
        slow += evaluations[k] != 1;
        far += !(std::abs(refit[k] - start[k]) <= ulp);
        const std::vector<double> column(bt.row(k).begin(), bt.row(k).end());
        unlike_twin += !same_bits(
            refit[k], rpca::reference::huber_fit_1d(column, c, tau, start[k]));
      }
      EXPECT_EQ(slow, 0u);
      EXPECT_EQ(far, 0u);
      EXPECT_EQ(unlike_twin, 0u);
    }
  }
}

// A positive rank-1 window (every entry about 1 to 4, so no residual
// sits near zero by accident) with dense noise and a few outliers.
Matrix positive_rank1_window(std::size_t rows, std::size_t cols,
                             unsigned seed) {
  Rng rng(seed);
  std::vector<double> u(rows), v(cols);
  for (double& x : u) x = rng.uniform(1.0, 2.0);
  for (double& x : v) x = rng.uniform(1.0, 2.0);
  Matrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = u[i] * v[j] + 0.05 * rng.normal();
      if (rng.uniform(0.0, 1.0) < 0.05) a(i, j) += rng.uniform(-0.9, 3.0);
    }
  }
  return a;
}

// The vector fits' edges, against the reference twin at every level:
// column counts that are not multiples of 4 (so a last batch overlaps
// the one before it, and the Newton pass ends on scalar columns),
// 3- and 2-row windows whose u_i fits are too few for a batch, on both
// sweeps, and the chaos workload's 4 x 36. The 7 x 37 window has a zero row and a zero
// column, whose factors start at zero with zero slope: those lanes end
// before their first step. The 10 x 1023 case also scales the start's
// A - E by 10 in three columns, one of them in the overlapping last
// batch: every residual of those columns then lies beyond tau, the
// curvature is zero, and those lanes leave their batch for the
// kink-seeded bisection while the other lanes take Newton steps.
TEST(SimdSolve, HuberFitMatchesReferenceOnRaggedShapesAndKinkStarts) {
  struct Case {
    std::size_t rows, cols;
    bool zero_lines;
    std::vector<std::size_t> kink_columns;
  };
  const std::vector<Case> cases = {{7, 37, true, {}},
                                   {3, 37, false, {}},
                                   {4, 36, false, {}},
                                   {2, 37, false, {}},
                                   {10, 1023, false, {}},
                                   {10, 1023, false, {1, 6, 1021}}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.rows) + "x" + std::to_string(c.cols) +
                 (c.kink_columns.empty() ? "" : " with kink starts"));
    Matrix a = positive_rank1_window(c.rows, c.cols, 17);
    if (c.zero_lines) {
      for (std::size_t j = 0; j < c.cols; ++j) a(2, j) = 0.0;
      for (std::size_t i = 0; i < c.rows; ++i) a(i, 5) = 0.0;
    }
    const double lambda = 1.0 / std::sqrt(static_cast<double>(c.cols));
    rpca::Result start;
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      rpca::Options opts;
      opts.max_iterations = 40;
      opts.polish_iterations = 0;
      start = rpca::solve(a, opts);
    }
    if (c.zero_lines) {
      for (std::size_t j = 0; j < c.cols; ++j) start.sparse(2, j) = 0.0;
      for (std::size_t i = 0; i < c.rows; ++i) start.sparse(i, 5) = 0.0;
    }
    for (const std::size_t j : c.kink_columns) {
      for (std::size_t i = 0; i < c.rows; ++i) {
        start.sparse(i, j) = a(i, j) - 10.0 * (a(i, j) - start.sparse(i, j));
      }
    }
    if (!c.kink_columns.empty()) {
      // The precondition: the fit's start u v^T leaves every residual of
      // a kink column beyond tau, and some residual of its neighbour
      // inside it.
      simd::ScopedLevel lvl(simd::Level::Scalar);
      rpca::Result power = start;
      rpca::SolverWorkspace ws;
      rpca::rank1_huber_fit(a, power, lambda, /*max_sweeps=*/0,
                            /*polish_tolerance=*/1e-10, ws);
      const Matrix& start_d = power.low_rank;
      const double tau = lambda * l1_norm(a) / static_cast<double>(a.size());
      const auto beyond = [&](std::size_t j) {
        std::size_t count = 0;
        for (std::size_t i = 0; i < c.rows; ++i) {
          count += std::abs(a(i, j) - start_d(i, j)) > tau;
        }
        return count;
      };
      for (const std::size_t j : c.kink_columns) {
        EXPECT_EQ(beyond(j), c.rows) << "column " << j;
        EXPECT_LT(beyond(j + 1), c.rows) << "column " << j + 1;
      }
    }

    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      simd::ScopedLevel lvl(level);
      rpca::SolverWorkspace ws;
      rpca::Result fit = start;
      rpca::Result ref = start;
      const int sweeps =
          rpca::rank1_huber_fit(a, fit, lambda, rpca::kHuberFitSweeps,
                                kPolishTolerance, ws);
      EXPECT_EQ(sweeps, rpca::reference::rank1_huber_fit(
                            a, ref, lambda, rpca::kHuberFitSweeps,
                            kPolishTolerance));
      EXPECT_GT(sweeps, 0);
      EXPECT_TRUE(same_bits(fit.low_rank, ref.low_rank));
      EXPECT_TRUE(same_bits(fit.sparse, ref.sparse));
      EXPECT_TRUE(same_bits(fit.residual, ref.residual));
    }
  }
}

// The lane groups' edges, against the reference twin at every level:
// the fit itself and the polish it opens (rpca::polish, whose closing
// alternation starts from the fit's finishing pass). Fit counts 5 to 16
// take one pass with an overlapping last vector; 1025 fits run in pairs
// plus a lone, overlapping vector. In the 10 x 1025 window, kink columns
// 9 and 21 make one vector of a pair hand off while its sibling lands
// (9 in the first vector of pair 8/12, 21 in the second of pair 16/20),
// and 1022 sits in the lone vector; kink rows 1 and 7 make the u-sweep
// (vectors at rows 0, 4 and 6; row 7 is in two of them) hand off. The
// last window carries one +inf entry.
TEST(SimdSolve, HuberFitMatchesReferenceOnLaneGroupEdges) {
  struct Case {
    std::size_t rows, cols;
    std::vector<std::size_t> kink_columns, kink_rows;
    bool infinite_entry = false;
  };
  std::vector<Case> cases;
  for (std::size_t cols = 5; cols <= 16; ++cols) cases.push_back({10, cols, {}, {}});
  cases.push_back({10, 1025, {}, {}});
  cases.push_back({10, 1025, {9, 21, 1022}, {}});
  cases.push_back({10, 1025, {}, {1, 7}});
  cases.push_back({10, 37, {}, {}, true});
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.rows) + "x" + std::to_string(c.cols) +
                 (c.kink_columns.empty() ? "" : " with kink columns") +
                 (c.kink_rows.empty() ? "" : " with kink rows") +
                 (c.infinite_entry ? " with an infinite entry" : ""));
    Matrix a = positive_rank1_window(c.rows, c.cols, 23);
    const double lambda = 1.0 / std::sqrt(static_cast<double>(c.cols));
    rpca::Options opts;
    opts.max_iterations = 40;
    opts.polish_iterations = 300;
    rpca::Result start;
    {
      simd::ScopedLevel lvl(simd::Level::Scalar);
      rpca::Options solve_opts = opts;
      solve_opts.polish_iterations = 0;
      start = rpca::solve(a, solve_opts);
    }
    // Scale the start's A - E by 10 along a kink line: the fit's start
    // u v^T then leaves every residual of that line beyond tau.
    for (const std::size_t j : c.kink_columns) {
      for (std::size_t i = 0; i < c.rows; ++i) {
        start.sparse(i, j) = a(i, j) - 10.0 * (a(i, j) - start.sparse(i, j));
      }
    }
    for (const std::size_t i : c.kink_rows) {
      for (std::size_t j = 0; j < c.cols; ++j) {
        start.sparse(i, j) = a(i, j) - 10.0 * (a(i, j) - start.sparse(i, j));
      }
    }
    if (c.infinite_entry) a(3, 11) = std::numeric_limits<double>::infinity();
    if (!c.kink_columns.empty() || !c.kink_rows.empty()) {
      // The precondition: every residual of a kink line beyond tau, and
      // some residual of the next line inside it.
      simd::ScopedLevel lvl(simd::Level::Scalar);
      rpca::Result power = start;
      rpca::SolverWorkspace ws;
      rpca::rank1_huber_fit(a, power, lambda, /*max_sweeps=*/0,
                            /*polish_tolerance=*/1e-10, ws);
      const Matrix& start_d = power.low_rank;
      const double tau = lambda * l1_norm(a) / static_cast<double>(a.size());
      const auto beyond = [&](std::size_t i, std::size_t j) {
        return std::abs(a(i, j) - start_d(i, j)) > tau;
      };
      for (const std::size_t j : c.kink_columns) {
        std::size_t in_kink = 0, in_next = 0;
        for (std::size_t i = 0; i < c.rows; ++i) {
          in_kink += beyond(i, j);
          in_next += beyond(i, j + 1);
        }
        EXPECT_EQ(in_kink, c.rows) << "column " << j;
        EXPECT_LT(in_next, c.rows) << "column " << j + 1;
      }
      for (const std::size_t i : c.kink_rows) {
        std::size_t in_kink = 0, in_next = 0;
        for (std::size_t j = 0; j < c.cols; ++j) {
          in_kink += beyond(i, j);
          in_next += beyond(i + 1, j);
        }
        EXPECT_EQ(in_kink, c.cols) << "row " << i;
        EXPECT_LT(in_next, c.cols) << "row " << i + 1;
      }
    }

    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      simd::ScopedLevel lvl(level);
      rpca::SolverWorkspace ws;
      rpca::Result fit = start;
      rpca::Result ref = start;
      const int sweeps =
          rpca::rank1_huber_fit(a, fit, lambda, rpca::kHuberFitSweeps,
                                kPolishTolerance, ws);
      EXPECT_EQ(sweeps, rpca::reference::rank1_huber_fit(
                            a, ref, lambda, rpca::kHuberFitSweeps,
                            kPolishTolerance));
      EXPECT_GT(sweeps, 0);
      EXPECT_TRUE(same_bits(fit.low_rank, ref.low_rank));
      EXPECT_TRUE(same_bits(fit.sparse, ref.sparse));
      EXPECT_TRUE(same_bits(fit.residual, ref.residual));

      rpca::Result polished = start;
      rpca::Result ref_polished = start;
      rpca::polish(a, opts, /*huber_start=*/true, ws, polished);
      rpca::reference::polish(a, opts, /*huber_start=*/true, ref_polished);
      EXPECT_EQ(polished.polish_iterations, ref_polished.polish_iterations);
      EXPECT_EQ(polished.polish_converged, ref_polished.polish_converged);
      EXPECT_TRUE(same_bits(polished.low_rank, ref_polished.low_rank));
      EXPECT_TRUE(same_bits(polished.sparse, ref_polished.sparse));
      EXPECT_TRUE(same_bits(polished.residual, ref_polished.residual));
    }
  }
}

// The Newton pass and its Hessian against the reference twin's, bit for
// bit at every level, at a point the fit steps from (v fitted to u):
// the N = 32 shape, the chaos workload's 4 x 36, m = 2, column counts
// that are not multiples of 4 (a scalar tail after the vectors) and
// fewer than 4 columns (no vector at all). Column 1's v_j is scaled by
// 10 so every residual of that column lies beyond tau: its sum of
// q u_i^2 is 0, and the pass takes w_1 = 0.
TEST(SimdSolve, HuberNewtonPassMatchesReferenceAtEveryLevel) {
  struct Case {
    std::size_t rows, cols;
  };
  for (const Case c : {Case{10, 1024}, Case{4, 36}, Case{2, 37},
                       Case{10, 1023}, Case{10, 6}, Case{7, 5},
                       Case{3, 2}}) {
    SCOPED_TRACE(std::to_string(c.rows) + "x" + std::to_string(c.cols));
    const Matrix a = positive_rank1_window(c.rows, c.cols, 31);
    const double tau = l1_norm(a) / static_cast<double>(a.size()) /
                       std::sqrt(static_cast<double>(c.cols));
    Matrix at(c.cols, c.rows);
    for (std::size_t i = 0; i < c.rows; ++i) {
      for (std::size_t j = 0; j < c.cols; ++j) at(j, i) = a(i, j);
    }
    std::vector<double> u, v(c.cols);
    {
      // The power iteration's factors of A: the Huber fit from E = 0
      // with no sweeps leaves them in ws.rank1.
      simd::ScopedLevel lvl(simd::Level::Scalar);
      rpca::Result power;
      power.sparse.resize(c.rows, c.cols);
      power.sparse.fill(0.0);
      rpca::SolverWorkspace ws;
      rpca::rank1_huber_fit(a, power, /*lambda=*/1.0, /*max_sweeps=*/0,
                            /*polish_tolerance=*/1e-10, ws);
      u = ws.rank1.u;
      huber_fit_columns(a, at, u, tau, ws.rank1.v, v);
    }
    v[1] *= 10.0;
    for (std::size_t i = 0; i < c.rows; ++i) {
      ASSERT_GT(std::abs(a(i, 1) - u[i] * v[1]), tau) << "row " << i;
    }
    std::vector<double> ref_gradient;
    Matrix ref_hessian;
    const double ref_objective = rpca::reference::huber_newton_pass(
        a, u, v, tau, ref_gradient, ref_hessian);
    for (const simd::Level level : available_levels()) {
      SCOPED_TRACE(simd::level_name(level));
      simd::ScopedLevel lvl(level);
      std::vector<double> gradient(c.rows);
      Matrix lanes, hessian;
      const double objective =
          huber_newton_pass(a, u, v, tau, gradient, lanes);
      huber_newton_hessian(c.rows, c.cols, lanes, hessian);
      EXPECT_TRUE(same_bits(objective, ref_objective));
      for (std::size_t k = 0; k < c.rows; ++k) {
        EXPECT_TRUE(same_bits(gradient[k], ref_gradient[k])) << "entry " << k;
      }
      EXPECT_TRUE(same_bits(hessian, ref_hessian));
    }
  }
}

}  // namespace
}  // namespace netconst::linalg
