// The SIMD dispatch contract (linalg/simd.hpp): elementwise kernels are
// bit-identical at every level; reduction kernels are deterministic per
// level and agree with the scalar order to rounding. On machines whose
// best level is Scalar these tests degenerate to scalar-vs-scalar and
// pass trivially, so the suite is portable.
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/blas.hpp"
#include "linalg/fused.hpp"
#include "linalg/matrix.hpp"
#include "linalg/simd.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "support/rng.hpp"

namespace netconst::linalg {
namespace {

namespace simd = netconst::linalg::simd;

Matrix random_matrix(std::size_t rows, std::size_t cols, unsigned seed) {
  Rng rng(seed);
  Matrix a(rows, cols);
  for (auto& v : a.data()) v = rng.uniform(-2.0, 2.0);
  return a;
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

    run_both([&](Matrix& out) { sub_add_scaled(x, y, 0.25, z, out); });
    run_both([&](Matrix& out) { sub(x, y, out); });
    run_both([&](Matrix& out) { sub_sub(x, y, z, out); });
    run_both([&](Matrix& out) { soft_threshold_into(x, 0.4, out); });
    run_both([&](Matrix& out) {
      out = y;
      add_scaled(0.9, x, out);
    });
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
    scalar_result = rpca::solve(a, rpca::Solver::Apg, opts);
    const rpca::Result ref = rpca::reference::solve(a, rpca::Solver::Apg, opts);
    EXPECT_EQ(scalar_result.low_rank.max_abs_diff(ref.low_rank), 0.0);
    EXPECT_EQ(scalar_result.iterations, ref.iterations);
  }
  {
    simd::ScopedLevel lvl(simd::best_available_level());
    vector_result = rpca::solve(a, rpca::Solver::Apg, opts);
  }
  EXPECT_EQ(vector_result.converged, scalar_result.converged);
  EXPECT_EQ(vector_result.rank, scalar_result.rank);
  EXPECT_LT(vector_result.low_rank.max_abs_diff(scalar_result.low_rank),
            1e-6);
  EXPECT_LT(std::abs(vector_result.residual - scalar_result.residual), 1e-8);
}

}  // namespace
}  // namespace netconst::linalg
