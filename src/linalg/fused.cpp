#include "linalg/fused.hpp"

#include <cmath>

#include "linalg/simd.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

#if defined(NETCONST_SIMD_X86)
#include <immintrin.h>
#elif defined(NETCONST_SIMD_NEON)
#include <arm_neon.h>
#endif

// Each kernel has a scalar range body (the original loop, unchanged —
// this is the bit-exact reference path) and, where the architecture
// supports it, an explicit vector range body selected per call through
// simd::active_level(). Vector bodies perform the identical IEEE
// mul/add sequence per element — separate multiply and add, no FMA
// (AVX2 target functions do not enable FMA; NEON bodies use
// vmulq/vaddq, never vmlaq) — so every elementwise kernel here is
// bit-identical at every level. The scalar side of that promise needs
// the compiler to leave `a*b + c` uncontracted, so this translation
// unit is built with -ffp-contract=off (see linalg/CMakeLists.txt);
// without it GCC/Clang emit fmadd by default on aarch64 and the scalar
// loops would diverge from the vector bodies. Of the reductions,
// iterate_change_norms lane-splits its accumulators under a vector
// level (see its comment); rank1_polish_pass and decomposition_sums add
// their lane terms one at a time in index order, so they stay
// bit-identical too.
//
// On x86-64 the vector bodies carry NETCONST_TARGET_AVX2 so the
// library still builds for baseline x86-64; dispatch only enters them
// after the cpuid check inside simd::active_level(). On aarch64 NEON
// is baseline, and only the hottest bodies (gradient_step,
// soft_threshold, the convergence norms) are written in intrinsics —
// the remaining elementwise loops are left to the auto-vectorizer,
// which already has NEON available.

namespace netconst::linalg {
namespace {

// Elementwise kernels are memory-bound; one chunk should cover enough
// elements to amortize the fork (same coarse-grain discipline as the
// row-panel kernels in blas.cpp, expressed in elements instead of rows).
constexpr std::size_t kElementGrain = 8192;

void check_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  NETCONST_CHECK(a.same_shape(b), what);
}

bool use_vector_kernels() {
  return simd::active_level() != simd::Level::Scalar;
}

// ---- soft threshold: o[i] = sign(v) * max(|v| - tau, 0) ----
//
// The vector form evaluates both shifted values and blends by the two
// compare masks. Requires tau >= 0 (asserted at both public entry
// points, soft_threshold_into and gradient_step):
// a negative tau would make v > tau and v < -tau overlap, and the AVX2
// or-of-masked-values blend would combine both shrunk values into
// bitwise garbage instead of taking the scalar chain's first branch.
// With tau >= 0 the masks are mutually exclusive and a NaN input fails
// both compares (ordered, non-signaling), so every lane — including the
// NaN-maps-to-zero case — matches the scalar if/else chain bitwise.

void soft_threshold_range_scalar(const double* s, double tau, double* o,
                                 std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double v = s[i];
    if (v > tau) {
      o[i] = v - tau;
    } else if (v < -tau) {
      o[i] = v + tau;
    } else {
      o[i] = 0.0;
    }
  }
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 inline __m256d avx2_soft_threshold(__m256d v,
                                                        __m256d vtau,
                                                        __m256d vntau) {
  const __m256d gt = _mm256_cmp_pd(v, vtau, _CMP_GT_OQ);
  const __m256d lt = _mm256_cmp_pd(v, vntau, _CMP_LT_OQ);
  const __m256d shrunk_pos = _mm256_and_pd(gt, _mm256_sub_pd(v, vtau));
  const __m256d shrunk_neg = _mm256_and_pd(lt, _mm256_add_pd(v, vtau));
  return _mm256_or_pd(shrunk_pos, shrunk_neg);
}

NETCONST_TARGET_AVX2 void soft_threshold_range_vec(const double* s,
                                                   double tau, double* o,
                                                   std::size_t lo,
                                                   std::size_t hi) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vntau = _mm256_set1_pd(-tau);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    _mm256_storeu_pd(
        o + i, avx2_soft_threshold(_mm256_loadu_pd(s + i), vtau, vntau));
  }
  soft_threshold_range_scalar(s, tau, o, i, hi);
}
#elif defined(NETCONST_SIMD_NEON)
inline float64x2_t neon_soft_threshold(float64x2_t v, float64x2_t vtau,
                                       float64x2_t vntau) {
  const uint64x2_t gt = vcgtq_f64(v, vtau);
  const uint64x2_t lt = vcltq_f64(v, vntau);
  return vbslq_f64(gt, vsubq_f64(v, vtau),
                   vbslq_f64(lt, vaddq_f64(v, vtau), vdupq_n_f64(0.0)));
}

void soft_threshold_range_vec(const double* s, double tau, double* o,
                              std::size_t lo, std::size_t hi) {
  const float64x2_t vtau = vdupq_n_f64(tau);
  const float64x2_t vntau = vdupq_n_f64(-tau);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    vst1q_f64(o + i, neon_soft_threshold(vld1q_f64(s + i), vtau, vntau));
  }
  soft_threshold_range_scalar(s, tau, o, i, hi);
}
#endif

void soft_threshold_range(const double* s, double tau, double* o,
                          std::size_t lo, std::size_t hi) {
#if defined(NETCONST_SIMD_X86) || defined(NETCONST_SIMD_NEON)
  if (use_vector_kernels()) {
    soft_threshold_range_vec(s, tau, o, lo, hi);
    return;
  }
#endif
  soft_threshold_range_scalar(s, tau, o, lo, hi);
}

// ---- gradient_step: the fused APG inner loop ----

void gradient_step_range_scalar(const double* ds, const double* dp,
                                const double* es, const double* ep,
                                const double* as, double c, double inv_lf,
                                double soft_tau, double* gds, double* ens,
                                std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double yd = ds[i] + (ds[i] - dp[i]) * c;
    const double ye = es[i] + (es[i] - ep[i]) * c;
    const double r = (yd + ye) - as[i];
    gds[i] = yd - r * inv_lf;
    const double ge = ye - r * inv_lf;
    if (ge > soft_tau) {
      ens[i] = ge - soft_tau;
    } else if (ge < -soft_tau) {
      ens[i] = ge + soft_tau;
    } else {
      ens[i] = 0.0;
    }
  }
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 void gradient_step_range_vec(
    const double* ds, const double* dp, const double* es, const double* ep,
    const double* as, double c, double inv_lf, double soft_tau, double* gds,
    double* ens, std::size_t lo, std::size_t hi) {
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vinv = _mm256_set1_pd(inv_lf);
  const __m256d vtau = _mm256_set1_pd(soft_tau);
  const __m256d vntau = _mm256_set1_pd(-soft_tau);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d vd = _mm256_loadu_pd(ds + i);
    const __m256d vdp = _mm256_loadu_pd(dp + i);
    const __m256d ve = _mm256_loadu_pd(es + i);
    const __m256d vep = _mm256_loadu_pd(ep + i);
    const __m256d va = _mm256_loadu_pd(as + i);
    const __m256d yd =
        _mm256_add_pd(vd, _mm256_mul_pd(_mm256_sub_pd(vd, vdp), vc));
    const __m256d ye =
        _mm256_add_pd(ve, _mm256_mul_pd(_mm256_sub_pd(ve, vep), vc));
    const __m256d r = _mm256_sub_pd(_mm256_add_pd(yd, ye), va);
    const __m256d rl = _mm256_mul_pd(r, vinv);
    _mm256_storeu_pd(gds + i, _mm256_sub_pd(yd, rl));
    const __m256d ge = _mm256_sub_pd(ye, rl);
    _mm256_storeu_pd(ens + i, avx2_soft_threshold(ge, vtau, vntau));
  }
  gradient_step_range_scalar(ds, dp, es, ep, as, c, inv_lf, soft_tau, gds,
                             ens, i, hi);
}
#elif defined(NETCONST_SIMD_NEON)
void gradient_step_range_vec(const double* ds, const double* dp,
                             const double* es, const double* ep,
                             const double* as, double c, double inv_lf,
                             double soft_tau, double* gds, double* ens,
                             std::size_t lo, std::size_t hi) {
  const float64x2_t vc = vdupq_n_f64(c);
  const float64x2_t vinv = vdupq_n_f64(inv_lf);
  const float64x2_t vtau = vdupq_n_f64(soft_tau);
  const float64x2_t vntau = vdupq_n_f64(-soft_tau);
  std::size_t i = lo;
  for (; i + 2 <= hi; i += 2) {
    const float64x2_t vd = vld1q_f64(ds + i);
    const float64x2_t vdp = vld1q_f64(dp + i);
    const float64x2_t ve = vld1q_f64(es + i);
    const float64x2_t vep = vld1q_f64(ep + i);
    const float64x2_t va = vld1q_f64(as + i);
    const float64x2_t yd =
        vaddq_f64(vd, vmulq_f64(vsubq_f64(vd, vdp), vc));
    const float64x2_t ye =
        vaddq_f64(ve, vmulq_f64(vsubq_f64(ve, vep), vc));
    const float64x2_t r = vsubq_f64(vaddq_f64(yd, ye), va);
    const float64x2_t rl = vmulq_f64(r, vinv);
    vst1q_f64(gds + i, vsubq_f64(yd, rl));
    vst1q_f64(ens + i, neon_soft_threshold(vsubq_f64(ye, rl), vtau, vntau));
  }
  gradient_step_range_scalar(ds, dp, es, ep, as, c, inv_lf, soft_tau, gds,
                             ens, i, hi);
}
#endif

void gradient_step_range(const double* ds, const double* dp, const double* es,
                         const double* ep, const double* as, double c,
                         double inv_lf, double soft_tau, double* gds,
                         double* ens, std::size_t lo, std::size_t hi) {
#if defined(NETCONST_SIMD_X86) || defined(NETCONST_SIMD_NEON)
  if (use_vector_kernels()) {
    gradient_step_range_vec(ds, dp, es, ep, as, c, inv_lf, soft_tau, gds, ens,
                            lo, hi);
    return;
  }
#endif
  gradient_step_range_scalar(ds, dp, es, ep, as, c, inv_lf, soft_tau, gds,
                             ens, lo, hi);
}

// ---- rank-1 polish pass ----
//
// Elements are visited in index order; the per-element terms are formed
// in vector lanes, but the two sums take them lane by lane, so every
// addition onto `change`/`scale` happens in the scalar loop's order.

struct PolishRow {
  const double* a;
  const double* d_prev;
  const double* e_prev;
  double* d;
  double* e;
  double* target;
};

void polish_row_scalar(const PolishRow& r, double ui, const double* v,
                       double tau, std::size_t lo, std::size_t hi,
                       double& change, double& scale) {
  for (std::size_t j = lo; j < hi; ++j) {
    const double dn = ui * v[j];
    const double x = r.a[j] - dn;
    double en;
    if (x > tau) {
      en = x - tau;
    } else if (x < -tau) {
      en = x + tau;
    } else {
      en = 0.0;
    }
    r.d[j] = dn;
    r.e[j] = en;
    r.target[j] = r.a[j] - en;
    const double dd = dn - r.d_prev[j];
    const double de = en - r.e_prev[j];
    change += dd * dd + de * de;
    scale += dn * dn + en * en;
  }
}

#if defined(NETCONST_SIMD_X86)
/// s += v[0]; s += v[1]; s += v[2]; s += v[3] — the scalar loop's
/// association for four consecutive elements' terms.
NETCONST_TARGET_AVX2 inline void add_lanes_in_order(double& s, __m256d v) {
  alignas(32) double l[4];
  _mm256_store_pd(l, v);
  s += l[0];
  s += l[1];
  s += l[2];
  s += l[3];
}

NETCONST_TARGET_AVX2 void polish_row_vec(const PolishRow& r, double ui,
                                         const double* v, double tau,
                                         std::size_t n, double& change,
                                         double& scale) {
  const __m256d vu = _mm256_set1_pd(ui);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vntau = _mm256_set1_pd(-tau);
  double ch = change, sc = scale;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d va = _mm256_loadu_pd(r.a + j);
    const __m256d dn = _mm256_mul_pd(vu, _mm256_loadu_pd(v + j));
    const __m256d en =
        avx2_soft_threshold(_mm256_sub_pd(va, dn), vtau, vntau);
    _mm256_storeu_pd(r.d + j, dn);
    _mm256_storeu_pd(r.e + j, en);
    _mm256_storeu_pd(r.target + j, _mm256_sub_pd(va, en));
    const __m256d dd = _mm256_sub_pd(dn, _mm256_loadu_pd(r.d_prev + j));
    const __m256d de = _mm256_sub_pd(en, _mm256_loadu_pd(r.e_prev + j));
    add_lanes_in_order(
        ch, _mm256_add_pd(_mm256_mul_pd(dd, dd), _mm256_mul_pd(de, de)));
    add_lanes_in_order(
        sc, _mm256_add_pd(_mm256_mul_pd(dn, dn), _mm256_mul_pd(en, en)));
  }
  polish_row_scalar(r, ui, v, tau, j, n, ch, sc);
  change = ch;
  scale = sc;
}
#endif

// ---- decomposition sums (the convergence probe's statistics) ----

void decomposition_sums_scalar(const double* a, const double* d,
                               const double* e, std::size_t lo,
                               std::size_t hi, double& residual_sq,
                               double& e_l1, std::size_t& e_nonzero) {
  for (std::size_t i = lo; i < hi; ++i) {
    const double r = (a[i] - d[i]) - e[i];
    residual_sq += r * r;
    e_l1 += std::abs(e[i]);
    if (std::abs(e[i]) > 0.0) ++e_nonzero;
  }
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 void decomposition_sums_vec(const double* a,
                                                 const double* d,
                                                 const double* e,
                                                 std::size_t n,
                                                 double& residual_sq,
                                                 double& e_l1,
                                                 std::size_t& e_nonzero) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d zero = _mm256_setzero_pd();
  double rs = 0.0, l1 = 0.0;
  std::size_t nz = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ve = _mm256_loadu_pd(e + i);
    const __m256d r = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(d + i)), ve);
    const __m256d abs_e = _mm256_andnot_pd(sign, ve);
    add_lanes_in_order(rs, _mm256_mul_pd(r, r));
    add_lanes_in_order(l1, abs_e);
    nz += static_cast<std::size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(abs_e, zero, _CMP_GT_OQ)))));
  }
  decomposition_sums_scalar(a, d, e, i, n, rs, l1, nz);
  residual_sq = rs;
  e_l1 = l1;
  e_nonzero = nz;
}
#endif

// ---- three-operand elementwise forms ----

enum class TriOp { SubAddScaled, SubSub };

template <TriOp Op>
void tri_range_scalar(const double* a, const double* b, const double* c,
                      double alpha, double* o, std::size_t lo,
                      std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) {
    if constexpr (Op == TriOp::SubAddScaled) {
      o[i] = (a[i] - b[i]) + c[i] * alpha;
    } else {
      o[i] = (a[i] - b[i]) - c[i];
    }
  }
}

#if defined(NETCONST_SIMD_X86)
template <TriOp Op>
NETCONST_TARGET_AVX2 void tri_range_vec(const double* a, const double* b,
                                        const double* c, double alpha,
                                        double* o, std::size_t lo,
                                        std::size_t hi) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    const __m256d va = _mm256_loadu_pd(a + i);
    const __m256d vb = _mm256_loadu_pd(b + i);
    const __m256d vcv = _mm256_loadu_pd(c + i);
    __m256d r;
    if constexpr (Op == TriOp::SubAddScaled) {
      r = _mm256_add_pd(_mm256_sub_pd(va, vb), _mm256_mul_pd(vcv, valpha));
    } else {
      r = _mm256_sub_pd(_mm256_sub_pd(va, vb), vcv);
    }
    _mm256_storeu_pd(o + i, r);
  }
  tri_range_scalar<Op>(a, b, c, alpha, o, i, hi);
}
#endif

template <TriOp Op>
void tri_range(const double* a, const double* b, const double* c,
               double alpha, double* o, std::size_t lo, std::size_t hi) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    tri_range_vec<Op>(a, b, c, alpha, o, lo, hi);
    return;
  }
#endif
  tri_range_scalar<Op>(a, b, c, alpha, o, lo, hi);
}

// ---- two-operand elementwise forms ----

void sub_range_scalar(const double* a, const double* b, double* o,
                      std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] - b[i];
}

void add_scaled_range_scalar(double alpha, const double* x, double* y,
                             std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) y[i] += x[i] * alpha;
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 void sub_range_vec(const double* a, const double* b,
                                        double* o, std::size_t lo,
                                        std::size_t hi) {
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    _mm256_storeu_pd(
        o + i, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  sub_range_scalar(a, b, o, i, hi);
}

NETCONST_TARGET_AVX2 void add_scaled_range_vec(double alpha, const double* x,
                                               double* y, std::size_t lo,
                                               std::size_t hi) {
  const __m256d valpha = _mm256_set1_pd(alpha);
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(_mm256_loadu_pd(x + i), valpha)));
  }
  add_scaled_range_scalar(alpha, x, y, i, hi);
}
#endif

void sub_range(const double* a, const double* b, double* o, std::size_t lo,
               std::size_t hi) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    sub_range_vec(a, b, o, lo, hi);
    return;
  }
#endif
  sub_range_scalar(a, b, o, lo, hi);
}

void add_scaled_range(double alpha, const double* x, double* y,
                      std::size_t lo, std::size_t hi) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    add_scaled_range_vec(alpha, x, y, lo, hi);
    return;
  }
#endif
  add_scaled_range_scalar(alpha, x, y, lo, hi);
}

// ---- convergence norms (sequential reduction) ----

void change_norms_scalar(const double* ds, const double* dp, const double* es,
                         const double* ep, std::size_t n, double& change,
                         double& scale) {
  double ch = 0.0, sc = 0.0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const double dd = ds[idx] - dp[idx];
    const double de = es[idx] - ep[idx];
    ch += dd * dd + de * de;
    sc += ds[idx] * ds[idx] + es[idx] * es[idx];
  }
  change = ch;
  scale = sc;
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 void change_norms_vec(const double* ds, const double* dp,
                                           const double* es, const double* ep,
                                           std::size_t n, double& change,
                                           double& scale) {
  __m256d vch = _mm256_setzero_pd();
  __m256d vsc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vd = _mm256_loadu_pd(ds + i);
    const __m256d vdp = _mm256_loadu_pd(dp + i);
    const __m256d ve = _mm256_loadu_pd(es + i);
    const __m256d vep = _mm256_loadu_pd(ep + i);
    const __m256d dd = _mm256_sub_pd(vd, vdp);
    const __m256d de = _mm256_sub_pd(ve, vep);
    vch = _mm256_add_pd(
        vch, _mm256_add_pd(_mm256_mul_pd(dd, dd), _mm256_mul_pd(de, de)));
    vsc = _mm256_add_pd(
        vsc, _mm256_add_pd(_mm256_mul_pd(vd, vd), _mm256_mul_pd(ve, ve)));
  }
  // Fixed left-to-right lane combine, then the tail in element order:
  // deterministic for this level, though not the scalar association.
  alignas(32) double lch[4], lsc[4];
  _mm256_store_pd(lch, vch);
  _mm256_store_pd(lsc, vsc);
  double ch = ((lch[0] + lch[1]) + lch[2]) + lch[3];
  double sc = ((lsc[0] + lsc[1]) + lsc[2]) + lsc[3];
  for (; i < n; ++i) {
    const double dd = ds[i] - dp[i];
    const double de = es[i] - ep[i];
    ch += dd * dd + de * de;
    sc += ds[i] * ds[i] + es[i] * es[i];
  }
  change = ch;
  scale = sc;
}
#elif defined(NETCONST_SIMD_NEON)
void change_norms_vec(const double* ds, const double* dp, const double* es,
                      const double* ep, std::size_t n, double& change,
                      double& scale) {
  float64x2_t vch = vdupq_n_f64(0.0);
  float64x2_t vsc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t vd = vld1q_f64(ds + i);
    const float64x2_t vdp = vld1q_f64(dp + i);
    const float64x2_t ve = vld1q_f64(es + i);
    const float64x2_t vep = vld1q_f64(ep + i);
    const float64x2_t dd = vsubq_f64(vd, vdp);
    const float64x2_t de = vsubq_f64(ve, vep);
    vch = vaddq_f64(vch, vaddq_f64(vmulq_f64(dd, dd), vmulq_f64(de, de)));
    vsc = vaddq_f64(vsc, vaddq_f64(vmulq_f64(vd, vd), vmulq_f64(ve, ve)));
  }
  double ch = vgetq_lane_f64(vch, 0) + vgetq_lane_f64(vch, 1);
  double sc = vgetq_lane_f64(vsc, 0) + vgetq_lane_f64(vsc, 1);
  for (; i < n; ++i) {
    const double dd = ds[i] - dp[i];
    const double de = es[i] - ep[i];
    ch += dd * dd + de * de;
    sc += ds[i] * ds[i] + es[i] * es[i];
  }
  change = ch;
  scale = sc;
}
#endif

}  // namespace

void gradient_step(const Matrix& d, const Matrix& d_prev, const Matrix& e,
                   const Matrix& e_prev, const Matrix& a, double c,
                   double inv_lf, double soft_tau, Matrix& gd,
                   Matrix& e_next) {
  check_same_shape(d, d_prev, "gradient_step shape mismatch");
  check_same_shape(d, e, "gradient_step shape mismatch");
  check_same_shape(e, e_prev, "gradient_step shape mismatch");
  check_same_shape(d, a, "gradient_step shape mismatch");
  NETCONST_CHECK(soft_tau >= 0.0, "soft threshold must be non-negative");
  gd.resize(d.rows(), d.cols());
  e_next.resize(d.rows(), d.cols());
  const auto ds = d.data();
  const auto dp = d_prev.data();
  const auto es = e.data();
  const auto ep = e_prev.data();
  const auto as = a.data();
  const auto gds = gd.data();
  const auto ens = e_next.data();
  parallel_for_chunked(
      0, ds.size(),
      [&](std::size_t lo, std::size_t hi) {
        gradient_step_range(ds.data(), dp.data(), es.data(), ep.data(),
                            as.data(), c, inv_lf, soft_tau, gds.data(),
                            ens.data(), lo, hi);
      },
      kElementGrain);
}

void sub_add_scaled(const Matrix& a, const Matrix& b, double alpha,
                    const Matrix& c, Matrix& out) {
  check_same_shape(a, b, "sub_add_scaled shape mismatch");
  check_same_shape(a, c, "sub_add_scaled shape mismatch");
  out.resize(a.rows(), a.cols());
  const auto as = a.data();
  const auto bs = b.data();
  const auto cs = c.data();
  const auto os = out.data();
  parallel_for_chunked(
      0, as.size(),
      [&](std::size_t lo, std::size_t hi) {
        tri_range<TriOp::SubAddScaled>(as.data(), bs.data(), cs.data(), alpha,
                                       os.data(), lo, hi);
      },
      kElementGrain);
}

void sub(const Matrix& a, const Matrix& b, Matrix& out) {
  check_same_shape(a, b, "sub shape mismatch");
  out.resize(a.rows(), a.cols());
  const auto as = a.data();
  const auto bs = b.data();
  const auto os = out.data();
  parallel_for_chunked(
      0, as.size(),
      [&](std::size_t lo, std::size_t hi) {
        sub_range(as.data(), bs.data(), os.data(), lo, hi);
      },
      kElementGrain);
}

void sub_sub(const Matrix& a, const Matrix& b, const Matrix& c,
             Matrix& out) {
  check_same_shape(a, b, "sub_sub shape mismatch");
  check_same_shape(a, c, "sub_sub shape mismatch");
  out.resize(a.rows(), a.cols());
  const auto as = a.data();
  const auto bs = b.data();
  const auto cs = c.data();
  const auto os = out.data();
  parallel_for_chunked(
      0, as.size(),
      [&](std::size_t lo, std::size_t hi) {
        tri_range<TriOp::SubSub>(as.data(), bs.data(), cs.data(), 0.0,
                                 os.data(), lo, hi);
      },
      kElementGrain);
}

void add_scaled(double alpha, const Matrix& x, Matrix& y) {
  check_same_shape(x, y, "add_scaled shape mismatch");
  const auto xs = x.data();
  const auto ys = y.data();
  parallel_for_chunked(
      0, xs.size(),
      [&](std::size_t lo, std::size_t hi) {
        add_scaled_range(alpha, xs.data(), ys.data(), lo, hi);
      },
      kElementGrain);
}

void soft_threshold_into(const Matrix& src, double tau, Matrix& out) {
  NETCONST_CHECK(tau >= 0.0, "soft threshold must be non-negative");
  out.resize(src.rows(), src.cols());
  const auto ss = src.data();
  const auto os = out.data();
  parallel_for_chunked(
      0, ss.size(),
      [&](std::size_t lo, std::size_t hi) {
        soft_threshold_range(ss.data(), tau, os.data(), lo, hi);
      },
      kElementGrain);
}

void rank1_polish_pass(const Matrix& a, std::span<const double> u,
                       std::span<const double> v, double tau,
                       const Matrix& d_prev, const Matrix& e_prev, Matrix& d,
                       Matrix& e, Matrix& target, double& change_sq,
                       double& scale_sq) {
  check_same_shape(a, d_prev, "rank1_polish_pass shape mismatch");
  check_same_shape(a, e_prev, "rank1_polish_pass shape mismatch");
  NETCONST_CHECK(u.size() == a.rows() && v.size() == a.cols(),
                 "rank1_polish_pass factor size mismatch");
  NETCONST_CHECK(tau >= 0.0, "soft threshold must be non-negative");
  const std::size_t n = a.cols();
  d.resize(a.rows(), n);
  e.resize(a.rows(), n);
  target.resize(a.rows(), n);
  double change = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t off = i * n;
    const PolishRow row{a.data().data() + off,      d_prev.data().data() + off,
                        e_prev.data().data() + off, d.data().data() + off,
                        e.data().data() + off,      target.data().data() + off};
#if defined(NETCONST_SIMD_X86)
    if (use_vector_kernels()) {
      polish_row_vec(row, u[i], v.data(), tau, n, change, scale);
      continue;
    }
#endif
    polish_row_scalar(row, u[i], v.data(), tau, 0, n, change, scale);
  }
  change_sq = change;
  scale_sq = scale;
}

void decomposition_sums(const Matrix& a, const Matrix& d, const Matrix& e,
                        double& residual_sq, double& e_l1,
                        std::size_t& e_nonzero) {
  check_same_shape(a, d, "decomposition_sums shape mismatch");
  check_same_shape(a, e, "decomposition_sums shape mismatch");
  const double* as = a.data().data();
  const double* ds = d.data().data();
  const double* es = e.data().data();
  const std::size_t n = a.data().size();
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    decomposition_sums_vec(as, ds, es, n, residual_sq, e_l1, e_nonzero);
    return;
  }
#endif
  residual_sq = 0.0;
  e_l1 = 0.0;
  e_nonzero = 0;
  decomposition_sums_scalar(as, ds, es, 0, n, residual_sq, e_l1, e_nonzero);
}

void iterate_change_norms(const Matrix& d, const Matrix& d_prev,
                          const Matrix& e, const Matrix& e_prev,
                          double& change_sq, double& scale_sq) {
  check_same_shape(d, d_prev, "iterate_change_norms shape mismatch");
  check_same_shape(d, e, "iterate_change_norms shape mismatch");
  check_same_shape(e, e_prev, "iterate_change_norms shape mismatch");
  const auto ds = d.data();
  const auto dp = d_prev.data();
  const auto es = e.data();
  const auto ep = e_prev.data();
#if defined(NETCONST_SIMD_X86) || defined(NETCONST_SIMD_NEON)
  if (use_vector_kernels()) {
    change_norms_vec(ds.data(), dp.data(), es.data(), ep.data(), ds.size(),
                     change_sq, scale_sq);
    return;
  }
#endif
  change_norms_scalar(ds.data(), dp.data(), es.data(), ep.data(), ds.size(),
                      change_sq, scale_sq);
}

}  // namespace netconst::linalg
