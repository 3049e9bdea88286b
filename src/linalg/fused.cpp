#include "linalg/fused.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

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
// level (see its comment); rank1_polish_pass adds its lane terms one
// at a time in index order, so it stays bit-identical too.
// huber_fit_columns puts independent fits, not elements, in the lanes:
// each lane is one scalar fit, step for step. huber_newton_pass and
// huber_newton_hessian add into four fixed column lanes at every level,
// the scalar code included, so they are bit-identical too.
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
// in vector lanes, but the three sums take them lane by lane, so every
// addition onto `change`/`scale`/`residual` happens in the scalar loop's
// order. Each body loads an element's previous iterates before it
// stores the element, so d and e may be d_prev and e_prev. kSums = false
// is the Huber fit's finishing pass: the same d, e and target without
// the previous iterates or the sums.

struct PolishRow {
  const double* a;
  const double* d_prev;
  const double* e_prev;
  double* d;
  double* e;
  double* target;
};

struct PolishSums {
  double change = 0.0;
  double scale = 0.0;
  double residual = 0.0;
};

template <bool kSums>
void polish_row_scalar(const PolishRow& r, double ui, const double* v,
                       double tau, std::size_t lo, std::size_t hi,
                       PolishSums& sums) {
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
    if constexpr (kSums) {
      const double dd = dn - r.d_prev[j];
      const double de = en - r.e_prev[j];
      const double res = x - en;  // (a - d) - e
      sums.change += dd * dd + de * de;
      sums.scale += dn * dn + en * en;
      sums.residual += res * res;
    }
    r.d[j] = dn;
    r.e[j] = en;
    r.target[j] = r.a[j] - en;
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

template <bool kSums>
NETCONST_TARGET_AVX2 void polish_row_vec(const PolishRow& r, double ui,
                                         const double* v, double tau,
                                         std::size_t n, PolishSums& sums) {
  const __m256d vu = _mm256_set1_pd(ui);
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vntau = _mm256_set1_pd(-tau);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d va = _mm256_loadu_pd(r.a + j);
    const __m256d dn = _mm256_mul_pd(vu, _mm256_loadu_pd(v + j));
    const __m256d x = _mm256_sub_pd(va, dn);
    const __m256d en = avx2_soft_threshold(x, vtau, vntau);
    if constexpr (kSums) {
      const __m256d dd = _mm256_sub_pd(dn, _mm256_loadu_pd(r.d_prev + j));
      const __m256d de = _mm256_sub_pd(en, _mm256_loadu_pd(r.e_prev + j));
      const __m256d res = _mm256_sub_pd(x, en);
      add_lanes_in_order(
          sums.change,
          _mm256_add_pd(_mm256_mul_pd(dd, dd), _mm256_mul_pd(de, de)));
      add_lanes_in_order(
          sums.scale,
          _mm256_add_pd(_mm256_mul_pd(dn, dn), _mm256_mul_pd(en, en)));
      add_lanes_in_order(sums.residual, _mm256_mul_pd(res, res));
    }
    _mm256_storeu_pd(r.d + j, dn);
    _mm256_storeu_pd(r.e + j, en);
    _mm256_storeu_pd(r.target + j, _mm256_sub_pd(va, en));
  }
  polish_row_scalar<kSums>(r, ui, v, tau, j, n, sums);
}
#endif

/// Every row of the pass; d_prev / e_prev are read only when kSums.
template <bool kSums>
PolishSums polish_rows(const Matrix& a, std::span<const double> u,
                       std::span<const double> v, double tau,
                       const Matrix* d_prev, const Matrix* e_prev, Matrix& d,
                       Matrix& e, Matrix& target) {
  NETCONST_CHECK(u.size() == a.rows() && v.size() == a.cols(),
                 "rank-1 pass factor size mismatch");
  NETCONST_CHECK(tau >= 0.0, "soft threshold must be non-negative");
  const std::size_t n = a.cols();
  d.resize(a.rows(), n);
  e.resize(a.rows(), n);
  target.resize(a.rows(), n);
  PolishSums sums;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const std::size_t off = i * n;
    PolishRow row{a.data().data() + off, nullptr,
                  nullptr,               d.data().data() + off,
                  e.data().data() + off, target.data().data() + off};
    if constexpr (kSums) {
      row.d_prev = d_prev->data().data() + off;
      row.e_prev = e_prev->data().data() + off;
    }
#if defined(NETCONST_SIMD_X86)
    if (use_vector_kernels()) {
      polish_row_vec<kSums>(row, u[i], v.data(), tau, n, sums);
      continue;
    }
#endif
    polish_row_scalar<kSums>(row, u[i], v.data(), tau, 0, n, sums);
  }
  return sums;
}

// ---- rank-1 Huber fit: 1-D fits ----
//
// g(x) = sum_t h_tau(b[t] - c[t] x) is convex and piecewise quadratic;
// each fit finds its minimiser. The scalar body below is the fit; the
// AVX2 body runs groups of them in lockstep, one fit per lane with the
// same operations, and hands any fit that leaves the Newton path back
// to it.

constexpr int kHuberMaxEvaluations = 200;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Which piece of h_tau the residual r is on: +1 / -1 on the linear
/// parts, 0 on the quadratic one.
int huber_piece(double r, double tau) {
  return static_cast<int>(r > tau) - static_cast<int>(r < -tau);
}

/// Writes g'(x) and g''(x) (on x's piece). Branch-free: the pieces of a
/// noisy window are a coin toss per term. Clamping r to [-tau, tau]
/// gives the linear parts' -c tau and +c tau bit for bit, and adding
/// 0.0 (c^2 times 0) to the non-negative curvature changes nothing.
void huber_slope(const double* b, const double* c, std::size_t count,
                 double tau, double x, double& slope, double& curvature) {
  double g = 0.0, h = 0.0;
  for (std::size_t t = 0; t < count; ++t) {
    const double r = b[t] - c[t] * x;
    g -= c[t] * std::min(std::max(r, -tau), tau);
    h += c[t] * c[t] * static_cast<double>(huber_piece(r, tau) == 0);
  }
  slope = g;
  curvature = h;
}

/// Whether every term of g sits on the same piece at x and at `from`.
bool same_pieces(const double* b, const double* c, std::size_t count,
                 double tau, double x, double from) {
  for (std::size_t t = 0; t < count; ++t) {
    if (huber_piece(b[t] - c[t] * x, tau) !=
        huber_piece(b[t] - c[t] * from, tau)) {
      return false;
    }
  }
  return true;
}

/// A fit at the top of its loop: the iterate, its sign bracket, g' and
/// g'' at the iterate, and the evaluations spent after the first.
struct HuberFitState {
  double x = 0.0;
  double lo = -kInf;
  double hi = kInf;
  double slope = 0.0;
  double curvature = 0.0;
  int evaluations = 0;
};

/// Runs a fit from `s` to its end; writes the g' evaluations it took in
/// all to *evaluations when that is not null. g' is nondecreasing and
/// piecewise linear, so a Newton step that stays on the piece it was
/// computed on lands on g' = 0 and ends the fit, and a Newton step that
/// rounds to its own start ends it at the start (x is the minimiser to
/// rounding: a fit started at its own minimiser takes one evaluation).
/// Every evaluation tightens the sign bracket, and a step that is not a
/// Newton step into that bracket bisects it (seeded from the outermost
/// kinks, outside which g' is -tau sum|c| and +tau sum|c|).
double huber_fit_resume(const double* b, const double* c, std::size_t count,
                        double tau, HuberFitState s, int* evaluations) {
  double x = s.x, lo = s.lo, hi = s.hi;
  double slope = s.slope, curvature = s.curvature;
  int e = s.evaluations;
  const auto done = [&](double at) {
    if (evaluations != nullptr) *evaluations = e + 1;
    return at;
  };
  for (; e < kHuberMaxEvaluations && slope != 0.0; ++e) {
    (slope > 0.0 ? hi : lo) = x;
    double next = curvature > 0.0 ? x - slope / curvature : x;
    if (curvature > 0.0 && next == x) return done(x);  // stuck
    const bool newton = curvature > 0.0 && next > lo && next < hi;
    if (newton && same_pieces(b, c, count, tau, next, x)) return done(next);
    if (!newton) {
      if (lo == -kInf || hi == kInf) {
        double kink_lo = kInf, kink_hi = -kInf;
        for (std::size_t t = 0; t < count; ++t) {
          if (c[t] == 0.0) continue;
          const double k1 = (b[t] - tau) / c[t];
          const double k2 = (b[t] + tau) / c[t];
          kink_lo = std::min({kink_lo, k1, k2});
          kink_hi = std::max({kink_hi, k1, k2});
        }
        lo = std::max(lo, kink_lo);
        hi = std::min(hi, kink_hi);
      }
      next = 0.5 * lo + 0.5 * hi;
      if (!(next > lo && next < hi)) break;  // bracket is two neighbours
    }
    x = next;
    huber_slope(b, c, count, tau, x, slope, curvature);
  }
  return done(x);
}

/// Exact minimiser of g from `x`.
double huber_fit_1d(const double* b, const double* c, std::size_t count,
                    double tau, double x, int* evaluations) {
  HuberFitState s;
  s.x = x;
  huber_slope(b, c, count, tau, x, s.slope, s.curvature);
  return huber_fit_resume(b, c, count, tau, s, evaluations);
}

#if defined(NETCONST_SIMD_X86)
// A lane group is V vectors of four fits each, vector w's lane l being
// the fit of column k[w] + l of b (row stride ld). Every pass over the
// terms advances all V vectors, so the per-term work of V fits is in
// flight at once instead of one latency-bound vector at a time.

/// huber_slope for a lane group: the scalar per-term sequence, with
/// min(tau, max(-tau, r)) in the operand order that makes a NaN r pass
/// through as std::max/std::min let it, and c[t]^2 formed once per term
/// for every vector. A lane is on a linear piece iff its clamped
/// residual differs from r (cmp_neq_oq): that is !(r > tau) && !(r <
/// -tau) negated for every r, NaN (clamp(NaN) is NaN, and an ordered
/// compare with a NaN is false), infinities and signed zeros included.
template <int V>
NETCONST_TARGET_AVX2 void huber_slope_lanes(
    const double* b, std::size_t ld, const std::size_t* k, const double* c,
    std::size_t count, __m256d vtau, __m256d vntau, const __m256d* x,
    __m256d* slope, __m256d* curvature) {
  const __m256d one = _mm256_set1_pd(1.0);
  __m256d g[V], h[V];
  for (int w = 0; w < V; ++w) g[w] = h[w] = _mm256_setzero_pd();
  for (std::size_t t = 0; t < count; ++t) {
    const double* row = b + t * ld;
    const __m256d ct = _mm256_broadcast_sd(c + t);
    const __m256d c2 = _mm256_mul_pd(ct, ct);
    for (int w = 0; w < V; ++w) {
      const __m256d r =
          _mm256_sub_pd(_mm256_loadu_pd(row + k[w]), _mm256_mul_pd(ct, x[w]));
      const __m256d clamped = _mm256_min_pd(vtau, _mm256_max_pd(vntau, r));
      g[w] = _mm256_sub_pd(g[w], _mm256_mul_pd(ct, clamped));
      const __m256d linear = _mm256_cmp_pd(clamped, r, _CMP_NEQ_OQ);
      h[w] = _mm256_add_pd(h[w],
                           _mm256_mul_pd(c2, _mm256_andnot_pd(linear, one)));
    }
  }
  for (int w = 0; w < V; ++w) {
    slope[w] = g[w];
    curvature[w] = h[w];
  }
}

/// same_pieces for a lane group: same[w] gets the lanes of lanes[w]
/// whose terms all sit on the same piece at x[w] and at from[w]. Stops
/// early, checked every 8 terms, once every lane asked about has seen a
/// change.
template <int V>
NETCONST_TARGET_AVX2 void same_pieces_lanes(
    const double* b, std::size_t ld, const std::size_t* k, const double* c,
    std::size_t count, __m256d vtau, __m256d vntau, const __m256d* x,
    const __m256d* from, const int* lanes, int* same) {
  __m256d changed[V];
  for (int w = 0; w < V; ++w) changed[w] = _mm256_setzero_pd();
  for (std::size_t t0 = 0; t0 < count; t0 += 8) {
    const std::size_t t1 = std::min(count, t0 + 8);
    for (std::size_t t = t0; t < t1; ++t) {
      const double* row = b + t * ld;
      const __m256d ct = _mm256_broadcast_sd(c + t);
      for (int w = 0; w < V; ++w) {
        const __m256d bt = _mm256_loadu_pd(row + k[w]);
        const __m256d r = _mm256_sub_pd(bt, _mm256_mul_pd(ct, x[w]));
        const __m256d r0 = _mm256_sub_pd(bt, _mm256_mul_pd(ct, from[w]));
        changed[w] = _mm256_or_pd(
            changed[w],
            _mm256_or_pd(_mm256_xor_pd(_mm256_cmp_pd(r, vtau, _CMP_GT_OQ),
                                       _mm256_cmp_pd(r0, vtau, _CMP_GT_OQ)),
                         _mm256_xor_pd(_mm256_cmp_pd(r, vntau, _CMP_LT_OQ),
                                       _mm256_cmp_pd(r0, vntau, _CMP_LT_OQ))));
      }
    }
    bool all_changed = true;
    for (int w = 0; w < V; ++w) {
      all_changed = all_changed &&
                    (_mm256_movemask_pd(changed[w]) & lanes[w]) == lanes[w];
    }
    if (all_changed) {
      for (int w = 0; w < V; ++w) same[w] = 0;
      return;
    }
  }
  for (int w = 0; w < V; ++w) {
    same[w] = lanes[w] & ~_mm256_movemask_pd(changed[w]);
  }
}

/// out[l] = lane l of x for every lane l in `lanes`, and evaluations[l]
/// = `taken` for each of them when `evaluations` is not null.
NETCONST_TARGET_AVX2 inline void store_lanes(double* out, __m256d x,
                                             int lanes, int* evaluations,
                                             int taken) {
  if (lanes == 0) return;
  if (evaluations != nullptr) {
    for (int i = 0; i < 4; ++i) {
      if ((lanes >> i) & 1) evaluations[i] = taken;
    }
  }
  if (lanes == 0xF) return _mm256_storeu_pd(out, x);
  alignas(32) double l[4];
  _mm256_store_pd(l, x);
  for (int i = 0; i < 4; ++i) {
    if ((lanes >> i) & 1) out[i] = l[i];
  }
}

/// The lanes of one vector (columns k0 ..) that leave the Newton path at
/// the top of evaluation e finish in huber_fit_resume on their rows of
/// bt, each from its exact state.
NETCONST_TARGET_AVX2 void hand_off(const Matrix& bt, std::size_t k0,
                                   const double* c, std::size_t count,
                                   double tau, int lanes, int e, __m256d x,
                                   __m256d lo, __m256d hi, __m256d slope,
                                   __m256d curvature, double* out,
                                   int* evaluations) {
  alignas(32) double s_x[4], s_lo[4], s_hi[4], s_slope[4], s_curv[4];
  _mm256_store_pd(s_x, x);
  _mm256_store_pd(s_lo, lo);
  _mm256_store_pd(s_hi, hi);
  _mm256_store_pd(s_slope, slope);
  _mm256_store_pd(s_curv, curvature);
  for (int l = 0; l < 4; ++l) {
    if (((lanes >> l) & 1) == 0) continue;
    const HuberFitState s{s_x[l], s_lo[l], s_hi[l], s_slope[l], s_curv[l], e};
    out[k0 + l] =
        huber_fit_resume(bt.row(k0 + l).data(), c, count, tau, s,
                         evaluations == nullptr ? nullptr
                                                : evaluations + k0 + l);
  }
}

/// The fits of a lane group in lockstep: huber_fit_resume's loop, one
/// lane per fit. A lane leaves the group when its own fit ends (its g'
/// is zero, its Newton step is stuck at its start or lands on its
/// piece); a lane whose step is not a Newton step into its bracket
/// finishes in the scalar code (hand_off) from the state it had at the
/// top of that iteration. The whole group's vector arithmetic runs
/// every evaluation; only lanes still active write or hand off.
template <int V>
NETCONST_TARGET_AVX2 void huber_fit_lanes(const double* b, std::size_t ld,
                                          const Matrix& bt,
                                          const std::size_t* k,
                                          const double* c, std::size_t count,
                                          double tau, const double* x0,
                                          double* out, int* evaluations) {
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vntau = _mm256_set1_pd(-tau);
  const __m256d zero = _mm256_setzero_pd();
  __m256d x[V], lo[V], hi[V], slope[V], curvature[V];
  __m256d next[V], new_lo[V], new_hi[V];
  int active[V];  // per vector, the lanes whose fit is still running
  for (int w = 0; w < V; ++w) {
    x[w] = _mm256_loadu_pd(x0 + k[w]);
    lo[w] = _mm256_set1_pd(-kInf);
    hi[w] = _mm256_set1_pd(kInf);
    active[w] = 0xF;
  }
  huber_slope_lanes<V>(b, ld, k, c, count, vtau, vntau, x, slope, curvature);
  // A lane's count of evaluations, for `evaluations`.
  const auto counts = [evaluations, k](int w) {
    return evaluations == nullptr ? nullptr : evaluations + k[w];
  };
  int e = 0;
  for (; e < kHuberMaxEvaluations; ++e) {
    int running = 0;
    for (int w = 0; w < V; ++w) {
      const int settled =
          active[w] &
          _mm256_movemask_pd(_mm256_cmp_pd(slope[w], zero, _CMP_EQ_OQ));
      store_lanes(out + k[w], x[w], settled, counts(w), e + 1);
      active[w] &= ~settled;
      const __m256d up = _mm256_cmp_pd(slope[w], zero, _CMP_GT_OQ);
      new_hi[w] = _mm256_blendv_pd(hi[w], x[w], up);
      new_lo[w] = _mm256_blendv_pd(x[w], lo[w], up);
      const __m256d curved = _mm256_cmp_pd(curvature[w], zero, _CMP_GT_OQ);
      next[w] = _mm256_blendv_pd(
          x[w], _mm256_sub_pd(x[w], _mm256_div_pd(slope[w], curvature[w])),
          curved);
      const int stuck =
          active[w] &
          _mm256_movemask_pd(_mm256_and_pd(
              curved, _mm256_cmp_pd(next[w], x[w], _CMP_EQ_OQ)));
      store_lanes(out + k[w], x[w], stuck, counts(w), e + 1);
      active[w] &= ~stuck;
      const int newton =
          active[w] &
          _mm256_movemask_pd(_mm256_and_pd(
              curved,
              _mm256_and_pd(_mm256_cmp_pd(next[w], new_lo[w], _CMP_GT_OQ),
                            _mm256_cmp_pd(next[w], new_hi[w], _CMP_LT_OQ))));
      if (const int handoff = active[w] & ~newton) {
        hand_off(bt, k[w], c, count, tau, handoff, e, x[w], lo[w], hi[w],
                 slope[w], curvature[w], out, evaluations);
      }
      active[w] = newton;
      running |= newton;
    }
    if (running == 0) return;
    int landed[V];
    same_pieces_lanes<V>(b, ld, k, c, count, vtau, vntau, next, x, active,
                         landed);
    running = 0;
    for (int w = 0; w < V; ++w) {
      store_lanes(out + k[w], next[w], landed[w], counts(w), e + 1);
      active[w] &= ~landed[w];
      running |= active[w];
      hi[w] = new_hi[w];
      lo[w] = new_lo[w];
      x[w] = next[w];
    }
    if (running == 0) return;
    huber_slope_lanes<V>(b, ld, k, c, count, vtau, vntau, x, slope,
                         curvature);
  }
  for (int w = 0; w < V; ++w) {
    store_lanes(out + k[w], x[w], active[w], counts(w), e + 1);
  }
}

/// Every fit of b in lane groups. The vectors start at columns 0, 4,
/// 8, ... and, when the count is not a multiple of 4, at fits - 4,
/// overlapping the vector before it: a lane depends only on its own
/// column, so the overlapped columns are refitted to the same bits. A
/// sweep of at most kSinglePassVectors vectors runs as one group; a
/// longer one runs in pairs, the last vector alone when their number is
/// odd. Requires fits >= 4.
constexpr std::size_t kSinglePassVectors = 4;

void huber_fit_groups(const double* b, const Matrix& bt, const double* c,
                      std::size_t count, double tau, const double* x,
                      double* next, int* evaluations) {
  const std::size_t fits = bt.rows();
  const std::size_t vectors = (fits + 3) / 4;
  const auto start = [fits](std::size_t i) {
    return std::min(4 * i, fits - 4);
  };
  std::size_t k[kSinglePassVectors];
  if (vectors <= kSinglePassVectors) {
    for (std::size_t i = 0; i < vectors; ++i) k[i] = start(i);
    switch (vectors) {
      case 1:
        return huber_fit_lanes<1>(b, fits, bt, k, c, count, tau, x, next,
                                  evaluations);
      case 2:
        return huber_fit_lanes<2>(b, fits, bt, k, c, count, tau, x, next,
                                  evaluations);
      case 3:
        return huber_fit_lanes<3>(b, fits, bt, k, c, count, tau, x, next,
                                  evaluations);
      default:
        return huber_fit_lanes<4>(b, fits, bt, k, c, count, tau, x, next,
                                  evaluations);
    }
  }
  std::size_t i = 0;
  for (; i + 2 <= vectors; i += 2) {
    k[0] = start(i);
    k[1] = start(i + 1);
    huber_fit_lanes<2>(b, fits, bt, k, c, count, tau, x, next, evaluations);
  }
  if (i < vectors) {
    k[0] = start(i);
    huber_fit_lanes<1>(b, fits, bt, k, c, count, tau, x, next, evaluations);
  }
}
#endif

// ---- rank-1 Huber fit: Newton pass ----
//
// Two passes. The first walks the columns, four to a vector under AVX2:
// it adds the objective, gradient and diagonal terms into their column
// lanes and leaves each column's b_j (row i of `b` holds b_ij) and w_j.
// The second streams the rows of b, adding (b_kj w_j) b_ij into lane
// j mod 4 of the (k, i) entry in column order, with a group of entries
// held in registers. The accumulators sit at the front of `lanes`, four
// doubles (the column lanes) per quantity: the objective, the
// gradient's and the diagonal's m entries, then the packed lower
// triangle of sum_j w_j b_j b_j^T.

struct NewtonLanes {
  double* objective;
  double* gradient;
  double* diagonal;
  double* outer;  // (k, i), i <= k, at 4 (k (k + 1) / 2 + i)
  double* w;      // w_j
  double* b;      // b_ij at i * cols + j
};

/// The pass's layout in `lanes`. The pass (`reset`) sizes it and zeroes
/// the accumulators; the Hessian reads what the pass left.
NewtonLanes newton_lanes(Matrix& lanes, std::size_t m, std::size_t n,
                         bool reset) {
  const std::size_t accumulators = 4 * (1 + 2 * m + m * (m + 1) / 2);
  if (reset) {
    lanes.resize(1, accumulators + (m + 1) * n);
    std::fill_n(lanes.data().data(), accumulators, 0.0);
  }
  NETCONST_CHECK(lanes.size() == accumulators + (m + 1) * n,
                 "huber_newton_hessian needs the pass's lanes");
  double* base = lanes.data().data();
  double* outer = base + 4 * (1 + 2 * m);
  double* w = base + accumulators;
  return {base, base + 4, base + 4 * (1 + m), outer, w, w + n};
}

/// Column j's objective, gradient and diagonal terms into lane j mod 4;
/// leaves b_ij and w_j.
void newton_column_scalar(const double* a, std::size_t n, const double* u,
                          std::size_t m, const double* v, std::size_t j,
                          double tau, const NewtonLanes& acc) {
  const std::size_t l = j & 3;
  const double vj = v[j];
  const double vv = vj * vj;
  double c = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double p = u[i] * vj;
    const double r = a[i * n + j] - p;
    const double psi = std::min(std::max(r, -tau), tau);
    const double q = static_cast<double>(huber_piece(r, tau) == 0);
    acc.objective[l] += psi * (r - 0.5 * psi);
    acc.gradient[4 * i + l] -= psi * vj;
    acc.diagonal[4 * i + l] += q * vv;
    c += q * (u[i] * u[i]);
    acc.b[i * n + j] = q * p - psi;
  }
  acc.w[j] = c > 0.0 ? 1.0 / c : 0.0;
}

/// Columns [j0, n) of the (k, i) entries i0 .. i0 + count - 1, one
/// column at a time into lane j mod 4.
void newton_outer_scalar(const NewtonLanes& acc, std::size_t n,
                         std::size_t k, std::size_t i0, std::size_t count,
                         std::size_t j0) {
  const double* bk = acc.b + k * n;
  double* outer = acc.outer + 4 * (k * (k + 1) / 2 + i0);
  for (std::size_t c = 0; c < count; ++c) {
    const double* bi = acc.b + (i0 + c) * n;
    for (std::size_t j = j0; j < n; ++j) {
      outer[4 * c + (j & 3)] += (bk[j] * acc.w[j]) * bi[j];
    }
  }
}

#if defined(NETCONST_SIMD_X86)
/// Columns j .. j + 3, one per lane: newton_column_scalar's operations.
NETCONST_TARGET_AVX2 void newton_columns_vec(const double* a, std::size_t n,
                                             const double* u, std::size_t m,
                                             const double* v, std::size_t j,
                                             double tau,
                                             const NewtonLanes& acc) {
  // Local copies: the vector stores may alias anything, `acc` included.
  double* const gradient = acc.gradient;
  double* const diagonal = acc.diagonal;
  double* const b = acc.b + j;
  const __m256d vtau = _mm256_set1_pd(tau);
  const __m256d vntau = _mm256_set1_pd(-tau);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vj = _mm256_loadu_pd(v + j);
  const __m256d vv = _mm256_mul_pd(vj, vj);
  __m256d objective = _mm256_loadu_pd(acc.objective);
  __m256d c = zero;
  for (std::size_t i = 0; i < m; ++i) {
    const __m256d ui = _mm256_broadcast_sd(u + i);
    const __m256d p = _mm256_mul_pd(ui, vj);
    const __m256d r = _mm256_sub_pd(_mm256_loadu_pd(a + i * n + j), p);
    const __m256d psi = _mm256_min_pd(vtau, _mm256_max_pd(vntau, r));
    const __m256d q =
        _mm256_andnot_pd(_mm256_cmp_pd(psi, r, _CMP_NEQ_OQ), one);
    objective = _mm256_add_pd(
        objective,
        _mm256_mul_pd(psi, _mm256_sub_pd(r, _mm256_mul_pd(half, psi))));
    double* g = gradient + 4 * i;
    _mm256_storeu_pd(
        g, _mm256_sub_pd(_mm256_loadu_pd(g), _mm256_mul_pd(psi, vj)));
    double* d = diagonal + 4 * i;
    _mm256_storeu_pd(
        d, _mm256_add_pd(_mm256_loadu_pd(d), _mm256_mul_pd(q, vv)));
    c = _mm256_add_pd(c, _mm256_mul_pd(q, _mm256_mul_pd(ui, ui)));
    _mm256_storeu_pd(b + i * n, _mm256_sub_pd(_mm256_mul_pd(q, p), psi));
  }
  _mm256_storeu_pd(acc.objective, objective);
  _mm256_storeu_pd(acc.w + j,
                   _mm256_blendv_pd(zero, _mm256_div_pd(one, c),
                                    _mm256_cmp_pd(c, zero, _CMP_GT_OQ)));
}

/// newton_outer_scalar over the columns [0, blocks * 4) with the C
/// entries' four lanes in registers.
template <int C>
NETCONST_TARGET_AVX2 void newton_outer_vec(const NewtonLanes& acc,
                                           std::size_t n, std::size_t k,
                                           std::size_t i0,
                                           std::size_t blocks) {
  const double* bk = acc.b + k * n;
  const double* bi = acc.b + i0 * n;
  double* outer = acc.outer + 4 * (k * (k + 1) / 2 + i0);
  __m256d sum[C];
  for (int c = 0; c < C; ++c) sum[c] = _mm256_loadu_pd(outer + 4 * c);
  for (std::size_t j = 0; j < 4 * blocks; j += 4) {
    const __m256d t =
        _mm256_mul_pd(_mm256_loadu_pd(bk + j), _mm256_loadu_pd(acc.w + j));
    for (int c = 0; c < C; ++c) {
      sum[c] = _mm256_add_pd(
          sum[c], _mm256_mul_pd(t, _mm256_loadu_pd(bi + c * n + j)));
    }
  }
  for (int c = 0; c < C; ++c) _mm256_storeu_pd(outer + 4 * c, sum[c]);
}

/// The (k, i) entries i0 .. i0 + count - 1 (count <= 8) over the first
/// `blocks` column groups.
NETCONST_TARGET_AVX2 void newton_outer_group(const NewtonLanes& acc,
                                             std::size_t n, std::size_t k,
                                             std::size_t i0,
                                             std::size_t count,
                                             std::size_t blocks) {
  switch (count) {
    case 1: return newton_outer_vec<1>(acc, n, k, i0, blocks);
    case 2: return newton_outer_vec<2>(acc, n, k, i0, blocks);
    case 3: return newton_outer_vec<3>(acc, n, k, i0, blocks);
    case 4: return newton_outer_vec<4>(acc, n, k, i0, blocks);
    case 5: return newton_outer_vec<5>(acc, n, k, i0, blocks);
    case 6: return newton_outer_vec<6>(acc, n, k, i0, blocks);
    case 7: return newton_outer_vec<7>(acc, n, k, i0, blocks);
    default: return newton_outer_vec<8>(acc, n, k, i0, blocks);
  }
}
#endif

/// Entries of one row of the triangle held in registers at once.
constexpr std::size_t kOuterGroup = 8;

/// ((x[0] + x[1]) + x[2]) + x[3].
double add_column_lanes(const double* x) {
  return ((x[0] + x[1]) + x[2]) + x[3];
}

// ---- elementwise differences ----

void sub_range_scalar(const double* a, const double* b, double* o,
                      std::size_t lo, std::size_t hi) {
  for (std::size_t i = lo; i < hi; ++i) o[i] = a[i] - b[i];
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
                       double& scale_sq, double& residual_sq) {
  check_same_shape(a, d_prev, "rank1_polish_pass shape mismatch");
  check_same_shape(a, e_prev, "rank1_polish_pass shape mismatch");
  const PolishSums sums =
      polish_rows<true>(a, u, v, tau, &d_prev, &e_prev, d, e, target);
  change_sq = sums.change;
  scale_sq = sums.scale;
  residual_sq = sums.residual;
}

void rank1_finish_pass(const Matrix& a, std::span<const double> u,
                       std::span<const double> v, double tau, Matrix& d,
                       Matrix& e, Matrix& target) {
  polish_rows<false>(a, u, v, tau, nullptr, nullptr, d, e, target);
}

void huber_fit_columns(const Matrix& b, const Matrix& bt,
                       std::span<const double> c, double tau,
                       std::span<const double> x, std::span<double> next,
                       std::span<int> evaluations) {
  const std::size_t count = b.rows();
  const std::size_t fits = b.cols();
  NETCONST_CHECK(bt.rows() == fits && bt.cols() == count,
                 "huber_fit_columns: bt is not the transpose of b");
  NETCONST_CHECK(c.size() == count && x.size() == fits &&
                     next.size() == fits,
                 "huber_fit_columns size mismatch");
  NETCONST_CHECK(tau >= 0.0, "Huber threshold must be non-negative");
  NETCONST_CHECK(evaluations.empty() || evaluations.size() == fits,
                 "huber_fit_columns: one evaluation count per fit");
  int* counts = evaluations.empty() ? nullptr : evaluations.data();
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels() && fits >= 4) {
    huber_fit_groups(b.data().data(), bt, c.data(), count, tau, x.data(),
                     next.data(), counts);
    return;
  }
#endif
  for (std::size_t k = 0; k < fits; ++k) {
    next[k] = huber_fit_1d(bt.row(k).data(), c.data(), count, tau, x[k],
                           counts == nullptr ? nullptr : counts + k);
  }
}

double huber_newton_pass(const Matrix& a, std::span<const double> u,
                         std::span<const double> v, double tau,
                         std::span<double> gradient, Matrix& lanes) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  NETCONST_CHECK(u.size() == m && v.size() == n && gradient.size() == m,
                 "huber_newton_pass size mismatch");
  NETCONST_CHECK(tau >= 0.0, "Huber threshold must be non-negative");
  const NewtonLanes acc = newton_lanes(lanes, m, n, true);
  const double* as = a.data().data();
  std::size_t j = 0;
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    for (; j + 4 <= n; j += 4) {
      newton_columns_vec(as, n, u.data(), m, v.data(), j, tau, acc);
    }
  }
#endif
  for (; j < n; ++j) {
    newton_column_scalar(as, n, u.data(), m, v.data(), j, tau, acc);
  }
  for (std::size_t k = 0; k < m; ++k) {
    gradient[k] = add_column_lanes(acc.gradient + 4 * k);
  }
  return add_column_lanes(acc.objective);
}

void huber_newton_hessian(std::size_t rows, std::size_t cols, Matrix& lanes,
                          Matrix& hessian) {
  const std::size_t m = rows;
  const std::size_t n = cols;
  const NewtonLanes acc = newton_lanes(lanes, m, n, false);
  // Columns [0, vector_end) go four to a vector, the rest one at a time.
  std::size_t vector_end = 0;
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) vector_end = n - n % 4;
#endif
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i0 = 0; i0 <= k; i0 += kOuterGroup) {
      const std::size_t count = std::min(kOuterGroup, k + 1 - i0);
#if defined(NETCONST_SIMD_X86)
      if (vector_end > 0) {
        newton_outer_group(acc, n, k, i0, count, vector_end / 4);
      }
#endif
      newton_outer_scalar(acc, n, k, i0, count, vector_end);
    }
  }
  hessian.resize(m, m);
  const double* outer = acc.outer;
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < k; ++i, outer += 4) {
      hessian(k, i) = hessian(i, k) = -add_column_lanes(outer);
    }
    hessian(k, k) = add_column_lanes(acc.diagonal + 4 * k) -
                    add_column_lanes(outer);
    outer += 4;
  }
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
