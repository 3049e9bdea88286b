#include "linalg/blas.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/simd.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

#if defined(NETCONST_SIMD_X86)
#include <immintrin.h>
#elif defined(NETCONST_SIMD_NEON)
#include <arm_neon.h>
#endif

// SIMD policy (see linalg/simd.hpp): axpy / scaled_set / scale /
// weighted_row_sum are elementwise, so their vector bodies are
// bit-identical to the scalar loops at every level. dot (and the 4-wide
// dot block of outer_gram_into and multiply_into) is an ordered
// reduction: the vector body splits the accumulator across lanes and
// combines them left-to-right, which is deterministic for a fixed level
// but not the scalar association — it only runs when
// simd::active_level() is a vector level. Both the
// reference and workspace RPCA paths funnel through these same
// entry points, so they shift together and their mutual bit-equality
// holds at any level.

namespace netconst::linalg {
namespace {

bool use_vector_kernels() {
  return simd::active_level() != simd::Level::Scalar;
}

double dot_scalar(const double* x, const double* y, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

void dot4_scalar(const double* r1, const double* a0, const double* a1,
                 const double* a2, const double* a3, std::size_t n,
                 double out[4]) {
  double sa = 0.0, sb = 0.0, sc = 0.0, sd = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    const double x = r1[j];
    sa += x * a0[j];
    sb += x * a1[j];
    sc += x * a2[j];
    sd += x * a3[j];
  }
  out[0] = sa;
  out[1] = sb;
  out[2] = sc;
  out[3] = sd;
}

// y[j] = 0.0 + w_0 * r_0[j] + w_1 * r_1[j] + ... over the rows whose
// weight is nonzero, in ascending row order: the per-element sequence of
// a zero fill followed by one axpy per nonzero weight. Each strip of
// columns stays in registers across all rows instead of making one pass
// over y per row.
void weighted_row_sum_scalar(const double* w, std::size_t w_stride,
                             const double* rows, std::size_t row_stride,
                             std::size_t count, double* y, std::size_t lo,
                             std::size_t hi) {
  constexpr std::size_t kStrip = 8;
  std::size_t j = lo;
  for (; j + kStrip <= hi; j += kStrip) {
    double s[kStrip] = {};
    for (std::size_t k = 0; k < count; ++k) {
      const double wk = w[k * w_stride];
      if (wk == 0.0) continue;
      const double* r = rows + k * row_stride + j;
      for (std::size_t t = 0; t < kStrip; ++t) s[t] += wk * r[t];
    }
    for (std::size_t t = 0; t < kStrip; ++t) y[j + t] = s[t];
  }
  for (; j < hi; ++j) {
    double s = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      const double wk = w[k * w_stride];
      if (wk == 0.0) continue;
      s += wk * rows[k * row_stride + j];
    }
    y[j] = s;
  }
}

#if defined(NETCONST_SIMD_X86)
NETCONST_TARGET_AVX2 inline double avx2_lane_sum(__m256d v) {
  alignas(32) double l[4];
  _mm256_store_pd(l, v);
  return ((l[0] + l[1]) + l[2]) + l[3];
}

NETCONST_TARGET_AVX2 double dot_vec(const double* x, const double* y,
                                    std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
  }
  double s = avx2_lane_sum(acc);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

NETCONST_TARGET_AVX2 void dot4_vec(const double* r1, const double* a0,
                                   const double* a1, const double* a2,
                                   const double* a3, std::size_t n,
                                   double out[4]) {
  __m256d s0 = _mm256_setzero_pd();
  __m256d s1 = _mm256_setzero_pd();
  __m256d s2 = _mm256_setzero_pd();
  __m256d s3 = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d x = _mm256_loadu_pd(r1 + j);
    s0 = _mm256_add_pd(s0, _mm256_mul_pd(x, _mm256_loadu_pd(a0 + j)));
    s1 = _mm256_add_pd(s1, _mm256_mul_pd(x, _mm256_loadu_pd(a1 + j)));
    s2 = _mm256_add_pd(s2, _mm256_mul_pd(x, _mm256_loadu_pd(a2 + j)));
    s3 = _mm256_add_pd(s3, _mm256_mul_pd(x, _mm256_loadu_pd(a3 + j)));
  }
  double sa = avx2_lane_sum(s0);
  double sb = avx2_lane_sum(s1);
  double sc = avx2_lane_sum(s2);
  double sd = avx2_lane_sum(s3);
  for (; j < n; ++j) {
    const double x = r1[j];
    sa += x * a0[j];
    sb += x * a1[j];
    sc += x * a2[j];
    sd += x * a3[j];
  }
  out[0] = sa;
  out[1] = sb;
  out[2] = sc;
  out[3] = sd;
}

NETCONST_TARGET_AVX2 void axpy_vec(double alpha, const double* x, double* y,
                                   std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

NETCONST_TARGET_AVX2 void scaled_set_vec(double alpha, const double* x,
                                         double* y, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  const __m256d vz = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(vz, _mm256_mul_pd(va, _mm256_loadu_pd(x + i))));
  }
  for (; i < n; ++i) y[i] = 0.0 + alpha * x[i];
}

NETCONST_TARGET_AVX2 void weighted_row_sum_vec(
    const double* w, std::size_t w_stride, const double* rows,
    std::size_t row_stride, std::size_t count, double* y, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < count; ++k) {
      const double wk = w[k * w_stride];
      if (wk == 0.0) continue;
      const __m256d vw = _mm256_set1_pd(wk);
      const double* r = rows + k * row_stride + j;
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(vw, _mm256_loadu_pd(r)));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(vw, _mm256_loadu_pd(r + 4)));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(vw, _mm256_loadu_pd(r + 8)));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(vw, _mm256_loadu_pd(r + 12)));
    }
    _mm256_storeu_pd(y + j, s0);
    _mm256_storeu_pd(y + j + 4, s1);
    _mm256_storeu_pd(y + j + 8, s2);
    _mm256_storeu_pd(y + j + 12, s3);
  }
  for (; j + 4 <= n; j += 4) {
    __m256d s0 = _mm256_setzero_pd();
    for (std::size_t k = 0; k < count; ++k) {
      const double wk = w[k * w_stride];
      if (wk == 0.0) continue;
      s0 = _mm256_add_pd(
          s0, _mm256_mul_pd(_mm256_set1_pd(wk),
                            _mm256_loadu_pd(rows + k * row_stride + j)));
    }
    _mm256_storeu_pd(y + j, s0);
  }
  weighted_row_sum_scalar(w, w_stride, rows, row_stride, count, y, j, n);
}

NETCONST_TARGET_AVX2 void scale_vec(double alpha, double* x, std::size_t n) {
  const __m256d va = _mm256_set1_pd(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(va, _mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) x[i] *= alpha;
}
#elif defined(NETCONST_SIMD_NEON)
double dot_vec(const double* x, const double* y, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vaddq_f64(acc, vmulq_f64(vld1q_f64(x + i), vld1q_f64(y + i)));
  }
  double s = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) s += x[i] * y[i];
  return s;
}

void axpy_vec(double alpha, const double* x, double* y, std::size_t n) {
  const float64x2_t va = vdupq_n_f64(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i,
              vaddq_f64(vld1q_f64(y + i), vmulq_f64(va, vld1q_f64(x + i))));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}
#endif

void dot4(const double* r1, const double* a0, const double* a1,
          const double* a2, const double* a3, std::size_t n, double out[4]) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    dot4_vec(r1, a0, a1, a2, a3, n, out);
    return;
  }
#endif
  dot4_scalar(r1, a0, a1, a2, a3, n, out);
}

// Row-panel kernel: computes rows [r0, r1) of C = A * B using an ikj loop
// order that streams B rows sequentially (row-major friendly).
void gemm_rows(const Matrix& a, const Matrix& b, Matrix& c, std::size_t r0,
               std::size_t r1) {
  const std::size_t k_dim = a.cols();
  for (std::size_t i = r0; i < r1; ++i) {
    auto ci = c.row(i);
    for (std::size_t k = 0; k < k_dim; ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      axpy(aik, b.row(k), ci);
    }
  }
}

}  // namespace

Matrix multiply(const Matrix& a, const Matrix& b) {
  NETCONST_CHECK(a.cols() == b.rows(), "gemm inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  // Parallel over row panels; the per-row work is O(k*n), so a grain of 1
  // row is already coarse for the matrix sizes RPCA produces.
  parallel_for_chunked(
      0, a.rows(),
      [&](std::size_t lo, std::size_t hi) { gemm_rows(a, b, c, lo, hi); },
      /*grain=*/1);
  return c;
}

Matrix gram(const Matrix& a) {
  const std::size_t n = a.cols();
  Matrix g(n, n);
  // G(j1, j2) = sum_i a(i, j1) * a(i, j2); parallel over j1.
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t j1 = lo; j1 < hi; ++j1) {
          for (std::size_t j2 = j1; j2 < n; ++j2) {
            double s = 0.0;
            for (std::size_t i = 0; i < a.rows(); ++i) {
              s += a(i, j1) * a(i, j2);
            }
            g(j1, j2) = s;
            g(j2, j1) = s;
          }
        }
      },
      /*grain=*/1);
  return g;
}

Matrix outer_gram(const Matrix& a) {
  Matrix g;
  outer_gram_into(a, g);
  return g;
}

void outer_gram_into(const Matrix& a, Matrix& g) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  g.resize(m, m);  // every element is written below
  parallel_for_chunked(
      0, m,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i1 = lo; i1 < hi; ++i1) {
          const auto r1 = a.row(i1);
          // Four dots per pass over r1: the accumulators are independent
          // dependency chains (at scalar level each individual dot still
          // sums in index order, so every G entry is bit-identical to a
          // lone dot()), and r1 is loaded once instead of once per i2.
          std::size_t i2 = i1;
          for (; i2 + 4 <= m; i2 += 4) {
            double s4[4];
            dot4(r1.data(), a.row(i2).data(), a.row(i2 + 1).data(),
                 a.row(i2 + 2).data(), a.row(i2 + 3).data(), n, s4);
            g(i1, i2) = s4[0];
            g(i2, i1) = s4[0];
            g(i1, i2 + 1) = s4[1];
            g(i2 + 1, i1) = s4[1];
            g(i1, i2 + 2) = s4[2];
            g(i2 + 2, i1) = s4[2];
            g(i1, i2 + 3) = s4[3];
            g(i2 + 3, i1) = s4[3];
          }
          for (; i2 < m; ++i2) {
            const double s = dot(r1, a.row(i2));
            g(i1, i2) = s;
            g(i2, i1) = s;
          }
        }
      },
      /*grain=*/1);
}

std::vector<double> multiply(const Matrix& a, std::span<const double> x) {
  std::vector<double> y(a.rows(), 0.0);
  multiply_into(a, x, y);
  return y;
}

void multiply_into(const Matrix& a, std::span<const double> x,
                   std::span<double> y) {
  NETCONST_CHECK(a.cols() == x.size(), "gemv dimension mismatch");
  NETCONST_CHECK(a.rows() == y.size(), "gemv output size mismatch");
  const std::size_t m = a.rows();
#if defined(NETCONST_SIMD_NEON)
  const bool blocked = !use_vector_kernels();  // dot4 has no NEON body
#else
  const bool blocked = true;
#endif
  // Four rows per pass over x. Each row keeps its own accumulator with
  // dot()'s association at this level (products commute), so every y[i]
  // is bit-identical to dot(a.row(i), x).
  std::size_t i = 0;
  for (; blocked && i + 4 <= m; i += 4) {
    double s4[4];
    dot4(x.data(), a.row(i).data(), a.row(i + 1).data(), a.row(i + 2).data(),
         a.row(i + 3).data(), x.size(), s4);
    for (std::size_t k = 0; k < 4; ++k) y[i + k] = s4[k];
  }
  for (; i < m; ++i) y[i] = dot(a.row(i), x);
}

std::vector<double> multiply_transposed(const Matrix& a,
                                        std::span<const double> x) {
  std::vector<double> y(a.cols(), 0.0);
  multiply_transposed_into(a, x, y);
  return y;
}

void multiply_transposed_into(const Matrix& a, std::span<const double> x,
                              std::span<double> y) {
  NETCONST_CHECK(a.rows() == x.size(), "gemv^T dimension mismatch");
  NETCONST_CHECK(a.cols() == y.size(), "gemv^T output size mismatch");
  weighted_row_sum(x.data(), 1, a.data().data(), a.cols(), a.rows(), y);
}

void weighted_row_sum(const double* weights, std::size_t weight_stride,
                      const double* rows, std::size_t row_stride,
                      std::size_t count, std::span<double> y) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    weighted_row_sum_vec(weights, weight_stride, rows, row_stride, count,
                         y.data(), y.size());
    return;
  }
#endif
  weighted_row_sum_scalar(weights, weight_stride, rows, row_stride, count,
                          y.data(), 0, y.size());
}

double dot(std::span<const double> x, std::span<const double> y) {
  NETCONST_CHECK(x.size() == y.size(), "dot dimension mismatch");
#if defined(NETCONST_SIMD_X86) || defined(NETCONST_SIMD_NEON)
  if (use_vector_kernels()) return dot_vec(x.data(), y.data(), x.size());
#endif
  return dot_scalar(x.data(), y.data(), x.size());
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  NETCONST_CHECK(x.size() == y.size(), "axpy dimension mismatch");
#if defined(NETCONST_SIMD_X86) || defined(NETCONST_SIMD_NEON)
  if (use_vector_kernels()) {
    axpy_vec(alpha, x.data(), y.data(), x.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scaled_set(double alpha, std::span<const double> x, std::span<double> y) {
  NETCONST_CHECK(x.size() == y.size(), "scaled_set dimension mismatch");
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    scaled_set_vec(alpha, x.data(), y.data(), x.size());
    return;
  }
#endif
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = 0.0 + alpha * x[i];
}

void scale(double alpha, std::span<double> x) {
#if defined(NETCONST_SIMD_X86)
  if (use_vector_kernels()) {
    scale_vec(alpha, x.data(), x.size());
    return;
  }
#endif
  for (auto& v : x) v *= alpha;
}

}  // namespace netconst::linalg
