#include "linalg/shrinkage.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/blas.hpp"
#include "linalg/simd.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

#if defined(NETCONST_SIMD_X86)
#include <immintrin.h>
#endif

namespace netconst::linalg {

namespace {

// True when singular_value_threshold_into takes the allocation-free
// Gram fast path for this shape (mirror of svd()'s Auto resolution,
// plus rows <= cols).
bool gram_fast_path_applies(const Matrix& a, const SvdOptions& options) {
  if (a.empty()) return false;  // let the general path report the error
  SvdMethod method = options.method;
  if (method == SvdMethod::Auto) {
    const std::size_t small = std::min(a.rows(), a.cols());
    const std::size_t large = std::max(a.rows(), a.cols());
    method = (small <= 64 && large >= 4 * small) ? SvdMethod::Gram
                                                 : SvdMethod::OneSidedJacobi;
  }
  return method == SvdMethod::Gram && a.rows() <= a.cols();
}

// Auto method resolution never takes the Gram route above this many
// rows; a larger row count only appears when the caller forces
// SvdMethod::Gram.
constexpr std::size_t kMaxInterleavedRows = 64;
// Column-tile width of the fused panel/reconstruction pass below: small
// enough that one tile's right-vector slice plus its output block stay
// in L1 across the whole pass.
constexpr std::size_t kJTile = 64;

using TileWeights = double[kMaxInterleavedRows][kMaxInterleavedRows];

/// Output rows [0, m) of one column tile: out(i, j) = 0.0 + sum over the
/// kept ranks t, ascending, of w[t][i] * vtile[t][j], skipping zero
/// weights (a row with none is +0.0). weighted_row_sum keeps each output
/// strip in registers across the ranks; per element it is the fill-then-
/// axpy order of gram_svd + reconstruct, at every SIMD level.
void reconstruct_tile(const TileWeights& w, const double* vtile,
                      std::size_t nk, Matrix& out, std::size_t m,
                      std::size_t jb, std::size_t je) {
  for (std::size_t i = 0; i < m; ++i) {
    weighted_row_sum(&w[0][i], kMaxInterleavedRows, vtile, kJTile, nk,
                     out.row(i).subspan(jb, je - jb));
  }
}

/// One fused column tile of the scratch SVT tail, with the surviving
/// rank as a compile-time constant (the scalar and NEON levels; AVX2
/// runs gram_svt_tile_vec below). The compile-time bound lets the
/// accumulator arrays live in registers across the row loop (a runtime
/// bound forces them through memory, which costs more than the
/// multiplies at paper shapes) and processes two columns per strip so
/// the paired loads and multiply-adds vectorize. Each column's dot
/// still sums in ascending-i order, each division is the same lone
/// divide, and the output accumulates kept terms in ascending index
/// order — bit-identical to the one-column-at-a-time form.
template <std::size_t NK>
void gram_svt_tile(const Matrix& a, const Matrix& up, const double* sigma_kept,
                   const TileWeights& w, Matrix& out, std::size_t m,
                   std::size_t jb, std::size_t je) {
  double vtile[NK][kJTile];
  std::size_t j = jb;
  for (; j + 1 < je; j += 2) {
    double acc[NK][2];
    for (std::size_t t = 0; t < NK; ++t) acc[t][0] = acc[t][1] = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const auto ai = a.row(i);
      const auto ui = up.row(i);
      const double x0 = ai[j];
      const double x1 = ai[j + 1];
      for (std::size_t t = 0; t < NK; ++t) {
        acc[t][0] += x0 * ui[t];
        acc[t][1] += x1 * ui[t];
      }
    }
    for (std::size_t t = 0; t < NK; ++t) {
      acc[t][0] /= sigma_kept[t];
      acc[t][1] /= sigma_kept[t];
    }
    for (std::size_t t = 0; t < NK; ++t) {
      vtile[t][j - jb] = acc[t][0];
      vtile[t][j - jb + 1] = acc[t][1];
    }
  }
  if (j < je) {
    double acc[NK];
    for (std::size_t t = 0; t < NK; ++t) acc[t] = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double aij = a.row(i)[j];
      const auto ui = up.row(i);
      for (std::size_t t = 0; t < NK; ++t) acc[t] += aij * ui[t];
    }
    for (std::size_t t = 0; t < NK; ++t) {
      vtile[t][j - jb] = acc[t] / sigma_kept[t];
    }
  }
  reconstruct_tile(w, vtile[0], NK, out, m, jb, je);
}

/// Runtime-rank variant of gram_svt_tile for ranks past the unroll
/// cutoff: identical structure and operation order, accumulators in a
/// fixed-capacity buffer.
void gram_svt_tile_any(const Matrix& a, const Matrix& up,
                       const double* sigma_kept, const TileWeights& w,
                       Matrix& out, std::size_t m, std::size_t nk,
                       std::size_t jb, std::size_t je) {
  double vtile[kMaxInterleavedRows][kJTile];
  double acc[kMaxInterleavedRows];
  for (std::size_t j = jb; j < je; ++j) {
    for (std::size_t t = 0; t < nk; ++t) acc[t] = 0.0;
    const std::span<double> accs(acc, nk);
    for (std::size_t i = 0; i < m; ++i) {
      // Each acc[t] is its own ascending-i chain, so the accumulation
      // is elementwise across t — axpy's SIMD path stays bit-exact.
      axpy(a.row(i)[j], up.row(i).first(nk), accs);
    }
    for (std::size_t t = 0; t < nk; ++t) acc[t] /= sigma_kept[t];
    for (std::size_t t = 0; t < nk; ++t) vtile[t][j - jb] = acc[t];
  }
  reconstruct_tile(w, vtile[0], nk, out, m, jb, je);
}

#if defined(NETCONST_SIMD_X86)
/// AVX2 form of the tile pass for any kept rank: each vector lane is one
/// column, so every right-vector entry is still its own ascending-i sum
/// of a(i, j) * up(i, t) followed by one division, exactly as in the
/// scalar tiles above — bit-identical to them. Strips of eight columns
/// take four ranks at a time, eight independent accumulator chains.
NETCONST_TARGET_AVX2 void gram_svt_tile_vec(const Matrix& a, const Matrix& up,
                                            const double* sigma_kept,
                                            const TileWeights& w, Matrix& out,
                                            std::size_t m, std::size_t nk,
                                            std::size_t jb, std::size_t je) {
  double vtile[kMaxInterleavedRows][kJTile];
  const std::size_t lda = a.cols();
  const std::size_t ldu = up.cols();
  const double* ad = a.data().data();
  const double* ud = up.data().data();
  std::size_t j = jb;
  for (; j + 8 <= je; j += 8) {
    std::size_t t = 0;
    for (; t + 4 <= nk; t += 4) {
      __m256d s[4][2];
      for (auto& q : s) q[0] = q[1] = _mm256_setzero_pd();
      for (std::size_t i = 0; i < m; ++i) {
        const __m256d x0 = _mm256_loadu_pd(ad + i * lda + j);
        const __m256d x1 = _mm256_loadu_pd(ad + i * lda + j + 4);
        const double* ui = ud + i * ldu + t;
        for (std::size_t q = 0; q < 4; ++q) {
          const __m256d b = _mm256_set1_pd(ui[q]);
          s[q][0] = _mm256_add_pd(s[q][0], _mm256_mul_pd(x0, b));
          s[q][1] = _mm256_add_pd(s[q][1], _mm256_mul_pd(x1, b));
        }
      }
      for (std::size_t q = 0; q < 4; ++q) {
        const __m256d sig = _mm256_set1_pd(sigma_kept[t + q]);
        _mm256_storeu_pd(&vtile[t + q][j - jb], _mm256_div_pd(s[q][0], sig));
        _mm256_storeu_pd(&vtile[t + q][j - jb + 4],
                         _mm256_div_pd(s[q][1], sig));
      }
    }
    for (; t < nk; ++t) {
      __m256d s0 = _mm256_setzero_pd();
      __m256d s1 = _mm256_setzero_pd();
      for (std::size_t i = 0; i < m; ++i) {
        const __m256d b = _mm256_set1_pd(ud[i * ldu + t]);
        s0 = _mm256_add_pd(
            s0, _mm256_mul_pd(_mm256_loadu_pd(ad + i * lda + j), b));
        s1 = _mm256_add_pd(
            s1, _mm256_mul_pd(_mm256_loadu_pd(ad + i * lda + j + 4), b));
      }
      const __m256d sig = _mm256_set1_pd(sigma_kept[t]);
      _mm256_storeu_pd(&vtile[t][j - jb], _mm256_div_pd(s0, sig));
      _mm256_storeu_pd(&vtile[t][j - jb + 4], _mm256_div_pd(s1, sig));
    }
  }
  for (; j < je; ++j) {
    for (std::size_t t = 0; t < nk; ++t) {
      double acc = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        acc += ad[i * lda + j] * ud[i * ldu + t];
      }
      vtile[t][j - jb] = acc / sigma_kept[t];
    }
  }
  reconstruct_tile(w, vtile[0], nk, out, m, jb, je);
}
#endif

using GramSvtTileFn = void (*)(const Matrix&, const Matrix&, const double*,
                               const TileWeights&, Matrix&, std::size_t,
                               std::size_t, std::size_t);

/// Resolve the unrolled tile pass for a surviving rank (nullptr past the
/// cutoff; callers fall back to gram_svt_tile_any).
GramSvtTileFn gram_svt_tile_for(std::size_t nk) {
  switch (nk) {
    case 1: return &gram_svt_tile<1>;
    case 2: return &gram_svt_tile<2>;
    case 3: return &gram_svt_tile<3>;
    case 4: return &gram_svt_tile<4>;
    case 5: return &gram_svt_tile<5>;
    case 6: return &gram_svt_tile<6>;
    case 7: return &gram_svt_tile<7>;
    case 8: return &gram_svt_tile<8>;
    case 9: return &gram_svt_tile<9>;
    case 10: return &gram_svt_tile<10>;
    case 11: return &gram_svt_tile<11>;
    case 12: return &gram_svt_tile<12>;
    default: return nullptr;
  }
}

/// Shared tail of the scratch SVT/low-rank paths: given the shrunk
/// spectrum in scratch.shrunk, form the surviving right-vector columns
/// v_k = A^T u_k / sigma_k and accumulate out = U diag(shrunk) V^T with
/// the exact per-element operation order of gram_svd + reconstruct.
void gram_reconstruct_shrunk(const Matrix& a, GramSvtScratch& scratch,
                             Matrix& out) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const Matrix& u = scratch.eig.eigenvectors;
  const std::vector<double>& sigma = scratch.singular_values;
  const std::vector<double>& shrunk = scratch.shrunk;

  // Right vectors only for columns the shrinkage kept; the skipped
  // columns are exactly the ones the reconstruction never reads. The
  // panel is stored transposed (row k = v_k, m x n) so both the writes
  // here and the reads in the reconstruction below stream sequentially —
  // the j-indexed layout made the reconstruction fetch one double per
  // cache line, which dominated the whole SVT at full rank.
  out.resize(m, n);
  if (m > kMaxInterleavedRows) {
    // Forced-Gram shapes beyond the Auto cutoff: materialize the full
    // right-vector panel, then plain fill-and-accumulate (no fixed-size
    // term arrays).
    Matrix& vt = scratch.v;
    vt.resize(m, n);
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t j = lo; j < hi; ++j) {
            for (std::size_t k = 0; k < m; ++k) {
              if (shrunk[k] == 0.0) continue;
              double dotv = 0.0;
              for (std::size_t i = 0; i < m; ++i) {
                dotv += a(i, j) * u(i, k);
              }
              vt(k, j) = dotv / sigma[k];
            }
          }
        },
        /*grain=*/128);
    out.fill(0.0);
    parallel_for_chunked(
        0, m,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            auto oi = out.row(i);
            for (std::size_t k = 0; k < m; ++k) {
              const double us = u(i, k) * shrunk[k];
              if (us == 0.0) continue;
              axpy(us, vt.row(k), oi);
            }
          }
        },
        /*grain=*/8);
    return;
  }

  std::size_t kept[kMaxInterleavedRows];
  std::size_t nk = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (shrunk[k] != 0.0) kept[nk++] = k;
  }
  // Packing the kept U columns (and their sigmas) contiguously lets the
  // accumulator and division loops below vectorize (an indexed
  // ui[kept[t]] access defeats that); each lane is still its own
  // ascending-i sum and its own exact division, so nothing changes
  // numerically.
  Matrix& up = scratch.u_kept;
  up.resize(m, std::max<std::size_t>(nk, 1));
  double sigma_kept[kMaxInterleavedRows];
  for (std::size_t t = 0; t < nk; ++t) sigma_kept[t] = sigma[kept[t]];
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t t = 0; t < nk; ++t) up(i, t) = u(i, kept[t]);
  }
  // Per-(t, i) reconstruction weights.
  TileWeights w;
  for (std::size_t t = 0; t < nk; ++t) {
    const std::size_t k = kept[t];
    for (std::size_t i = 0; i < m; ++i) w[t][i] = u(i, k) * shrunk[k];
  }
  // One fused pass in kJTile-column tiles: form the kept right-vector
  // slice for the tile in a per-thread stack buffer, then immediately
  // accumulate the output tile from it while it is still in L1. The
  // unfused form streamed the full m x n panel out to memory and read it
  // straight back — at paper shapes that round trip was the largest
  // share of the SVT's memory traffic.
  const GramSvtTileFn tile = gram_svt_tile_for(nk);
#if defined(NETCONST_SIMD_X86)
  const bool vector_tile = simd::active_level() == simd::Level::Avx2;
#endif
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t jb = lo; jb < hi; jb += kJTile) {
          const std::size_t je = std::min(jb + kJTile, hi);
#if defined(NETCONST_SIMD_X86)
          if (vector_tile) {
            gram_svt_tile_vec(a, up, sigma_kept, w, out, m, nk, jb, je);
            continue;
          }
#endif
          if (tile != nullptr) {
            tile(a, up, sigma_kept, w, out, m, jb, je);
          } else {
            gram_svt_tile_any(a, up, sigma_kept, w, out, m, nk, jb, je);
          }
        }
      },
      /*grain=*/1024);
}

/// Gram spectrum into scratch.singular_values, replicating gram_svd's
/// eigenvalue flooring.
void gram_spectrum(const Matrix& a, GramSvtScratch& scratch) {
  const std::size_t m = a.rows();
  outer_gram_into(a, scratch.gram);
  eigen_symmetric_into(scratch.gram, JacobiOptions{}, scratch.eig_scratch,
                       scratch.eig);
  scratch.singular_values.resize(m);
  const double lambda_max = std::max(scratch.eig.eigenvalues.front(), 0.0);
  // Eigenvalues below this are numerical noise of the Gram product.
  const double floor = lambda_max * 1e-14;
  for (std::size_t k = 0; k < m; ++k) {
    const double lambda = scratch.eig.eigenvalues[k];
    scratch.singular_values[k] = lambda > floor ? std::sqrt(lambda) : 0.0;
  }
}

}  // namespace

Matrix soft_threshold(const Matrix& a, double tau) {
  NETCONST_CHECK(tau >= 0.0, "soft threshold must be non-negative");
  Matrix out = a;
  for (auto& v : out.data()) {
    if (v > tau) {
      v -= tau;
    } else if (v < -tau) {
      v += tau;
    } else {
      v = 0.0;
    }
  }
  return out;
}

SvtResult singular_value_threshold(const Matrix& a, double tau,
                                   const SvdOptions& options) {
  NETCONST_CHECK(tau >= 0.0, "SVT threshold must be non-negative");
  SvdResult dec = svd(a, options);
  SvtResult result;
  result.top_singular_value =
      dec.singular_values.empty() ? 0.0 : dec.singular_values.front();
  for (auto& s : dec.singular_values) {
    s = s > tau ? s - tau : 0.0;
    if (s > 0.0) ++result.rank;
  }
  result.value = dec.reconstruct();
  return result;
}

SvtInfo singular_value_threshold_into(const Matrix& a, double tau,
                                      const SvdOptions& options,
                                      GramSvtScratch& scratch, Matrix& out) {
  NETCONST_CHECK(tau >= 0.0, "SVT threshold must be non-negative");
  SvtInfo info;
  if (!gram_fast_path_applies(a, options)) {
    SvtResult r = singular_value_threshold(a, tau, options);
    info.rank = r.rank;
    info.top_singular_value = r.top_singular_value;
    out = std::move(r.value);
    return info;
  }

  gram_spectrum(a, scratch);
  const std::size_t m = a.rows();
  info.used_scratch = true;
  info.top_singular_value =
      scratch.singular_values.empty() ? 0.0 : scratch.singular_values.front();
  scratch.shrunk.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double s = scratch.singular_values[k];
    scratch.shrunk[k] = s > tau ? s - tau : 0.0;
    if (scratch.shrunk[k] > 0.0) ++info.rank;
  }
  gram_reconstruct_shrunk(a, scratch, out);
  return info;
}

void low_rank_approximation_into(const Matrix& a, std::size_t k,
                                 const SvdOptions& options,
                                 GramSvtScratch& scratch, Matrix& out) {
  if (!gram_fast_path_applies(a, options)) {
    out = low_rank_approximation(a, k, options);
    return;
  }
  gram_spectrum(a, scratch);
  const std::size_t m = a.rows();
  scratch.shrunk.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    scratch.shrunk[i] = i < k ? scratch.singular_values[i] : 0.0;
  }
  gram_reconstruct_shrunk(a, scratch, out);
}

}  // namespace netconst::linalg
