#include "linalg/randomized_svd.hpp"

#include <algorithm>
#include <cmath>

#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

namespace netconst::linalg {
namespace {

// Relative eigenvalue floor of the small Gram problem, matching the
// Gram SVT path (linalg/shrinkage.cpp): eigenvalues below
// lambda_max * kGramFloor are squared-roundoff, not spectrum.
constexpr double kGramFloor = 1e-14;

// Fixed-order scalar dot of two equal-length contiguous spans. Four
// independent accumulators folded in a fixed order at the end: the
// floating-point operation sequence is identical at every thread count
// and SIMD level, which is this file's determinism contract. (blas::dot
// is lane-split per SIMD level and must not be used here.)
double dot_rows(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = x.size();
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    s0 += x[j] * y[j];
    s1 += x[j + 1] * y[j + 1];
    s2 += x[j + 2] * y[j + 2];
    s3 += x[j + 3] * y[j + 3];
  }
  double tail = 0.0;
  for (; j < n; ++j) tail += x[j] * y[j];
  return ((s0 + s1) + (s2 + s3)) + tail;
}

// Make sure the cached sketch panel holds at least `sketch` directions
// for width-n inputs, drawing fresh rows from `rng` as needed.
void ensure_omega(RandomizedSvdScratch& s, std::size_t n,
                  std::size_t sketch, Rng& rng) {
  if (s.omega_cols != n) {
    s.omega_t.resize(sketch, n);
    s.omega_cols = n;
    s.filled_directions = 0;
  } else if (s.omega_t.rows() < sketch) {
    // Grow preserving the drawn prefix: each direction is drawn from
    // the stream exactly once, in row order, so the sketch a given
    // (stream state, width) pair sees is independent of how much
    // capacity was reserved up front — a reserved and an on-demand
    // workspace replay identical sketches. (Matrix::resize leaves
    // values unspecified, hence the explicit copy.)
    Matrix grown(sketch, n);
    for (std::size_t r = 0; r < s.filled_directions; ++r) {
      const auto src = s.omega_t.row(r);
      auto dst = grown.row(r);
      std::copy(src.begin(), src.end(), dst.begin());
    }
    s.omega_t.swap(grown);
  }
  for (std::size_t r = s.filled_directions; r < sketch; ++r) {
    for (double& v : s.omega_t.row(r)) v = rng.normal();
  }
  s.filled_directions = std::max(s.filled_directions, sketch);
}

// panel = M^T applied to the columns of `basis` (rows x width), written
// as `width` contiguous rows of `panel` (width x n). Each output row is
// an independent fixed-order accumulation over the rows of `m`, so the
// split across workers never changes a result bit.
void transpose_apply(const Matrix& m, const Matrix& basis,
                     std::size_t width, Matrix& panel) {
  panel.resize(width, m.cols());
  parallel_for(
      0, width,
      [&](std::size_t k) {
        auto out = panel.row(k);
        scaled_set(basis(0, k), m.row(0), out);
        for (std::size_t i = 1; i < m.rows(); ++i) {
          axpy(basis(i, k), m.row(i), out);
        }
      },
      1);
}

// y(i, k) = <a.row(i), panel.row(k)> for k < width; independent output
// rows across workers, fixed-order dots within.
void apply_panel(const Matrix& a, const Matrix& panel, std::size_t width,
                 Matrix& y) {
  y.resize(a.rows(), width);
  parallel_for(
      0, a.rows(),
      [&](std::size_t i) {
        for (std::size_t k = 0; k < width; ++k) {
          y(i, k) = dot_rows(a.row(i), panel.row(k));
        }
      },
      1);
}

// Modified Gram–Schmidt over the first `width` rows of `panel`
// (sequential; rows that cancel to zero stay zero — the final
// Householder QR of the sketch image absorbs degenerate directions).
void orthonormalize_rows(Matrix& panel, std::size_t width) {
  for (std::size_t k = 0; k < width; ++k) {
    auto row = panel.row(k);
    for (std::size_t l = 0; l < k; ++l) {
      const double proj = dot_rows(row, panel.row(l));
      if (proj != 0.0) axpy(-proj, panel.row(l), row);
    }
    const double norm2 = dot_rows(row, row);
    if (norm2 > 0.0) {
      scale(1.0 / std::sqrt(norm2), row);
    } else {
      for (double& v : row) v = 0.0;
    }
  }
}

struct SpectrumResult {
  std::size_t sketch = 0;    // directions used (<= rows)
  std::size_t captured = 0;  // numerically nonzero singular values
  double err = 0.0;          // Frobenius truncation bound
  double input_fro = 0.0;    // ||A||_F (fixed-order accumulation)
};

// The shared pipeline: sketch, power-iterate, orthonormalize, and solve
// the small problem. On return scratch.q holds the orthonormal basis
// (rows x sketch), scratch.b the small problem B = Q^T A (sketch x n),
// scratch.eig its Gram eigenpairs and scratch.singular_values the
// captured spectrum (descending).
SpectrumResult sketch_spectrum(const Matrix& a, std::size_t sketch,
                               Rng& rng,
                               const RandomizedSvdOptions& options,
                               RandomizedSvdScratch& s) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  sketch = std::min(std::max<std::size_t>(sketch, 1), m);
  ensure_omega(s, n, sketch, rng);

  // Y = A * Omega^T (m x sketch).
  apply_panel(a, s.omega_t, sketch, s.y);

  // Power iterations (A A^T)^q Y with re-orthonormalization. A complete
  // sketch already spans the row space; skip the polish.
  if (sketch < m) {
    for (int p = 0; p < options.power_iterations; ++p) {
      qr_factor_inplace(s.y, s.tau);
      qr_thin_q_into(s.y, s.tau, s.q);
      transpose_apply(a, s.q, sketch, s.z);
      orthonormalize_rows(s.z, sketch);
      apply_panel(a, s.z, sketch, s.y);
    }
  }
  qr_factor_inplace(s.y, s.tau);
  qr_thin_q_into(s.y, s.tau, s.q);

  // Small problem B = Q^T A and its Gram matrix B B^T.
  transpose_apply(a, s.q, sketch, s.b);
  s.gram.resize(sketch, sketch);
  for (std::size_t k = 0; k < sketch; ++k) {
    for (std::size_t l = 0; l <= k; ++l) {
      const double g = dot_rows(s.b.row(k), s.b.row(l));
      s.gram(k, l) = g;
      s.gram(l, k) = g;
    }
  }
  eigen_symmetric_into(s.gram, JacobiOptions{}, s.eig_scratch, s.eig);

  // ||A||_F^2 via per-row partials combined in row order, ||B||_F^2 as
  // the trace of the Gram spectrum.
  s.row_partials.resize(m);
  parallel_for(
      0, m,
      [&](std::size_t i) {
        s.row_partials[i] = dot_rows(a.row(i), a.row(i));
      },
      1);
  double a_fro2 = 0.0;
  for (std::size_t i = 0; i < m; ++i) a_fro2 += s.row_partials[i];
  double b_fro2 = 0.0;
  for (const double lambda : s.eig.eigenvalues) {
    b_fro2 += std::max(lambda, 0.0);
  }

  SpectrumResult result;
  result.sketch = sketch;
  result.err = std::sqrt(std::max(a_fro2 - b_fro2, 0.0));
  result.input_fro = std::sqrt(a_fro2);
  const double lambda_max = std::max(s.eig.eigenvalues[0], 0.0);
  const double floor = lambda_max * kGramFloor;
  std::size_t captured = 0;
  while (captured < sketch && s.eig.eigenvalues[captured] > floor &&
         s.eig.eigenvalues[captured] > 0.0) {
    ++captured;
  }
  result.captured = captured;
  s.singular_values.resize(captured);
  for (std::size_t k = 0; k < captured; ++k) {
    s.singular_values[k] = std::sqrt(s.eig.eigenvalues[k]);
  }
  return result;
}

// out = Q * U_B * diag(scratch.ratio) * U_B^T * B, the lifted
// reconstruction with per-value multipliers (sigma' / sigma for SVT,
// 0/1 for a rank cut). Rows of `out` are independent across workers.
void reconstruct_into(const Matrix& a, std::size_t sketch,
                      std::size_t captured, RandomizedSvdScratch& s,
                      Matrix& out) {
  const std::size_t m = a.rows();
  s.mix.resize(sketch, sketch);
  for (std::size_t k = 0; k < sketch; ++k) {
    for (std::size_t l = 0; l <= k; ++l) {
      double acc = 0.0;
      for (std::size_t c = 0; c < captured; ++c) {
        if (s.ratio[c] == 0.0) continue;
        acc += s.eig.eigenvectors(k, c) * s.eig.eigenvectors(l, c) *
               s.ratio[c];
      }
      s.mix(k, l) = acc;
      s.mix(l, k) = acc;
    }
  }
  s.w.resize(m, sketch);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t l = 0; l < sketch; ++l) {
      double acc = 0.0;
      for (std::size_t k = 0; k < sketch; ++k) {
        acc += s.q(i, k) * s.mix(k, l);
      }
      s.w(i, l) = acc;
    }
  }
  out.resize(m, a.cols());
  parallel_for(
      0, m,
      [&](std::size_t i) {
        auto row = out.row(i);
        scaled_set(s.w(i, 0), s.b.row(0), row);
        for (std::size_t l = 1; l < sketch; ++l) {
          axpy(s.w(i, l), s.b.row(l), row);
        }
      },
      1);
}

}  // namespace

void RandomizedSvdScratch::reserve(std::size_t rows, std::size_t cols,
                                   std::size_t sketch_cap) {
  const std::size_t s = std::min(std::max<std::size_t>(sketch_cap, 1),
                                 std::max<std::size_t>(rows, 1));
  omega_t.resize(s, cols);
  omega_cols = cols;
  filled_directions = 0;
  y.resize(rows, s);
  q.resize(rows, s);
  z.resize(s, cols);
  b.resize(s, cols);
  gram.resize(s, s);
  mix.resize(s, s);
  w.resize(rows, s);
  tau.reserve(s);
  row_partials.reserve(rows);
  singular_values.reserve(s);
  ratio.reserve(s);
  eig_scratch.work.resize(s, s);
  eig_scratch.rotations.resize(s, s);
  eig_scratch.order.reserve(s);
  eig_scratch.diagonal.reserve(s);
  eig.eigenvalues.reserve(s);
  eig.eigenvectors.resize(s, s);
}

RandomizedSvdInfo randomized_svt_into(const Matrix& a, double tau,
                                      std::size_t target_rank, Rng& rng,
                                      const RandomizedSvdOptions& options,
                                      double acceptance_bound,
                                      double acceptance_rel,
                                      RandomizedSvdScratch& scratch,
                                      Matrix& out) {
  NETCONST_CHECK(!a.empty(), "randomized SVT of an empty matrix");
  NETCONST_CHECK(a.rows() <= a.cols(),
                 "randomized SVT requires rows <= cols");
  NETCONST_CHECK(target_rank >= 1, "target rank must be >= 1");
  NETCONST_CHECK(tau >= 0.0, "SVT threshold must be >= 0");
  const std::size_t m = a.rows();
  const SpectrumResult spec = sketch_spectrum(
      a, std::min(m, target_rank + options.oversampling), rng, options,
      scratch);

  RandomizedSvdInfo info;
  info.sketch = spec.sketch;
  info.truncation_error = spec.err;
  info.input_fro = spec.input_fro;
  const double bound =
      std::max(acceptance_bound, acceptance_rel * spec.input_fro);
  // A complete sketch spans the whole row space — the decomposition is
  // exact to roundoff regardless of the bound.
  if (spec.sketch < m && spec.err > bound) return info;
  info.accepted = true;
  info.top_singular_value =
      spec.captured > 0 ? scratch.singular_values[0] : 0.0;

  scratch.ratio.resize(spec.captured);
  for (std::size_t c = 0; c < spec.captured; ++c) {
    const double sigma = scratch.singular_values[c];
    const double shrunk = sigma - tau;
    if (shrunk > 0.0) {
      scratch.ratio[c] = shrunk / sigma;
      ++info.rank;
    } else {
      scratch.ratio[c] = 0.0;
    }
  }
  out.resize(m, a.cols());
  if (info.rank == 0) {
    out.fill(0.0);
    return info;
  }
  reconstruct_into(a, spec.sketch, spec.captured, scratch, out);
  return info;
}

RandomizedSvdInfo randomized_low_rank_into(
    const Matrix& a, std::size_t k, Rng& rng,
    const RandomizedSvdOptions& options, double acceptance_bound,
    double acceptance_rel, RandomizedSvdScratch& scratch, Matrix& out) {
  NETCONST_CHECK(!a.empty(), "randomized rank cut of an empty matrix");
  NETCONST_CHECK(a.rows() <= a.cols(),
                 "randomized rank cut requires rows <= cols");
  NETCONST_CHECK(k >= 1, "rank must be >= 1");
  const std::size_t m = a.rows();
  const SpectrumResult spec = sketch_spectrum(
      a, std::min(m, k + options.oversampling), rng, options, scratch);

  RandomizedSvdInfo info;
  info.sketch = spec.sketch;
  info.truncation_error = spec.err;
  info.input_fro = spec.input_fro;
  const double bound =
      std::max(acceptance_bound, acceptance_rel * spec.input_fro);
  if (spec.sketch < m && spec.err > bound) return info;
  info.accepted = true;
  info.top_singular_value =
      spec.captured > 0 ? scratch.singular_values[0] : 0.0;

  info.rank = std::min(k, spec.captured);
  scratch.ratio.resize(spec.captured);
  for (std::size_t c = 0; c < spec.captured; ++c) {
    scratch.ratio[c] = c < info.rank ? 1.0 : 0.0;
  }
  out.resize(m, a.cols());
  if (info.rank == 0) {
    out.fill(0.0);
    return info;
  }
  reconstruct_into(a, spec.sketch, spec.captured, scratch, out);
  return info;
}

}  // namespace netconst::linalg
