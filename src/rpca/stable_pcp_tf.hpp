// Time-frequency constrained stable PCP (Hu, Wang, Yin):
//   min mu ||D||_* + mu lambda ||E||_1 + 1/2 ||A - D - E||_F^2
//   s.t.  D is band-limited along the time axis,
// the stable-PCP variant for windows whose low-rank component carries a
// slow temporal structure (diurnal load cycles, baseline drift) that
// plain nuclear-norm shrinkage either absorbs into E or blurs away.
//
// The time-frequency constraint is enforced as an extra proximal step
// (band_limit_step) inside stable PCP's loop: each iteration's SVT
// output is transformed along the window (row/time) axis with an
// orthonormal DCT-II, the coefficients above the passband are
// soft-thresholded, and the panel is transformed back. Low-frequency
// structure — the constant component plus its diurnal modulation —
// passes through untouched; high-frequency energy in D is pushed into
// the residual/E where the detector can see it.
//
// Every kernel specific to this solver (basis build, panel transforms,
// the coefficient shrink) is a sequential scalar loop shared verbatim
// with rpca::reference, so the solver is bit-identical across SIMD
// levels and thread counts by construction.
#pragma once

#include "rpca/apg.hpp"
#include "rpca/rpca.hpp"

namespace netconst::rpca {

/// Fraction of the lowest temporal frequencies kept untouched when the
/// dispatch (rpca::solve with Solver::StablePcpTf) supplies no explicit
/// TF options.
inline constexpr double kDefaultTfPassband = 0.25;
/// Default weight of the high-frequency soft-threshold relative to the
/// sparse component's lambda * mu threshold scale.
inline constexpr double kDefaultTfWeight = 1.0;

/// Inputs of reference::solve_stable_pcp_tf. The production solver
/// takes the same values as plain arguments (see solve_stable_pcp_tf
/// below).
struct StablePcpTfOptions {
  Options base;
  /// Standard deviation of the dense noise. <= 0 = estimate from the
  /// data via the median absolute deviation of the rank-1 residual.
  double noise_sigma = 0.0;
  /// Fraction of temporal frequencies (lowest first) exempt from the
  /// high-frequency shrink; clamped so at least the DC atom survives.
  double passband_fraction = kDefaultTfPassband;
  /// Scale of the high-frequency soft-threshold, in units of mu / 2
  /// (the same scale the L1 prox on E uses). 0 disables the TF step,
  /// reducing the solver to stable PCP exactly.
  double tf_weight = kDefaultTfWeight;
};

/// Time-frequency stable PCP, the Solver::StablePcpTf body of
/// rpca::solve (with the default passband and weight): solve_stable_pcp
/// with the band limit
/// {tf_passband_rows(rows, passband_fraction), tf_weight}. `lambda` must
/// be pre-resolved (> 0); `noise_sigma <= 0` estimates it from the data.
/// Numerically identical to reference::solve_stable_pcp_tf.
void solve_stable_pcp_tf(const linalg::Matrix& a, const Options& base,
                         double lambda, double noise_sigma,
                         double passband_fraction, double tf_weight,
                         SolverWorkspace& ws, Result& result);

/// The band limit's proximal step on `d` through the workspace's cached
/// basis and coefficient panel: forward DCT along time, soft-threshold
/// the rows >= band.keep_rows by band.weight * mu / 2, transform back.
/// No-op when that threshold is 0 or the passband covers the window.
void band_limit_step(linalg::Matrix& d, const BandLimit& band, double mu,
                     SolverWorkspace& ws);

/// Number of low-frequency DCT atoms the passband keeps for a window of
/// `rows` snapshots: round(passband_fraction * rows), clamped to
/// [1, rows]. Exposed so tests can pin the boundary exactly.
std::size_t tf_passband_rows(std::size_t rows, double passband_fraction);

/// Fill `basis` with the `rows` x `rows` orthonormal DCT-II matrix
/// (row k = frequency-k atom). Sequential scalar loops.
void temporal_dct_basis_into(std::size_t rows, linalg::Matrix& basis);

/// coeffs = basis * x — forward transform of every column of `x` along
/// the time axis. Sequential scalar loops; `coeffs` is resized.
void temporal_dct_forward(const linalg::Matrix& basis,
                          const linalg::Matrix& x, linalg::Matrix& coeffs);

/// x = basis^T * coeffs — inverse of temporal_dct_forward. Sequential
/// scalar loops; `x` is resized.
void temporal_dct_inverse(const linalg::Matrix& basis,
                          const linalg::Matrix& coeffs, linalg::Matrix& x);

/// Soft-threshold all coefficient rows with frequency index >= keep_rows
/// by `threshold`, in place. Sequential scalar loops.
void shrink_high_frequencies(linalg::Matrix& coeffs, std::size_t keep_rows,
                             double threshold);

}  // namespace netconst::rpca
