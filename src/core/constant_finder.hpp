// ConstantFinder — the heart of the paper: decompose a TP-matrix into
// the rank-one constant component (TC-matrix) and the sparse error
// component (TE-matrix) with RPCA, and derive from them
//  * a PerformanceMatrix of long-term link parameters for guiding
//    network-performance-aware optimizations, and
//  * the effectiveness metric Norm(N_E) = ||N_E||_0 / ||N_A||_0.
//
// Latency and bandwidth layers are decomposed independently (the paper
// maintains two N x N performance matrices L and B); Norm(N_E) is
// reported for the bandwidth layer, which dominates the 8 MB-class
// messages of the evaluation, with the latency norm kept alongside.
#pragma once

#include <cstdint>

#include "netmodel/tp_matrix.hpp"
#include "rpca/rpca.hpp"

namespace netconst::core {

struct ConstantFinderOptions {
  rpca::Options rpca;
  /// Tolerance for the l0 counts in Norm(N_E), relative to max|A|: an
  /// error entry below this fraction of the largest link value is not
  /// "significant". 5% sits above the volatility band (~1% deviations,
  /// which should NOT count as error) and far below interference spikes
  /// (30-75% deviations, which must count).
  double l0_rel_tolerance = 0.05;
};

struct ConstantComponent {
  /// Long-term link parameters (the row of the TC-matrix, reshaped).
  netmodel::PerformanceMatrix constant;
  /// Norm(N_E) of the bandwidth layer — the paper's headline metric.
  double error_norm = 0.0;
  /// Norm(N_E) of the latency layer.
  double latency_error_norm = 0.0;
  /// Numerical rank of the recovered low-rank components.
  std::size_t bandwidth_rank = 0;
  std::size_t latency_rank = 0;
  /// Wall-clock cost of the two RPCA solves.
  double solve_seconds = 0.0;
};

/// Run RPCA on both layers of the series and assemble the result.
/// Requires at least 2 snapshots.
ConstantComponent find_constant(const netmodel::TemporalPerformance& series,
                                const ConstantFinderOptions& options = {});

/// Assemble a ConstantComponent from per-layer RPCA solves of
/// already-flattened data. The rows of the data matrices may be any
/// permutation of the snapshots (everything derived here — the mean
/// constant row, Norm(N_E), ranks — is row-permutation invariant), which
/// is what lets the online sliding window hand its ring-ordered buffers
/// straight to the solver. Shared by find_constant and online::WindowRefresher.
ConstantComponent assemble_component(const linalg::Matrix& latency_data,
                                     const rpca::Result& latency,
                                     const linalg::Matrix& bandwidth_data,
                                     const rpca::Result& bandwidth,
                                     std::size_t cluster_size,
                                     double l0_rel_tolerance);

/// The row of the TC-matrix as an N x N matrix for one flattened layer:
/// the mean row of the low-rank component (its rows are equal up to
/// numerical noise; averaging is the consistent estimator).
linalg::Matrix constant_row(const linalg::Matrix& low_rank,
                            std::size_t cluster_size);

}  // namespace netconst::core
