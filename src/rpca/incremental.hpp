// Incremental subspace tracking for the streaming refresh hot path.
//
// The paper's central observation is that the constant component of a
// TP-matrix window moves slowly: consecutive windows differ by one
// replaced row (ring-buffer slide), and between placement changes the
// constant subspace of that row is the same rank-1 direction the last
// full solve found. An IncrementalTracker exploits this: it freezes the
// unit constant direction q at the last accepted full solve (the
// *anchor*) and, per slide, re-fits only the replaced row's coefficient
// and sparse part by alternating the two exact single-row prox steps
//
//   c_r   = <a_r - e_r, q>
//   e_r   = soft_threshold(a_r - c_r * q, tau),   tau = lambda * mean|A|
//
// which is precisely rank1.cpp's polish restricted to one row with the
// basis held fixed — O(n) per slide instead of a full O(iters * m * n)
// re-solve. tau tracks the *current* window exactly through cached
// per-row l1 sums.
//
// Validity is watched by a drift statistic: the fraction of the replaced
// row the frozen subspace cannot explain (the support fraction of its
// sparse part — a per-row Norm(N_E) at threshold tau). Sparse outliers
// keep it near the window's sparsity; a placement change makes it jump
// because the row's new constant lands wholesale in E. On breach the
// caller runs its full path (the online refresher's rank-1 Huber fit
// starts from the tracked E, which release_sparse() hands it) and
// re-anchors — so the fallback
// reuses the machinery whose bit-exactness is pinned against
// rpca::reference.
//
// Determinism: every update is sequential scalar arithmetic in fixed
// order — no parallelism, no SIMD-variant kernels — so tracked state is
// bit-identical across thread counts and SIMD levels. After anchor()
// has seen a shape, update() performs zero heap allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/matrix.hpp"
#include "rpca/rpca.hpp"

namespace netconst::rpca {

struct IncrementalOptions {
  /// Sparsity weight for the row prox; <= 0 selects
  /// default_lambda(rows, cols), matching the full solvers.
  double lambda = 0.0;
  /// Alternation sweeps per replaced row. The row subproblem is a
  /// 2-block coordinate descent that contracts geometrically; 3 sweeps
  /// land within soft-threshold resolution of its fixed point.
  int update_sweeps = 3;
  /// Breach when the replaced row's unexplained fraction exceeds this.
  /// Window sparsity (~5% synthetic, less on real traces) sets the
  /// baseline; 0.30 means "most of this row is new structure".
  double drift_threshold = 0.30;
  /// EWMA smoothing of the same statistic, and its breach threshold —
  /// catches gradual drift that never trips the instantaneous bound.
  double ewma_alpha = 0.2;
  double ewma_threshold = 0.15;
};

/// Drift report for one update. `instant` is the replaced row's
/// unexplained fraction (support of its sparse part / n); `ewma` its
/// smoothed history seeded from the anchor's own E support; `novelty`
/// the sub-threshold orthogonal residual ratio ||a - cq - e|| / ||a||
/// (advisory — bounded by tau*sqrt(n) on clean data and not part of the
/// breach decision).
struct DriftStats {
  double instant = 0.0;
  double ewma = 0.0;
  double novelty = 0.0;
  bool breach = false;
};

class IncrementalTracker {
 public:
  IncrementalTracker() = default;
  explicit IncrementalTracker(const IncrementalOptions& options)
      : options_(options) {}

  const IncrementalOptions& options() const { return options_; }

  /// True once anchored on a window with a nonzero constant direction.
  bool ready() const { return ready_; }

  /// Adopt an accepted full solve of `data` as the new anchor, in one
  /// pass over the factors that also measures everything the refresh
  /// reads of them: freeze the unit constant direction from
  /// `full.low_rank`'s column means, project per-row coefficients, take
  /// E (full.sparse's buffer moves into the tracker and full.sparse is
  /// left empty: the tracker is the one owner of the layer's E), and
  /// count the per-row stats (l1 sums, l0 counts at cutoff =
  /// l0_rel_tolerance * max|data|, frozen until the next anchor), D's
  /// column sums (anchor_constant_row_into) and the support geometry of
  /// E at the cutoff (support_touches). Each is bit-identical to the
  /// quantity rpca::relative_l0, core::constant_row and
  /// detect::support_stats compute from the same matrices. `data` is a
  /// TP-matrix window of a `cluster_size`-VM cluster (cluster_size >= 2,
  /// data.cols() == cluster_size^2). A zero low-rank component leaves
  /// the tracker not ready (nothing to track), its measurements still
  /// taken.
  void anchor(const linalg::Matrix& data, Result& full,
              double l0_rel_tolerance, std::size_t cluster_size);

  /// Row `slot` of `data` was replaced since the last anchor/update;
  /// re-fit its coefficient and sparse part against the frozen basis
  /// and report drift. Requires ready() and the anchored shape.
  DriftStats update(const linalg::Matrix& data, std::size_t slot);

  const DriftStats& drift() const { return drift_; }
  std::uint64_t updates() const { return updates_; }

  /// Tracked sparse component (m x n, maintained in place; empty before
  /// the first anchor and between release_sparse() and the next anchor).
  const linalg::Matrix& sparse() const { return e_; }
  /// Hand the tracked E to `into` (its old contents are dropped), the
  /// start of the full-path fit whose accepted factors anchor() takes
  /// back: the buffer moves, nothing is copied. sparse() is empty until
  /// then, so update() refuses to run.
  void release_sparse(linalg::Matrix& into);
  /// Tracked rank (1 once ready — the tracker follows one direction).
  std::size_t rank() const { return ready_ ? 1 : 0; }
  /// Materialize the tracked low-rank component D = c (outer) q.
  void materialize_low_rank(linalg::Matrix& out) const;
  /// 1 x n constant row mean(c) * q — the tracker's equivalent of
  /// constant_row(low_rank, 1).
  void constant_row_into(linalg::Matrix& out) const;
  /// 1 x n column means of the anchored D: core::constant_row's row
  /// before it is unflattened, bit for bit.
  void anchor_constant_row_into(linalg::Matrix& out) const;
  /// Norm(N_E) equivalent from the cached counts: l0(E)/l0(A) at the
  /// anchor-frozen cutoff, clamped to [0, 1] like relative_l0. Exact at
  /// every anchor; between anchors the cutoff lags max|A| by design
  /// (recounting A at a moving cutoff would cost O(m n) per slide).
  double error_norm() const;
  /// Per VM, the anchored E's off-diagonal entries with |e| > cutoff on
  /// that VM's links (detect::support_geometry's input).
  const std::vector<std::uint64_t>& support_touches() const {
    return touches_;
  }

  void reset();

 private:
  IncrementalOptions options_;
  bool anchored_ = false;      // anchor() ran since the last reset()
  bool ready_ = false;
  std::uint64_t updates_ = 0;
  double lambda_ = 0.0;
  double cutoff_ = 0.0;        // frozen l0 cutoff from the anchor
  linalg::Matrix q_;           // 1 x n unit constant direction
  linalg::Matrix e_;           // m x n tracked sparse component
  std::vector<double> c_;      // m coefficients onto q
  std::vector<double> row_l1_;           // per-row sum|a_ij| (tau upkeep)
  std::vector<std::size_t> row_l0_e_;    // per-row l0(E) at cutoff_
  std::vector<std::size_t> row_l0_a_;    // per-row l0(A) at cutoff_
  std::vector<double> column_sums_;      // anchored D's column sums
  std::vector<std::uint64_t> touches_;   // anchored E's support per VM
  DriftStats drift_;
};

}  // namespace netconst::rpca
