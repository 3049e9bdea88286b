// Incremental RPCA refresh of a sliding window.
//
// Every full-path layer refresh is the rank-1 Huber fit
// (rpca::polish with the Huber start, rpca/rank1.hpp): the paper's
// model (rank(N_D) = 1) enforced exactly, with no solver in front and
// no solver to choose. The fit reads only E, and starts from the
// layer's last accepted E (the Result buffers persist), from the
// tracker's E when the incremental tracker has advanced past its
// anchor, or from E = 0 at bootstrap, after reset() or after a shape
// change. When the window slides by one row, the last E is an
// excellent start and the fit settles in a few sweeps. A fit that hits
// its polish cap is still accepted and reported by
// LayerRefresh::polish_capped; nothing is redone. The fit's fixed point
// is not unique: on ~6% of noisy windows different starts (the last E,
// zero, a cold APG's E) settle on different near-degenerate minima,
// whose Huber objectives agree to ~2.5e-6 relative (docs/ALGORITHMS.md
// §7; tests/online/fit_uniqueness_test.cpp states the bound).
#pragma once

#include <cstdint>

#include "core/constant_finder.hpp"
#include "online/window.hpp"
#include "rpca/incremental.hpp"
#include "rpca/rpca.hpp"
#include "rpca/workspace.hpp"

namespace netconst::online {

struct RefresherOptions {
  /// The fit's options: lambda (the Huber threshold's scale) and the
  /// polish budget and tolerance. The budget must be at least 2 (the
  /// Huber fit, then one alternation step whose test decides
  /// polish_converged).
  rpca::Options rpca = [] {
    rpca::Options o;
    o.polish_iterations = 300;
    return o;
  }();
  /// Norm(N_E) tolerance, relative to max|A| (the batch default).
  double l0_rel_tolerance = core::ConstantFinderOptions{}.l0_rel_tolerance;
  /// Read by nothing; kept because bench/e2e sets it.
  bool collect_convergence = false;
  /// Incremental subspace-tracking hot path (rpca/incremental.hpp):
  /// when the window slid by exactly one snapshot since the last
  /// refresh, serve the refresh by re-fitting only the replaced row
  /// against the tracker's frozen constant direction — O(N^2) instead
  /// of a full re-solve. A drift breach, a masked window, or any
  /// non-single-slide refresh falls back to the full path (the fit
  /// starts from the tracked E) and re-anchors the tracker.
  bool incremental = false;
  rpca::IncrementalOptions incremental_options;
  /// Fill LayerRefresh's sparse-support geometry (fraction,
  /// concentration, most-implicated VM) from the accepted factors —
  /// the change-point detector's classification inputs (src/detect).
  /// Off by default: it is an extra O(n N^2) scan per layer.
  bool collect_support_stats = false;
};

/// Per-layer diagnostics of one refresh.
struct LayerRefresh {
  // The path counters keep their names (bench/e2e recounts them): a fit
  // from a prior E is "warm", a fit from zero "cold" (bootstrap
  // included).
  bool warm_attempted = false;  // the fit started from a prior E
  bool warm_used = false;       // same as warm_attempted: nothing is redone
  bool cold_fallback = false;   // always false: a capped fit is accepted
  bool polish_capped = false;   // the accepted fit's polish hit its cap
  /// Always 0 (no solver runs); kept because bench/e2e reads both.
  int iterations = 0;
  double residual = 0.0;
  double solve_seconds = 0.0;
  // Masked-path accounting: non-finite window entries repaired before
  // the fit (see rpca::impute_missing for the priority order).
  std::size_t missing_entries = 0;
  std::size_t imputed_from_constant = 0;
  std::size_t imputed_from_column = 0;
  std::size_t imputed_from_global = 0;
  // Incremental-path accounting (RefresherOptions::incremental).
  bool incremental_used = false;   // the row update served this layer
  bool drift_fallback = false;     // tracker breached; full path instead
  bool incremental_masked = false; // eligible slide had holes; full path
  bool anchored = false;           // this refresh re-anchored the tracker
  double drift = 0.0;              // instant drift statistic of the update
  /// Always 0: every SVT step is exact. Kept because bench/e2e recounts it.
  std::size_t randomized_steps = 0;
  // Sparse-support geometry of the accepted factors at the window's
  // relative-l0 cutoff (RefresherOptions::collect_support_stats; all
  // zero otherwise). See detect::support_stats.
  double support_fraction = 0.0;
  double support_concentration = 0.0;
  std::size_t support_vm = 0;
};

struct RefreshReport {
  core::ConstantComponent component;
  LayerRefresh latency;
  LayerRefresh bandwidth;
  /// Wall-clock of the whole refresh (both layers).
  double total_seconds = 0.0;

  bool fully_warm() const {
    return latency.warm_used && bandwidth.warm_used;
  }
  bool fully_incremental() const {
    return latency.incremental_used && bandwidth.incremental_used;
  }
  bool any_drift_fallback() const {
    return latency.drift_fallback || bandwidth.drift_fallback;
  }
  /// Window entries (both layers) that had to be imputed this refresh.
  std::size_t missing_entries() const {
    return latency.missing_entries + bandwidth.missing_entries;
  }
  bool degraded() const { return missing_entries() > 0; }
};

class WindowRefresher {
 public:
  /// Throws ContractViolation when the polish budget is below 2: the
  /// fit would have no alternation step to certify it.
  explicit WindowRefresher(const RefresherOptions& options = {});

  /// Decompose the window's current contents (requires >= 2 rows),
  /// starting each layer's fit from its previous E when one exists.
  RefreshReport refresh(const SlidingWindow& window);

  /// Drop every layer's prior E, its constant and the trackers; the
  /// next refresh fits from zero. Call after replacing the window
  /// contents wholesale (e.g. a from-scratch recalibration).
  void reset();

  const RefresherOptions& options() const { return options_; }

  /// Each layer's last full-path result: the accepted factors of the
  /// last refresh that did not serve the layer from its tracker, and
  /// the next fit's start (inspection; empty before the first refresh
  /// and after reset()).
  const rpca::Result& latency_result() const { return latency_result_; }
  const rpca::Result& bandwidth_result() const { return bandwidth_result_; }

  /// The per-layer subspace trackers (inspection; empty/not-ready until
  /// the first full solve anchors them under options().incremental).
  const rpca::IncrementalTracker& latency_tracker() const {
    return latency_tracker_;
  }
  const rpca::IncrementalTracker& bandwidth_tracker() const {
    return bandwidth_tracker_;
  }

 private:
  /// One layer end to end: the incremental row update when the window
  /// slid by one and the tracker holds, otherwise repair + full solve +
  /// re-anchor. Returns the matrix the accepted path consumed.
  const linalg::Matrix& refresh_layer(const linalg::Matrix& raw,
                                      bool slide_by_one, std::size_t slot,
                                      rpca::IncrementalTracker& tracker,
                                      rpca::Result& result,
                                      linalg::Matrix& repaired,
                                      LayerRefresh& info);
  /// The full-path fit of one layer into `result`: the Huber fit from
  /// `result.sparse` when `prior_e` (the caller checked its shape),
  /// otherwise from E = 0.
  void solve_layer(const linalg::Matrix& data, bool prior_e,
                   rpca::Result& result, LayerRefresh& info);
  /// Component assembly when at least one layer came from its tracker
  /// or just anchored it (rank/Norm(N_E)/constant read from tracked
  /// state instead of a Result; an anchored layer's Norm(N_E) is the
  /// tracker's count at this window's cutoff).
  core::ConstantComponent assemble_mixed(const linalg::Matrix& lat_data,
                                         const linalg::Matrix& bw_data,
                                         std::size_t cluster_size,
                                         const RefreshReport& report);
  /// Masked front-end of one layer: when `data` has non-finite entries,
  /// copy it into `repaired`, impute the holes (preferring the prior
  /// rank-1 constant: the column means of `tracked`'s D when the
  /// tracker advanced past its anchor, materialized into result.low_rank
  /// first, else of the last accepted result.low_rank) and return the
  /// repaired matrix; otherwise return `data` untouched. Fills the
  /// masked-path fields of `info`.
  const linalg::Matrix& repair_layer(const linalg::Matrix& data,
                                     const rpca::IncrementalTracker* tracked,
                                     rpca::Result& result,
                                     linalg::Matrix& repaired,
                                     LayerRefresh& info);

  RefresherOptions options_;
  // Incremental hot path: per-layer subspace trackers plus the push
  // watermark that detects "slid by exactly one since last refresh".
  rpca::IncrementalTracker latency_tracker_;
  rpca::IncrementalTracker bandwidth_tracker_;
  std::uint64_t last_pushes_ = 0;
  // Persistent solver state: one workspace plus per-layer Result buffers,
  // which hold each layer's last accepted factors and so the next fit's
  // start. Together these make a steady-state refresh allocation-free in
  // the solver path.
  rpca::SolverWorkspace workspace_;
  rpca::Result latency_result_;
  rpca::Result bandwidth_result_;
  // Masked-path scratch, reused across refreshes (only touched when the
  // window actually has holes; a clean refresh never copies).
  linalg::Matrix latency_repaired_;
  linalg::Matrix bandwidth_repaired_;
  linalg::Matrix constant_scratch_;  // 1 x N^2 rank-1 constant row
  linalg::Matrix bandwidth_constant_scratch_;  // mixed-assembly twin
};

}  // namespace netconst::online
