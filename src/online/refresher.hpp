// Warm-started incremental RPCA refresh of a sliding window.
//
// When the window slides by one snapshot, exactly one row of the ring-
// ordered data matrices changes, so the previous solve's (D, E) factors
// are an excellent seed. The online path runs the rank-1 polish
// (rpca::polish_rank1): it drives any start in the basin onto the
// alternation's fixed point, which the window alone determines — the
// paper's model (rank(N_D) = 1) enforced exactly. A warm refresh
// therefore runs no solver at all: it opens the polish with
// rpca::rank1_huber_fit from the seed's E (rpca::polish), which reaches
// that fixed point in a few sweeps where the plain alternation would
// crawl toward it for thousands of steps on a noisy window. A warm
// attempt whose polish hits its cap is redone cold (FallbackCause) —
// correctness never depends on the seed. The cold path (first solve,
// redo, StablePcp / StablePcpTf) runs the solver and its plain
// alternation, so a warm and a cold refresh of the same window agree
// to ~1e-9 wherever the cold polish settles.
#pragma once

#include <cstdint>

#include "core/constant_finder.hpp"
#include "obs/convergence.hpp"
#include "online/window.hpp"
#include "rpca/incremental.hpp"
#include "rpca/rpca.hpp"
#include "rpca/workspace.hpp"

namespace netconst::online {

struct RefresherOptions {
  /// Solver choice, RPCA options and the Norm(N_E) tolerance. The
  /// online default turns the rank-1 polish on (warm/cold equivalence —
  /// see the header comment); pass polish_iterations = 0 to study the
  /// raw solver endpoints instead. A warm attempt needs a polish budget
  /// of at least 2 (the fit, then one certifying alternation step);
  /// with less, every refresh solves cold.
  core::ConstantFinderOptions finder = [] {
    core::ConstantFinderOptions f;
    f.rpca.polish_iterations = 300;
    return f;
  }();
  /// false = always solve cold (for A/B comparison and benchmarks).
  bool warm_start = true;
  /// Collect the accepted solve's per-iteration convergence trace into
  /// LayerRefresh::trace (see obs/convergence.hpp). Off by default: the
  /// probe computes extra per-iteration norms. The trace is capped at
  /// convergence_trace_capacity samples.
  bool collect_convergence = false;
  std::size_t convergence_trace_capacity = 512;
  /// Incremental subspace-tracking hot path (rpca/incremental.hpp):
  /// when the window slid by exactly one snapshot since the last
  /// refresh, serve the refresh by re-fitting only the replaced row
  /// against the tracker's frozen constant direction — O(N^2) instead
  /// of a full re-solve. A drift breach, a masked window, or any
  /// non-single-slide refresh falls back to the full solver path
  /// (warm-seeded from the tracked state) and re-anchors the tracker.
  bool incremental = false;
  rpca::IncrementalOptions incremental_options;
  /// Fill LayerRefresh's sparse-support geometry (fraction,
  /// concentration, most-implicated VM) from the accepted factors —
  /// the change-point detector's classification inputs (src/detect).
  /// Off by default: it is an extra O(n N^2) scan per layer.
  bool collect_support_stats = false;
};

/// Why a warm attempt was rejected and redone cold.
enum class FallbackCause {
  None,
  PolishCap,  // its polish hit polish_iterations unsettled
};

/// "none", "polish_cap".
const char* fallback_cause_name(FallbackCause cause);

/// Per-layer diagnostics of one refresh.
struct LayerRefresh {
  bool warm_attempted = false;  // a usable seed existed
  bool warm_used = false;       // the accepted result is the warm attempt
  bool cold_fallback = false;   // warm attempt rejected, result is a cold redo
  FallbackCause fallback_cause = FallbackCause::None;  // set with cold_fallback
  bool polish_capped = false;   // the accepted solve's polish hit its cap
  bool seed_ignored = false;    // solver cannot seed (cold, not a fallback)
  /// Solver iterations and pre-polish residual of the accepted solve;
  /// both 0 when the warm attempt (no solver runs) or the row update
  /// served the layer.
  int iterations = 0;
  double residual = 0.0;
  double solve_seconds = 0.0;   // total, including a rejected warm attempt
  // Masked-path accounting: non-finite window entries repaired before
  // the solve (see rpca::impute_missing for the priority order).
  std::size_t missing_entries = 0;
  std::size_t imputed_from_constant = 0;
  std::size_t imputed_from_column = 0;
  std::size_t imputed_from_global = 0;
  /// Per-iteration solver trace of the ACCEPTED solve: empty when the
  /// warm attempt served the layer (no solver ran) and unless
  /// RefresherOptions::collect_convergence.
  std::vector<obs::IterationStats> trace;
  // Incremental-path accounting (RefresherOptions::incremental).
  bool incremental_used = false;   // the row update served this layer
  bool drift_fallback = false;     // tracker breached; full path instead
  bool incremental_masked = false; // eligible slide had holes; full path
  bool anchored = false;           // this refresh re-anchored the tracker
  double drift = 0.0;              // instant drift statistic of the update
  /// Accepted randomized-SVT steps inside this layer's solve (0 when
  /// the exact path or the row update served it).
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
  /// Wall-clock of the whole refresh (both layers, fallbacks included).
  double total_seconds = 0.0;

  bool any_cold_fallback() const {
    return latency.cold_fallback || bandwidth.cold_fallback;
  }
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
  explicit WindowRefresher(const RefresherOptions& options = {});

  /// Decompose the window's current contents (requires >= 2 rows),
  /// seeding each layer from the previous refresh when possible. The
  /// accepted factors become the seeds for the next call.
  RefreshReport refresh(const SlidingWindow& window);

  /// Drop the seeds; the next refresh solves cold. Call after replacing
  /// the window contents wholesale (e.g. a from-scratch recalibration).
  void reset();

  bool has_seed() const { return !latency_seed_.empty(); }
  const RefresherOptions& options() const { return options_; }

  /// Counters of the persistent solver workspace (solves served,
  /// spectral-norm estimates, SVT fast-path fallbacks).
  const rpca::WorkspaceStats& workspace_stats() const {
    return workspace_.stats;
  }

  /// Each layer's last full-path result: the accepted factors of the
  /// last refresh that did not serve the layer from its tracker
  /// (inspection; empty before the first refresh).
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
                                      rpca::WarmStart& seed,
                                      rpca::IncrementalTracker& tracker,
                                      rpca::Result& result,
                                      linalg::Matrix& repaired,
                                      LayerRefresh& info);
  void solve_layer(const linalg::Matrix& data, rpca::WarmStart& seed,
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
  /// copy it into `repaired`, impute the holes (preferring the rank-1
  /// constant derived from `seed`) and return the repaired matrix;
  /// otherwise return `data` untouched. Fills the masked-path fields of
  /// `info`.
  const linalg::Matrix& repair_layer(const linalg::Matrix& data,
                                     const rpca::WarmStart& seed,
                                     linalg::Matrix& repaired,
                                     LayerRefresh& info);

  RefresherOptions options_;
  rpca::WarmStart latency_seed_;
  rpca::WarmStart bandwidth_seed_;
  // Incremental hot path: per-layer subspace trackers plus the push
  // watermark that detects "slid by exactly one since last refresh".
  rpca::IncrementalTracker latency_tracker_;
  rpca::IncrementalTracker bandwidth_tracker_;
  std::uint64_t last_pushes_ = 0;
  // Convergence probe, reused across solves (reset per attempt so the
  // retained trace always belongs to the accepted solve).
  obs::TraceProbe probe_;
  // Persistent solver state: one workspace plus per-layer Result buffers
  // (a warm attempt swaps the seed's factors into them) and a mutable
  // Options whose warm_start slot loans a seed to a solver that reports
  // it ignored. Together these make a steady-state warm refresh
  // allocation-free in the solver path.
  rpca::SolverWorkspace workspace_;
  rpca::Options solve_opts_;
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
