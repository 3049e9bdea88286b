#include "online/refresher.hpp"

#include <algorithm>

#include "detect/detector.hpp"
#include "obs/trace.hpp"
#include "rpca/masked.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::online {

namespace {

/// A layer span's value: the fit's v-sweeps plus alternation steps on a
/// full-path layer, 0 when the tracker served it (no fit ran).
double fit_iterations(const LayerRefresh& info, const rpca::Result& result) {
  return info.incremental_used ? 0.0 : result.polish_iterations;
}

/// Whether ||data||_F is zero: every entry squares to +0.0, zeros and
/// entries small enough to underflow alike. Unlike the norm it stops at
/// the first entry that does not, on a live window the first.
bool zero_window(const linalg::Matrix& data) {
  return std::all_of(data.data().begin(), data.data().end(),
                     [](double x) { return x * x == 0.0; });
}

}  // namespace

WindowRefresher::WindowRefresher(const RefresherOptions& options)
    : options_(options),
      latency_tracker_(options.incremental_options),
      bandwidth_tracker_(options.incremental_options) {
  NETCONST_CHECK(options.rpca.polish_iterations > 1,
                 "the online fit needs a polish budget of at least 2");
}

void WindowRefresher::solve_layer(const linalg::Matrix& data, bool prior_e,
                                  rpca::Result& result, LayerRefresh& info) {
  const Stopwatch clock;
  if (zero_window(data)) {
    // A fully-unobserved window imputes to all zeros when no constant is
    // known yet (fresh bootstrap under total probe loss). The solvers
    // contract-check against a zero matrix, and its decomposition is
    // known anyway: D = E = 0. Synthesize it so a degraded service never
    // throws; downstream the zero constant is floored to a valid (if
    // uninformative) PerformanceMatrix. Its rank stays 0, so the next
    // refresh does not count this E as a prior.
    rpca::reset_result(result);
    result.low_rank.resize(data.rows(), data.cols());
    result.sparse.resize(data.rows(), data.cols());
    result.low_rank.fill(0.0);
    result.sparse.fill(0.0);
    result.converged = true;
    info.solve_seconds = clock.seconds();
    return;
  }

  // The fit reads only E: from the prior E it is the warm refresh, from
  // zero the cold one. Either way its result is accepted.
  rpca::reset_result(result);
  if (!prior_e) {
    result.low_rank.resize(data.rows(), data.cols());
    result.sparse.resize(data.rows(), data.cols());
    result.sparse.fill(0.0);
  }
  rpca::polish(data, options_.rpca, /*huber_start=*/true, workspace_, result);
  result.converged = result.polish_converged;
  info.warm_attempted = prior_e;
  info.warm_used = prior_e;
  info.polish_capped = !result.polish_converged;
  info.solve_seconds = clock.seconds();
}

const linalg::Matrix& WindowRefresher::refresh_layer(
    const linalg::Matrix& raw, bool slide_by_one, std::size_t slot,
    std::size_t cluster_size, rpca::IncrementalTracker& tracker,
    rpca::Result& result, linalg::Matrix& repaired, LayerRefresh& info) {
  const std::size_t missing = rpca::count_missing(raw);
  const bool trackable = options_.incremental && tracker.ready() &&
                         tracker.sparse().same_shape(raw);
  if (slide_by_one && trackable) {
    if (missing == 0) {
      const Stopwatch clock;
      const rpca::DriftStats drift = tracker.update(raw, slot);
      info.drift = drift.instant;
      if (!drift.breach) {
        // The frozen subspace still explains the replaced row: the
        // tracked factors ARE this refresh's decomposition. Result
        // buffers stay untouched; assembly reads the tracker.
        info.incremental_used = true;
        info.solve_seconds = clock.seconds();
        return raw;
      }
      info.drift_fallback = true;
    } else {
      // The imputation front-end must not write through the tracker's
      // cached row stats; holes route this refresh to the full path.
      info.incremental_masked = true;
    }
  }
  // Full path. The tracker owns the layer's E: the last accepted one, or
  // the fresher one its row updates advanced since. It moves into the
  // fit as the start and back into the tracker at the anchor below, so
  // the layer holds one E and nothing is copied.
  const bool tracked = trackable && tracker.updates() > 0;
  const linalg::Matrix& data = repair_layer(
      raw, missing, tracked ? &tracker : nullptr, result, repaired, info);
  tracker.release_sparse(result.sparse);
  // A zero-synthesized result has rank 0: its E is no prior.
  const bool prior_e = result.rank > 0 && result.sparse.same_shape(data);
  solve_layer(data, prior_e, result, info);
  // The anchor pass measures the accepted factors for the rest of the
  // refresh (Norm(N_E), the constant, the support geometry), so it runs
  // on every full-path layer; only the row update needs `incremental`.
  tracker.anchor(data, result, options_.l0_rel_tolerance, cluster_size);
  info.anchored = options_.incremental && tracker.ready();
  return data;
}

core::ConstantComponent WindowRefresher::assemble(
    const RefreshReport& report) {
  core::ConstantComponent component;
  component.solve_seconds =
      report.latency.solve_seconds + report.bandwidth.solve_seconds;
  // A tracker-served layer takes its rank, Norm(N_E) and constant from
  // the tracker's row-updated state, whose counts sit at the cutoff
  // frozen at its anchor (see IncrementalTracker::error_norm). A
  // full-path layer takes them from the anchor pass that just measured
  // its accepted factors at this window's cutoff: the same numbers
  // rpca::relative_l0 and core::constant_row compute, bit for bit.
  const auto layer = [](const LayerRefresh& info,
                        const rpca::IncrementalTracker& tracker,
                        const rpca::Result& result, std::size_t& rank,
                        double& error_norm, linalg::Matrix& constant) {
    error_norm = tracker.error_norm();
    if (info.incremental_used) {
      rank = tracker.rank();
      tracker.constant_row_into(constant);
    } else {
      rank = result.rank;
      tracker.anchor_constant_row_into(constant);
    }
  };
  layer(report.latency, latency_tracker_, latency_result_,
        component.latency_rank, component.latency_error_norm,
        constant_scratch_);
  layer(report.bandwidth, bandwidth_tracker_, bandwidth_result_,
        component.bandwidth_rank, component.error_norm,
        bandwidth_constant_scratch_);
  component.constant = netmodel::matrices_to_performance(
      constant_scratch_, bandwidth_constant_scratch_);
  return component;
}

const linalg::Matrix& WindowRefresher::repair_layer(
    const linalg::Matrix& data, std::size_t missing,
    const rpca::IncrementalTracker* tracked, rpca::Result& result,
    linalg::Matrix& repaired, LayerRefresh& info) {
  if (missing == 0) return data;

  repaired = data;  // copy-assignment reuses the scratch capacity
  // The layer's D is overwritten by the fit that follows, so it can
  // hold the tracker's fresher D until the column means are taken.
  if (tracked != nullptr) tracked->materialize_low_rank(result.low_rank);
  const linalg::Matrix* constant = nullptr;
  const linalg::Matrix& prior = result.low_rank;
  if (result.rank > 0 && prior.cols() == data.cols()) {
    // The last accepted low-rank factor IS the rank-1 constant (its
    // rows agree up to numerical noise); its column means are the
    // model's belief about each link.
    constant_scratch_.resize(1, data.cols());
    for (std::size_t j = 0; j < data.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < prior.rows(); ++i) sum += prior(i, j);
      constant_scratch_(0, j) = sum / static_cast<double>(prior.rows());
    }
    constant = &constant_scratch_;
  }
  const rpca::ImputeStats stats = rpca::impute_missing(repaired, constant);
  info.missing_entries = stats.missing;
  info.imputed_from_constant = stats.from_constant;
  info.imputed_from_column = stats.from_column;
  info.imputed_from_global = stats.from_global;
  return repaired;
}

RefreshReport WindowRefresher::refresh(const SlidingWindow& window) {
  NETCONST_CHECK(window.size() >= 2,
                 "refresh needs at least two snapshots in the window");
  const Stopwatch clock;
  obs::Span refresh_span("online.refresh");

  RefreshReport report;
  // "Slid by exactly one snapshot" is the incremental hot path's
  // precondition: one replaced ring slot, everything else untouched.
  const bool slide_by_one = options_.incremental && window.full() &&
                            window.pushes() == last_pushes_ + 1;
  // The push that slid the window reused the evicted snapshot's ring
  // slot, so the one changed row is the NEWEST snapshot's slot.
  const std::size_t slot =
      window.full() ? window.slot_of_age(window.size() - 1) : 0;
  last_pushes_ = window.pushes();

  // Each layer routes independently: row update, or (masked repair +)
  // full-path fit and anchor (see refresh_layer). The masked front-end
  // runs inside the layer so a clean incremental refresh never copies.
  const std::size_t cluster_size = window.cluster_size();
  const linalg::Matrix* lat_data = nullptr;
  const linalg::Matrix* bw_data = nullptr;
  {
    obs::Span layer_span("online.refresh.latency");
    lat_data = &refresh_layer(window.latency_data(), slide_by_one, slot,
                              cluster_size, latency_tracker_,
                              latency_result_, latency_repaired_,
                              report.latency);
    layer_span.set_value(fit_iterations(report.latency, latency_result_));
  }
  {
    obs::Span layer_span("online.refresh.bandwidth");
    bw_data = &refresh_layer(window.bandwidth_data(), slide_by_one, slot,
                             cluster_size, bandwidth_tracker_,
                             bandwidth_result_, bandwidth_repaired_,
                             report.bandwidth);
    layer_span.set_value(fit_iterations(report.bandwidth, bandwidth_result_));
  }

  if (options_.collect_support_stats) {
    // A full-path layer's anchor pass counted its E's support at the
    // window's own cutoff. A tracker-served layer's E lives in the
    // tracker and is scanned here at the current window's cutoff,
    // exactly as rpca::relative_l0 derives it.
    const auto layer_stats = [&](const LayerRefresh& info,
                                 const rpca::IncrementalTracker& tracker,
                                 const linalg::Matrix& data) {
      if (!info.incremental_used) {
        return detect::support_geometry(tracker.support_touches(),
                                        data.rows());
      }
      return detect::support_stats(
          tracker.sparse(), cluster_size,
          options_.l0_rel_tolerance * linalg::max_abs(data));
    };
    const detect::SupportStats lat_stats =
        layer_stats(report.latency, latency_tracker_, *lat_data);
    report.latency.support_fraction = lat_stats.fraction;
    report.latency.support_concentration = lat_stats.concentration;
    report.latency.support_vm = lat_stats.vm;
    const detect::SupportStats bw_stats =
        layer_stats(report.bandwidth, bandwidth_tracker_, *bw_data);
    report.bandwidth.support_fraction = bw_stats.fraction;
    report.bandwidth.support_concentration = bw_stats.concentration;
    report.bandwidth.support_vm = bw_stats.vm;
  }

  report.component = assemble(report);
  report.total_seconds = clock.seconds();
  return report;
}

void WindowRefresher::reset() {
  // Empty shapes (capacity kept) leave no prior D or constant; the
  // trackers' reset drops their E.
  for (rpca::Result* result : {&latency_result_, &bandwidth_result_}) {
    rpca::reset_result(*result);
    result->low_rank.resize(0, 0);
    result->sparse.resize(0, 0);
  }
  latency_tracker_.reset();
  bandwidth_tracker_.reset();
  last_pushes_ = 0;
}

}  // namespace netconst::online
