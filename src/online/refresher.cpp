#include "online/refresher.hpp"

#include <utility>

#include "detect/detector.hpp"
#include "linalg/norms.hpp"
#include "obs/trace.hpp"
#include "rpca/masked.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::online {
namespace {

/// Empty a WarmStart without releasing its matrix capacity (resize(0, 0)
/// keeps the buffers; assignment of a fresh WarmStart would free them).
void clear_seed(rpca::WarmStart& seed) {
  seed.low_rank.resize(0, 0);
  seed.sparse.resize(0, 0);
  seed.mu = 0.0;
  seed.mu_floor = 0.0;
}

}  // namespace

const char* fallback_cause_name(FallbackCause cause) {
  switch (cause) {
    case FallbackCause::None:
      return "none";
    case FallbackCause::PolishCap:
      return "polish_cap";
  }
  return "unknown";
}

WindowRefresher::WindowRefresher(const RefresherOptions& options)
    : options_(options),
      latency_tracker_(options.incremental_options),
      bandwidth_tracker_(options.incremental_options),
      probe_(options.convergence_trace_capacity),
      solve_opts_(options.finder.rpca) {
  // The refresher's own seeds are the only warm start it offers.
  solve_opts_.warm_start = rpca::WarmStart{};
}

void WindowRefresher::solve_layer(const linalg::Matrix& data,
                                  rpca::WarmStart& seed, rpca::Result& result,
                                  LayerRefresh& info) {
  const Stopwatch clock;
  const std::size_t accepts_before = workspace_.stats.randomized_accepts;
  if (linalg::frobenius_norm(data) == 0.0) {
    // A fully-unobserved window imputes to all zeros when no constant is
    // known yet (fresh bootstrap under total probe loss). The solvers
    // contract-check against a zero matrix, and its decomposition is
    // known anyway: D = E = 0. Synthesize it so a degraded service never
    // throws; downstream the zero constant is floored to a valid (if
    // uninformative) PerformanceMatrix.
    result = rpca::Result{};
    result.low_rank.resize(data.rows(), data.cols());
    result.sparse.resize(data.rows(), data.cols());
    result.low_rank.fill(0.0);
    result.sparse.fill(0.0);
    result.converged = true;
    clear_seed(seed);
    info.warm_attempted = false;
    info.warm_used = false;
    info.solve_seconds = clock.seconds();
    return;
  }
  // Only a polish of two or more steps can certify a warm start (the
  // Huber fit, then at least one alternation step whose test decides
  // polish_converged), so without one every refresh solves cold.
  const int polish_budget = solve_opts_.polish_iterations;
  const bool use_seed =
      options_.warm_start && polish_budget > 1 && !seed.empty() &&
      seed.low_rank.rows() == data.rows() &&
      seed.low_rank.cols() == data.cols();
  info.warm_attempted = use_seed;

  // Reset the probe before every attempt so the retained trace always
  // belongs to the solve whose result is accepted.
  if (options_.collect_convergence) {
    probe_.reset();
    solve_opts_.probe = &probe_;
  } else {
    solve_opts_.probe = nullptr;
  }

  if (use_seed && options_.finder.solver == rpca::Solver::Apg) {
    // The warm attempt is the polish alone, opened with the Huber fit
    // from the seed's E: the fit's fixed point is a function of the
    // window, not of where it starts, so a seeded APG in front of it
    // would only hand it a different start. The seed's buffers become
    // the result's (swapped, not copied); no solver iteration runs.
    rpca::reset_result(result);
    result.low_rank.swap(seed.low_rank);
    result.sparse.swap(seed.sparse);
    result.warm_started = true;
    result.final_mu = seed.mu;
    result.mu_floor = seed.mu_floor;
    rpca::polish(data, solve_opts_, /*huber_start=*/true, workspace_,
                 result);
    result.converged = result.polish_converged;
    if (!result.polish_converged) {
      // The fit and the alternation after it did not settle within the
      // budget: solve from scratch.
      info.cold_fallback = true;
      info.fallback_cause = FallbackCause::PolishCap;
      rpca::solve(data, options_.finder.solver, solve_opts_, workspace_,
                  result);
    }
  } else {
    // A cold solve with the solver's own polish. A seed offered to a
    // solver that cannot use one is loaned (not copied) so the solve
    // reports it ignored.
    if (use_seed) solve_opts_.warm_start = std::move(seed);
    rpca::solve(data, options_.finder.solver, solve_opts_, workspace_,
                result);
    if (use_seed) {
      seed = std::move(solve_opts_.warm_start);
      clear_seed(solve_opts_.warm_start);
    }
  }
  info.seed_ignored = result.warm_start_ignored;
  info.warm_used = result.warm_started;
  if (options_.collect_convergence) info.trace = probe_.trace();
  info.polish_capped = result.polished && !result.polish_converged;
  info.iterations = result.iterations;
  info.residual = result.solver_residual;
  info.randomized_steps =
      workspace_.stats.randomized_accepts - accepts_before;
  info.solve_seconds = clock.seconds();
}

const linalg::Matrix& WindowRefresher::refresh_layer(
    const linalg::Matrix& raw, bool slide_by_one, std::size_t slot,
    rpca::WarmStart& seed, rpca::IncrementalTracker& tracker,
    rpca::Result& result, linalg::Matrix& repaired, LayerRefresh& info) {
  const bool trackable = options_.incremental && tracker.ready() &&
                         tracker.sparse().same_shape(raw);
  if (slide_by_one && trackable) {
    if (rpca::count_missing(raw) == 0) {
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
  // Full path. A tracker that advanced past its anchor holds fresher
  // factors than the last full solve — seed from it instead.
  if (trackable && tracker.updates() > 0) tracker.seed_warm_start(seed);
  const linalg::Matrix& data = repair_layer(raw, seed, repaired, info);
  solve_layer(data, seed, result, info);
  // The accepted factors seed the next refresh; copy-assignment reuses
  // the seeds' existing capacity (zero allocations in steady state).
  seed.low_rank = result.low_rank;
  seed.sparse = result.sparse;
  seed.mu = result.final_mu;
  seed.mu_floor = result.mu_floor;
  if (options_.incremental) {
    tracker.anchor(data, result, options_.finder.l0_rel_tolerance);
    info.anchored = tracker.ready();
  }
  return data;
}

core::ConstantComponent WindowRefresher::assemble_mixed(
    const linalg::Matrix& lat_data, const linalg::Matrix& bw_data,
    std::size_t cluster_size, const RefreshReport& report) {
  core::ConstantComponent component;
  component.solve_seconds =
      report.latency.solve_seconds + report.bandwidth.solve_seconds;
  // A tracker-served layer takes its rank, Norm(N_E) and constant from
  // the tracker, whose counts sit at the cutoff frozen at its anchor
  // (see IncrementalTracker::error_norm). A full-path layer counts at
  // the current window's cutoff exactly like assemble_component; when
  // it just anchored, the tracker counted E and A at that very cutoff,
  // so its error_norm() is that count and nothing is recounted.
  const auto layer = [&](const LayerRefresh& info,
                         const rpca::IncrementalTracker& tracker,
                         const rpca::Result& result,
                         const linalg::Matrix& data, std::size_t& rank,
                         double& error_norm, linalg::Matrix& constant) {
    if (info.incremental_used) {
      rank = tracker.rank();
      error_norm = tracker.error_norm();
      tracker.constant_row_into(constant);
      return;
    }
    rank = result.rank;
    error_norm = info.anchored
                     ? tracker.error_norm()
                     : rpca::relative_l0(result.sparse, data,
                                         options_.finder.l0_rel_tolerance);
    constant = core::constant_row(result.low_rank, cluster_size);
  };
  layer(report.latency, latency_tracker_, latency_result_, lat_data,
        component.latency_rank, component.latency_error_norm,
        constant_scratch_);
  layer(report.bandwidth, bandwidth_tracker_, bandwidth_result_, bw_data,
        component.bandwidth_rank, component.error_norm,
        bandwidth_constant_scratch_);
  component.constant = netmodel::matrices_to_performance(
      constant_scratch_, bandwidth_constant_scratch_);
  return component;
}

const linalg::Matrix& WindowRefresher::repair_layer(
    const linalg::Matrix& data, const rpca::WarmStart& seed,
    linalg::Matrix& repaired, LayerRefresh& info) {
  if (rpca::count_missing(data) == 0) return data;

  repaired = data;  // copy-assignment reuses the scratch capacity
  const linalg::Matrix* constant = nullptr;
  if (!seed.empty() && seed.low_rank.cols() == data.cols()) {
    // The previous refresh's low-rank factor IS the current rank-1
    // constant (its rows agree up to numerical noise); its column means
    // are the model's belief about each link.
    constant_scratch_.resize(1, data.cols());
    for (std::size_t j = 0; j < data.cols(); ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < seed.low_rank.rows(); ++i) {
        sum += seed.low_rank(i, j);
      }
      constant_scratch_(0, j) =
          sum / static_cast<double>(seed.low_rank.rows());
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

  // Each layer routes independently: row update, warm full solve, or
  // masked repair + solve (see refresh_layer). The masked front-end
  // runs inside the layer so a clean incremental refresh never copies.
  const linalg::Matrix* lat_data = nullptr;
  const linalg::Matrix* bw_data = nullptr;
  {
    obs::Span layer_span("online.refresh.latency");
    lat_data = &refresh_layer(window.latency_data(), slide_by_one, slot,
                              latency_seed_, latency_tracker_,
                              latency_result_, latency_repaired_,
                              report.latency);
    layer_span.set_value(report.latency.iterations);
  }
  {
    obs::Span layer_span("online.refresh.bandwidth");
    bw_data = &refresh_layer(window.bandwidth_data(), slide_by_one, slot,
                             bandwidth_seed_, bandwidth_tracker_,
                             bandwidth_result_, bandwidth_repaired_,
                             report.bandwidth);
    layer_span.set_value(report.bandwidth.iterations);
  }

  if (options_.collect_support_stats) {
    // The accepted sparse factors live in the Result buffers (full
    // path) or the tracker (row update); either way the cutoff is the
    // window's own, exactly as rpca::relative_l0 derives it. A layer
    // that just anchored froze that same cutoff in its tracker.
    const auto layer_stats = [&](const LayerRefresh& info,
                                 const rpca::IncrementalTracker& tracker,
                                 const rpca::Result& result,
                                 const linalg::Matrix& data) {
      const linalg::Matrix& sparse =
          info.incremental_used ? tracker.sparse() : result.sparse;
      const double cutoff =
          info.anchored
              ? tracker.cutoff()
              : options_.finder.l0_rel_tolerance * linalg::max_abs(data);
      return detect::support_stats(sparse, window.cluster_size(), cutoff);
    };
    const detect::SupportStats lat_stats = layer_stats(
        report.latency, latency_tracker_, latency_result_, *lat_data);
    report.latency.support_fraction = lat_stats.fraction;
    report.latency.support_concentration = lat_stats.concentration;
    report.latency.support_vm = lat_stats.vm;
    const detect::SupportStats bw_stats = layer_stats(
        report.bandwidth, bandwidth_tracker_, bandwidth_result_, *bw_data);
    report.bandwidth.support_fraction = bw_stats.fraction;
    report.bandwidth.support_concentration = bw_stats.concentration;
    report.bandwidth.support_vm = bw_stats.vm;
  }

  if (report.latency.incremental_used || report.bandwidth.incremental_used ||
      report.latency.anchored || report.bandwidth.anchored) {
    report.component = assemble_mixed(*lat_data, *bw_data,
                                      window.cluster_size(), report);
  } else {
    report.component = core::assemble_component(
        *lat_data, latency_result_, *bw_data, bandwidth_result_,
        window.cluster_size(), options_.finder.l0_rel_tolerance);
  }

  report.total_seconds = clock.seconds();
  return report;
}

void WindowRefresher::reset() {
  latency_seed_ = rpca::WarmStart{};
  bandwidth_seed_ = rpca::WarmStart{};
  latency_tracker_.reset();
  bandwidth_tracker_.reset();
  last_pushes_ = 0;
}

}  // namespace netconst::online
