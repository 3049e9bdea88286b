#include "online/refresher.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "core/constant_finder.hpp"
#include "detect/detector.hpp"
#include "linalg/norms.hpp"
#include "linalg/simd.hpp"
#include "obs/trace.hpp"
#include "rpca/masked.hpp"
#include "rpca/reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace netconst::online {
namespace {

cloud::SyntheticCloudConfig small_cloud_config(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 8;
  config.datacenter_racks = 4;
  config.seed = seed;
  return config;
}

SlidingWindow filled_window(cloud::SyntheticCloud& cloud,
                            std::size_t capacity, double interval) {
  SlidingWindow window(capacity);
  while (!window.full()) {
    window.push(cloud.now(), cloud.oracle_snapshot());
    cloud.advance(interval);
  }
  return window;
}

bool same_bits(const linalg::Matrix& a, const linalg::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(double)) == 0;
}

/// A layer's accepted factors: D from its Result, E from its tracker,
/// which owns the layer's E between refreshes.
rpca::Result accepted_factors(const rpca::Result& result,
                              const rpca::IncrementalTracker& tracker) {
  rpca::Result factors = result;
  factors.sparse = tracker.sparse();
  return factors;
}

double relative_frobenius_diff(const linalg::Matrix& a,
                               const linalg::Matrix& b) {
  linalg::Matrix diff = a;
  diff -= b;
  const double scale = linalg::frobenius_norm(b);
  return scale == 0.0 ? linalg::frobenius_norm(diff)
                      : linalg::frobenius_norm(diff) / scale;
}

/// The value of the newest flight-recorder span named `name` (-1 when
/// none was recorded).
double newest_span_value(const char* name) {
  double value = -1.0;
  for (const obs::SpanRecord& span :
       obs::FlightRecorder::instance().snapshot()) {
    if (span.name != nullptr && std::strcmp(span.name, name) == 0) {
      value = span.value;
    }
  }
  return value;
}

TEST(WindowRefresher, RequiresTwoRows) {
  SlidingWindow window(2);
  cloud::SyntheticCloud cloud(small_cloud_config(1));
  window.push(0.0, cloud.oracle_snapshot());
  WindowRefresher refresher;
  EXPECT_THROW(refresher.refresh(window), ContractViolation);
}

// A layer whose entries all square to zero, whether they are zero or
// small enough to underflow, has ||A||_F = 0: the refresh synthesizes
// D = E = 0 at rank 0 for it instead of fitting, and fits the other
// layer as usual.
TEST(WindowRefresher, ZeroAndUnderflowingLayersGetAZeroDecomposition) {
  for (const double alpha : {0.0, 1e-170}) {
    SCOPED_TRACE(alpha);
    netmodel::PerformanceMatrix snapshot(4);
    Rng rng(3);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j = 0; j < 4; ++j) {
        if (i != j) snapshot.set_link(i, j, {alpha, rng.uniform(1e8, 2e8)});
      }
    }
    SlidingWindow window(5);
    for (int t = 0; !window.full(); ++t) window.push(600.0 * t, snapshot);
    WindowRefresher refresher;
    refresher.refresh(window);
    const rpca::Result& latency = refresher.latency_result();
    EXPECT_EQ(latency.rank, 0u);
    EXPECT_EQ(linalg::max_abs(latency.low_rank), 0.0);
    EXPECT_EQ(linalg::max_abs(refresher.latency_tracker().sparse()), 0.0);
    EXPECT_EQ(refresher.bandwidth_result().rank, 1u);
  }
}

TEST(WindowRefresher, FirstRefreshIsColdAndSeedsTheNext) {
  cloud::SyntheticCloud cloud(small_cloud_config(2));
  SlidingWindow window = filled_window(cloud, 6, 600.0);
  WindowRefresher refresher;
  EXPECT_TRUE(refresher.latency_tracker().sparse().empty());

  // Each layer's span carries the fit's sweeps plus alternation steps,
  // at bootstrap and on the warm refresh alike.
  obs::FlightRecorder& recorder = obs::FlightRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  const auto expect_span_values = [&] {
    if (!obs::trace_enabled()) return;  // tracing compiled out
    EXPECT_GT(refresher.latency_result().polish_iterations, 0);
    EXPECT_EQ(newest_span_value("online.refresh.latency"),
              refresher.latency_result().polish_iterations);
    EXPECT_EQ(newest_span_value("online.refresh.bandwidth"),
              refresher.bandwidth_result().polish_iterations);
    recorder.clear();
  };

  const RefreshReport first = refresher.refresh(window);
  EXPECT_FALSE(first.latency.warm_attempted);
  EXPECT_FALSE(first.bandwidth.warm_attempted);
  EXPECT_FALSE(refresher.latency_tracker().sparse().empty());
  EXPECT_TRUE(refresher.latency_result().sparse.empty());
  EXPECT_GT(first.component.constant.size(), 0u);
  expect_span_values();

  // Same window again: the fit starts from the last E.
  const RefreshReport second = refresher.refresh(window);
  EXPECT_TRUE(second.latency.warm_attempted);
  EXPECT_TRUE(second.bandwidth.warm_attempted);
  EXPECT_TRUE(second.fully_warm());
  EXPECT_FALSE(second.latency.cold_fallback);
  EXPECT_FALSE(second.bandwidth.cold_fallback);
  expect_span_values();
  recorder.set_enabled(false);
}

TEST(WindowRefresher, WarmSlideMatchesColdWithinTolerance) {
  cloud::SyntheticCloud cloud(small_cloud_config(3));
  SlidingWindow window = filled_window(cloud, 8, 600.0);

  WindowRefresher warm_refresher;
  warm_refresher.refresh(window);  // cold solve of W1 -> seeds

  // Slide by one snapshot.
  cloud.advance(600.0);
  window.push(cloud.now(), cloud.oracle_snapshot());

  const RefreshReport warm = warm_refresher.refresh(window);
  EXPECT_TRUE(warm.fully_warm());

  WindowRefresher cold_refresher;  // no seeds: from-scratch solve of W2
  const RefreshReport cold = cold_refresher.refresh(window);

  // Same decomposition within tight tolerance (the acceptance bound).
  EXPECT_LT(relative_frobenius_diff(warm.component.constant.bandwidth(),
                                    cold.component.constant.bandwidth()),
            1e-6);
  EXPECT_LT(relative_frobenius_diff(warm.component.constant.latency(),
                                    cold.component.constant.latency()),
            1e-6);
  // Norm(N_E) is a discrete l0 count: an entry sitting exactly at the
  // significance threshold may flip on a ~1e-7 solver difference, so
  // allow the counts to differ by at most one cell.
  const double one_cell =
      1.0 / static_cast<double>(8 * (8 * 8 - 8));  // rows * offdiag
  EXPECT_NEAR(warm.component.error_norm, cold.component.error_norm,
              one_cell);
  EXPECT_NEAR(warm.component.latency_error_norm,
              cold.component.latency_error_norm, one_cell);

  // Neither path runs a solver: both are the fit alone, from the last
  // E or from zero.
  EXPECT_FALSE(cold.latency.warm_used);
  EXPECT_FALSE(cold.bandwidth.warm_used);
  for (const RefreshReport* report : {&warm, &cold}) {
    EXPECT_EQ(report->bandwidth.iterations, 0);
    EXPECT_EQ(report->latency.iterations, 0);
  }
}

// Options whose fit always caps: a two-step budget leaves the Huber fit
// one sweep and the alternation one step, and no step passes a 1e-300
// tolerance.
RefresherOptions polish_capping_options() {
  RefresherOptions options;
  options.rpca.polish_iterations = 2;
  options.rpca.polish_tolerance = 1e-300;
  return options;
}

// A forced polish cap. The test keeps the name it had when a capped fit
// was redone cold; now the capped fit is accepted as it is: nothing is
// redone, no solver iteration runs, and each layer's factors are the
// capped fit's, bit for bit reference::polish from the same prior E.
TEST(WindowRefresher, PolishCapForcesColdFallback) {
  cloud::SyntheticCloud cloud(small_cloud_config(4));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  const RefresherOptions options = polish_capping_options();
  WindowRefresher refresher(options);
  refresher.refresh(window);  // bootstrap, leaves the prior E
  rpca::Result latency_start = accepted_factors(
      refresher.latency_result(), refresher.latency_tracker());
  rpca::Result bandwidth_start = accepted_factors(
      refresher.bandwidth_result(), refresher.bandwidth_tracker());

  const RefreshReport report = refresher.refresh(window);
  for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
    EXPECT_TRUE(layer->warm_attempted);
    EXPECT_TRUE(layer->warm_used);
    EXPECT_FALSE(layer->cold_fallback);
    EXPECT_TRUE(layer->polish_capped);
    EXPECT_EQ(layer->iterations, 0);
  }

  rpca::reference::polish(window.latency_data(), options.rpca,
                          /*huber_start=*/true, latency_start);
  rpca::reference::polish(window.bandwidth_data(), options.rpca,
                          /*huber_start=*/true, bandwidth_start);
  const std::pair<rpca::Result, const rpca::Result*> layers[] = {
      {accepted_factors(refresher.latency_result(),
                        refresher.latency_tracker()),
       &latency_start},
      {accepted_factors(refresher.bandwidth_result(),
                        refresher.bandwidth_tracker()),
       &bandwidth_start}};
  for (const auto& [accepted, expected] : layers) {
    EXPECT_FALSE(accepted.polish_converged);
    EXPECT_EQ(accepted.polish_iterations, 2);
    EXPECT_EQ(accepted.polish_iterations, expected->polish_iterations);
    EXPECT_TRUE(same_bits(accepted.low_rank, expected->low_rank));
    EXPECT_TRUE(same_bits(accepted.sparse, expected->sparse));
  }
}

// What each layer records, with and without a forced cap: the fit from
// the prior E is attempted and used either way, cold_fallback never
// fires, and polish_capped alone tells the two apart, on the bootstrap
// fit from E = 0 as on the slide after it.
TEST(WindowRefresher, FallbackRecordsWhichTriggerFired) {
  for (const bool capping : {true, false}) {
    SCOPED_TRACE(capping ? "capping" : "default");
    const RefresherOptions options =
        capping ? polish_capping_options() : RefresherOptions{};
    cloud::SyntheticCloud cloud(small_cloud_config(5));
    SlidingWindow window = filled_window(cloud, 6, 600.0);
    WindowRefresher refresher(options);
    const RefreshReport first = refresher.refresh(window);
    for (const LayerRefresh* layer : {&first.latency, &first.bandwidth}) {
      EXPECT_FALSE(layer->warm_attempted);
      EXPECT_FALSE(layer->warm_used);
      EXPECT_FALSE(layer->cold_fallback);
      EXPECT_EQ(layer->polish_capped, capping);
    }
    cloud.advance(600.0);
    window.push(cloud.now(), cloud.oracle_snapshot());

    const RefreshReport report = refresher.refresh(window);
    for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
      EXPECT_TRUE(layer->warm_attempted);
      EXPECT_TRUE(layer->warm_used);
      EXPECT_FALSE(layer->cold_fallback);
      EXPECT_EQ(layer->polish_capped, capping);
      EXPECT_EQ(layer->iterations, 0);
    }
    EXPECT_EQ(refresher.latency_result().polish_converged, !capping);
    EXPECT_EQ(refresher.bandwidth_result().polish_converged, !capping);
  }
}

// The fit is all a full-path layer runs, and it needs a polish budget of
// two steps or more (the fit, then one alternation step): a smaller
// budget is a contract violation.
TEST(WindowRefresher, WarmAttemptNeedsATwoStepPolish) {
  for (const int budget : {0, 1}) {
    SCOPED_TRACE(budget);
    RefresherOptions options;
    options.rpca.polish_iterations = budget;
    EXPECT_THROW(WindowRefresher{options}, ContractViolation);
  }
}

// reset() drops each layer's prior E: the next refresh fits from zero,
// exactly as a fresh refresher does.
TEST(WindowRefresher, ResetDropsSeeds) {
  cloud::SyntheticCloud cloud(small_cloud_config(7));
  SlidingWindow window = filled_window(cloud, 6, 600.0);
  WindowRefresher refresher;
  refresher.refresh(window);
  refresher.refresh(window);
  EXPECT_FALSE(refresher.latency_tracker().sparse().empty());
  refresher.reset();
  EXPECT_TRUE(refresher.latency_tracker().sparse().empty());
  EXPECT_TRUE(refresher.bandwidth_tracker().sparse().empty());
  const RefreshReport report = refresher.refresh(window);
  EXPECT_FALSE(report.latency.warm_attempted);
  EXPECT_FALSE(report.bandwidth.warm_attempted);
  WindowRefresher fresh;
  fresh.refresh(window);
  EXPECT_TRUE(same_bits(refresher.latency_result().low_rank,
                        fresh.latency_result().low_rank));
  EXPECT_TRUE(same_bits(refresher.bandwidth_tracker().sparse(),
                        fresh.bandwidth_tracker().sparse()));
}

TEST(WindowRefresher, SeedInvalidatedByShapeChange) {
  cloud::SyntheticCloud cloud(small_cloud_config(8));
  SlidingWindow window = filled_window(cloud, 4, 600.0);
  WindowRefresher refresher;
  refresher.refresh(window);

  // A different window depth changes the data shape: the stale seed
  // must be bypassed, not fed to the solver.
  SlidingWindow bigger(6);
  cloud::SyntheticCloud cloud2(small_cloud_config(8));
  while (!bigger.full()) {
    bigger.push(cloud2.now(), cloud2.oracle_snapshot());
    cloud2.advance(600.0);
  }
  const RefreshReport report = refresher.refresh(bigger);
  EXPECT_FALSE(report.latency.warm_attempted);
  EXPECT_GT(report.component.constant.size(), 0u);
}

TEST(WindowRefresher, IncrementalSlideServesFromTracker) {
  cloud::SyntheticCloud cloud(small_cloud_config(21));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  WindowRefresher refresher(options);

  // The first refresh is a full solve that anchors both trackers.
  const RefreshReport first = refresher.refresh(window);
  EXPECT_FALSE(first.latency.incremental_used);
  EXPECT_FALSE(first.bandwidth.incremental_used);
  EXPECT_TRUE(first.latency.anchored);
  EXPECT_TRUE(first.bandwidth.anchored);

  // Slide by one snapshot: the refresh must be served by the tracked
  // subspace, not a solver run.
  cloud.advance(600.0);
  window.push(cloud.now(), cloud.oracle_snapshot());
  const RefreshReport second = refresher.refresh(window);
  EXPECT_TRUE(second.fully_incremental());
  EXPECT_FALSE(second.any_drift_fallback());
  EXPECT_FALSE(second.latency.warm_attempted);
  EXPECT_EQ(second.latency.iterations, 0);

  // The tracked constant agrees with a cold solve of the same window
  // to within the soft-threshold resolution of the row update.
  WindowRefresher cold_refresher;
  const RefreshReport cold = cold_refresher.refresh(window);
  EXPECT_LT(relative_frobenius_diff(second.component.constant.bandwidth(),
                                    cold.component.constant.bandwidth()),
            0.05);
  EXPECT_LT(relative_frobenius_diff(second.component.constant.latency(),
                                    cold.component.constant.latency()),
            0.05);
}

// A full-path layer takes its Norm(N_E), constant and support geometry
// from the tracker's anchor pass over the accepted factors, with the
// row update on or off. Each must equal the recount from the layer's
// Result buffers bit for bit: core::assemble_component (rpca::
// relative_l0 and core::constant_row) and detect::support_stats at the
// window's relative-l0 cutoff.
TEST(WindowRefresher, AnchoredLayerCountsMatchRecount) {
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "full path only");
    cloud::SyntheticCloud cloud(small_cloud_config(24));
    SlidingWindow window = filled_window(cloud, 6, 600.0);

    RefresherOptions options;
    options.incremental = incremental;
    options.collect_support_stats = true;
    WindowRefresher refresher(options);
    const double tol = options.l0_rel_tolerance;
    const std::size_t vms = window.cluster_size();

    // A cold refresh, the same window again (warm) and a two-snapshot
    // jump: every one takes the full path.
    for (int step = 0; step < 3; ++step) {
      SCOPED_TRACE(step);
      if (step == 2) {
        for (int k = 0; k < 2; ++k) {
          cloud.advance(600.0);
          window.push(cloud.now(), cloud.oracle_snapshot());
        }
      }
      const RefreshReport report = refresher.refresh(window);
      ASSERT_FALSE(report.latency.incremental_used);
      ASSERT_FALSE(report.bandwidth.incremental_used);
      EXPECT_EQ(report.latency.anchored, incremental);
      EXPECT_EQ(report.bandwidth.anchored, incremental);
      EXPECT_GT(report.component.latency_error_norm, 0.0);
      EXPECT_GT(report.component.error_norm, 0.0);
      EXPECT_GT(report.latency.support_fraction, 0.0);
      EXPECT_GT(report.bandwidth.support_fraction, 0.0);

      const core::ConstantComponent recount = core::assemble_component(
          window.latency_data(),
          accepted_factors(refresher.latency_result(),
                           refresher.latency_tracker()),
          window.bandwidth_data(),
          accepted_factors(refresher.bandwidth_result(),
                           refresher.bandwidth_tracker()),
          vms, tol);
      EXPECT_EQ(report.component.latency_rank, recount.latency_rank);
      EXPECT_EQ(report.component.bandwidth_rank, recount.bandwidth_rank);
      EXPECT_EQ(report.component.latency_error_norm,
                recount.latency_error_norm);
      EXPECT_EQ(report.component.error_norm, recount.error_norm);
      EXPECT_TRUE(same_bits(report.component.constant.latency(),
                            recount.constant.latency()));
      EXPECT_TRUE(same_bits(report.component.constant.bandwidth(),
                            recount.constant.bandwidth()));

      const auto expect_support = [&](const LayerRefresh& info,
                                      const rpca::IncrementalTracker& tracker,
                                      const linalg::Matrix& data) {
        const detect::SupportStats stats = detect::support_stats(
            tracker.sparse(), vms, tol * linalg::max_abs(data));
        EXPECT_EQ(info.support_fraction, stats.fraction);
        EXPECT_EQ(info.support_concentration, stats.concentration);
        EXPECT_EQ(info.support_vm, stats.vm);
      };
      expect_support(report.latency, refresher.latency_tracker(),
                     window.latency_data());
      expect_support(report.bandwidth, refresher.bandwidth_tracker(),
                     window.bandwidth_data());
    }
  }
}

TEST(WindowRefresher, IncrementalNeedsASingleSlide) {
  cloud::SyntheticCloud cloud(small_cloud_config(22));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  WindowRefresher refresher(options);
  refresher.refresh(window);

  // Same window again (no push): the full warm path runs and
  // re-anchors — the row update only covers one-snapshot slides.
  const RefreshReport same = refresher.refresh(window);
  EXPECT_FALSE(same.latency.incremental_used);
  EXPECT_TRUE(same.latency.warm_attempted);
  EXPECT_TRUE(same.latency.anchored);

  // Two pushes between refreshes: more than one row changed.
  for (int k = 0; k < 2; ++k) {
    cloud.advance(600.0);
    window.push(cloud.now(), cloud.oracle_snapshot());
  }
  const RefreshReport jumped = refresher.refresh(window);
  EXPECT_FALSE(jumped.latency.incremental_used);
  EXPECT_TRUE(jumped.latency.warm_attempted);
}

TEST(WindowRefresher, PlacementShiftTripsDriftFallback) {
  cloud::SyntheticCloud cloud(small_cloud_config(23));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  WindowRefresher refresher(options);
  refresher.refresh(window);  // anchors

  // A placement change: every cross-rack link of the next snapshot is
  // structurally different (5x the latency plus a switch hop, a fifth
  // of the bandwidth) while same-rack links are untouched. A uniform
  // rescale would stay inside the rank-1 model; this non-uniform shift
  // cannot, so the replaced row's sparse support explodes.
  cloud.advance(600.0);
  netmodel::PerformanceMatrix shifted = cloud.oracle_snapshot();
  const std::vector<std::size_t>& racks = cloud.placement();
  for (std::size_t i = 0; i < shifted.size(); ++i) {
    for (std::size_t j = 0; j < shifted.size(); ++j) {
      if (i == j || racks[i] == racks[j]) continue;
      netmodel::LinkParams link = shifted.link(i, j);
      link.alpha = link.alpha * 5.0 + 1e-3;
      link.beta /= 5.0;
      shifted.set_link(i, j, link);
    }
  }
  window.push(cloud.now(), shifted);

  const RefreshReport report = refresher.refresh(window);
  EXPECT_TRUE(report.any_drift_fallback());
  EXPECT_FALSE(report.latency.incremental_used &&
               report.bandwidth.incremental_used);

  // The fallback is an ordinary full solve of the current window: it
  // matches a cold refresher on the same data and re-anchors.
  const bool fell_back = report.latency.drift_fallback;
  if (fell_back) {
    EXPECT_GT(report.latency.drift,
              options.incremental_options.drift_threshold);
    EXPECT_TRUE(report.latency.anchored);
    WindowRefresher cold_refresher;
    const RefreshReport cold = cold_refresher.refresh(window);
    EXPECT_LT(relative_frobenius_diff(report.component.constant.latency(),
                                      cold.component.constant.latency()),
              1e-6);
  }
}

TEST(WindowRefresher, MaskedSlideRoutesToFullSolve) {
  cloud::SyntheticCloud cloud(small_cloud_config(24));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  WindowRefresher refresher(options);
  refresher.refresh(window);  // anchors

  // Slide with a hole: one link failed to measure. The row update
  // cannot see through NaNs, so the masked full path must serve the
  // refresh without feeding the hole to the tracker.
  cloud.advance(600.0);
  netmodel::PerformanceMatrix snapshot = cloud.oracle_snapshot();
  snapshot.mark_link_missing(1, 3);
  window.push(cloud.now(), snapshot);

  const RefreshReport report = refresher.refresh(window);
  EXPECT_FALSE(report.latency.incremental_used);
  EXPECT_TRUE(report.latency.incremental_masked);
  EXPECT_TRUE(report.bandwidth.incremental_masked);
  EXPECT_FALSE(report.any_drift_fallback());
  EXPECT_TRUE(report.latency.anchored);  // the full solve re-anchors
  EXPECT_GT(report.component.constant.size(), 0u);

  // The hole stays in the window until it ages out, and every slide
  // until then keeps taking the masked detour. Once the window is
  // clean again the tracker — re-anchored, never corrupted — serves
  // the slide incrementally.
  RefreshReport next;
  for (std::size_t k = 0; k < 6; ++k) {
    cloud.advance(600.0);
    window.push(cloud.now(), cloud.oracle_snapshot());
    next = refresher.refresh(window);
    if (k < 5) {
      EXPECT_TRUE(next.latency.incremental_masked) << "slide " << k;
    }
  }
  EXPECT_TRUE(next.fully_incremental());
}

TEST(WindowRefresher, ResetDropsTrackers) {
  cloud::SyntheticCloud cloud(small_cloud_config(25));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  WindowRefresher refresher(options);
  refresher.refresh(window);
  EXPECT_TRUE(refresher.latency_tracker().ready());

  refresher.reset();
  EXPECT_FALSE(refresher.latency_tracker().ready());
  EXPECT_FALSE(refresher.bandwidth_tracker().ready());

  // After reset the next slide cannot be incremental (no anchor, and
  // the push counter continuity was dropped with the seeds).
  cloud.advance(600.0);
  window.push(cloud.now(), cloud.oracle_snapshot());
  const RefreshReport report = refresher.refresh(window);
  EXPECT_FALSE(report.latency.incremental_used);
  EXPECT_TRUE(report.latency.anchored);
}

// Every full-path layer against its reference twin on a noisy N = 32
// window (the EC2-like band). The bootstrap layer is reference::polish
// with the Huber start from E = 0; every later layer starts from the
// last accepted E (incremental off) or from the tracker's E after its
// row update breached (incremental on). D and E match the twin bit for
// bit at every SIMD level, and no solver iteration runs.
TEST(WindowRefresher, WarmAttemptMatchesReferencePolishFromTheSeed) {
  namespace simd = linalg::simd;
  std::vector<simd::Level> levels{simd::Level::Scalar};
  if (simd::best_available_level() != simd::Level::Scalar) {
    levels.push_back(simd::best_available_level());
  }
  for (const simd::Level level : levels) {
    const simd::ScopedLevel scoped(level);
    for (const bool incremental : {false, true}) {
      SCOPED_TRACE(std::string(simd::level_name(level)) +
                   (incremental ? " incremental" : " full"));
      cloud::SyntheticCloudConfig config;
      config.cluster_size = 32;
      config.seed = 31;
      cloud::SyntheticCloud cloud(config);
      SlidingWindow window = filled_window(cloud, 10, 300.0);
      RefresherOptions options;
      options.incremental = incremental;
      WindowRefresher refresher(options);
      const rpca::Options& polish_opts = options.rpca;

      // The E a layer's fit starts from: zero at bootstrap, else the
      // last accepted E (the tracker holds it) or the tracker's after
      // its row update.
      const auto start_of = [&](const rpca::IncrementalTracker& tracker,
                                const linalg::Matrix& data) {
        rpca::Result start;
        start.low_rank.resize(data.rows(), data.cols());
        start.low_rank.fill(0.0);
        if (tracker.sparse().empty()) {
          start.sparse = start.low_rank;
        } else if (incremental) {
          rpca::IncrementalTracker twin = tracker;
          twin.update(data, window.slot_of_age(window.size() - 1));
          start.sparse = twin.sparse();
        } else {
          start.sparse = tracker.sparse();
        }
        return start;
      };
      int warm_layers = 0, cold_layers = 0;
      const auto check = [&](const LayerRefresh& info,
                             const rpca::Result& result, rpca::Result twin,
                             const linalg::Matrix& data) {
        (info.warm_used ? warm_layers : cold_layers) += 1;
        EXPECT_EQ(info.warm_attempted, info.warm_used);
        EXPECT_FALSE(info.cold_fallback);
        EXPECT_FALSE(info.polish_capped);
        EXPECT_EQ(info.iterations, 0);
        EXPECT_EQ(info.residual, 0.0);
        rpca::reference::polish(data, polish_opts, /*huber_start=*/true,
                                twin);
        EXPECT_TRUE(twin.polish_converged);
        EXPECT_EQ(result.polish_iterations, twin.polish_iterations);
        EXPECT_TRUE(same_bits(result.low_rank, twin.low_rank));
        EXPECT_TRUE(same_bits(result.sparse, twin.sparse));
      };
      for (int slide = 0; slide < 7; ++slide) {
        if (slide > 0) {
          cloud.advance(300.0);
          window.push(cloud.now(), cloud.oracle_snapshot());
        }
        const rpca::Result lat_start =
            start_of(refresher.latency_tracker(), window.latency_data());
        const rpca::Result bw_start =
            start_of(refresher.bandwidth_tracker(), window.bandwidth_data());
        const RefreshReport report = refresher.refresh(window);
        EXPECT_EQ(report.latency.warm_used, slide > 0);
        EXPECT_EQ(report.bandwidth.warm_used, slide > 0);
        if (incremental && slide > 0) {
          EXPECT_TRUE(report.latency.drift_fallback);
          EXPECT_TRUE(report.bandwidth.drift_fallback);
        }
        check(report.latency,
              accepted_factors(refresher.latency_result(),
                               refresher.latency_tracker()),
              lat_start, window.latency_data());
        check(report.bandwidth,
              accepted_factors(refresher.bandwidth_result(),
                               refresher.bandwidth_tracker()),
              bw_start, window.bandwidth_data());
      }
      EXPECT_EQ(warm_layers, 12);
      EXPECT_EQ(cold_layers, 2);
    }
  }
}

// The masked repair imputes holes from the prior rank-1 constant: the
// column means of the last accepted D after a full-path refresh, of the
// tracker's D after an incremental stretch, and none after reset(). The
// repaired window then takes the fit, so the layer's factors equal
// reference::polish of the window imputed from that constant.
TEST(WindowRefresher, MaskedRepairImputesFromThePriorConstant) {
  enum class Prior { FullPath, Tracker, None };
  for (const Prior prior : {Prior::FullPath, Prior::Tracker, Prior::None}) {
    SCOPED_TRACE(static_cast<int>(prior));
    cloud::SyntheticCloud cloud(small_cloud_config(26));
    SlidingWindow window = filled_window(cloud, 6, 600.0);
    RefresherOptions options;
    options.incremental = true;
    WindowRefresher refresher(options);
    refresher.refresh(window);  // full path: anchors
    const auto slide = [&](bool hole) {
      cloud.advance(600.0);
      netmodel::PerformanceMatrix snapshot = cloud.oracle_snapshot();
      if (hole) snapshot.mark_link_missing(1, 3);
      window.push(cloud.now(), snapshot);
    };
    if (prior == Prior::Tracker) {
      for (int k = 0; k < 3; ++k) {
        slide(false);
        ASSERT_TRUE(refresher.refresh(window).fully_incremental());
      }
    }
    if (prior == Prior::None) refresher.reset();

    // The expected repair and fit of the latency layer.
    const rpca::IncrementalTracker& tracker = refresher.latency_tracker();
    rpca::Result expected;
    const linalg::Matrix* constant = nullptr;
    linalg::Matrix prior_d, constant_row;
    if (prior != Prior::None) {
      if (prior == Prior::Tracker) {
        tracker.materialize_low_rank(prior_d);
        expected.sparse = tracker.sparse();
      } else {
        prior_d = refresher.latency_result().low_rank;
        expected.sparse = tracker.sparse();
      }
      constant_row.resize(1, prior_d.cols());
      for (std::size_t j = 0; j < prior_d.cols(); ++j) {
        double sum = 0.0;
        for (std::size_t i = 0; i < prior_d.rows(); ++i) sum += prior_d(i, j);
        constant_row(0, j) = sum / static_cast<double>(prior_d.rows());
      }
      constant = &constant_row;
    }
    slide(true);
    linalg::Matrix repaired = window.latency_data();
    const rpca::ImputeStats stats = rpca::impute_missing(repaired, constant);
    ASSERT_GT(stats.missing, 0u);
    if (prior == Prior::None) {
      expected.sparse.resize(repaired.rows(), repaired.cols());
      expected.sparse.fill(0.0);
    }
    expected.low_rank.resize(repaired.rows(), repaired.cols());
    rpca::reference::polish(repaired, options.rpca,
                            /*huber_start=*/true, expected);

    const RefreshReport report = refresher.refresh(window);
    for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
      EXPECT_EQ(layer->missing_entries, stats.missing);
      EXPECT_EQ(layer->imputed_from_constant,
                prior == Prior::None ? 0u : stats.missing);
      EXPECT_EQ(layer->warm_used, prior != Prior::None);
    }
    EXPECT_EQ(report.latency.incremental_masked, prior != Prior::None);
    EXPECT_TRUE(same_bits(refresher.latency_result().low_rank,
                          expected.low_rank));
    EXPECT_TRUE(same_bits(refresher.latency_tracker().sparse(),
                          expected.sparse));
  }
}

}  // namespace
}  // namespace netconst::online
