#include "online/refresher.hpp"

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "core/constant_finder.hpp"
#include "detect/detector.hpp"
#include "linalg/norms.hpp"
#include "linalg/simd.hpp"
#include "rpca/reference.hpp"
#include "support/error.hpp"

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

double relative_frobenius_diff(const linalg::Matrix& a,
                               const linalg::Matrix& b) {
  linalg::Matrix diff = a;
  diff -= b;
  const double scale = linalg::frobenius_norm(b);
  return scale == 0.0 ? linalg::frobenius_norm(diff)
                      : linalg::frobenius_norm(diff) / scale;
}

TEST(WindowRefresher, RequiresTwoRows) {
  SlidingWindow window(2);
  cloud::SyntheticCloud cloud(small_cloud_config(1));
  window.push(0.0, cloud.oracle_snapshot());
  WindowRefresher refresher;
  EXPECT_THROW(refresher.refresh(window), ContractViolation);
}

TEST(WindowRefresher, FirstRefreshIsColdAndSeedsTheNext) {
  cloud::SyntheticCloud cloud(small_cloud_config(2));
  SlidingWindow window = filled_window(cloud, 6, 600.0);
  WindowRefresher refresher;
  EXPECT_FALSE(refresher.has_seed());

  const RefreshReport first = refresher.refresh(window);
  EXPECT_FALSE(first.latency.warm_attempted);
  EXPECT_FALSE(first.bandwidth.warm_attempted);
  EXPECT_TRUE(refresher.has_seed());
  EXPECT_GT(first.component.constant.size(), 0u);

  // Same window again: the warm solve must be accepted.
  const RefreshReport second = refresher.refresh(window);
  EXPECT_TRUE(second.latency.warm_attempted);
  EXPECT_TRUE(second.bandwidth.warm_attempted);
  EXPECT_TRUE(second.fully_warm());
  EXPECT_FALSE(second.any_cold_fallback());
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

  // And the warm path runs no solver iterations at all.
  EXPECT_EQ(warm.bandwidth.iterations, 0);
  EXPECT_EQ(warm.latency.iterations, 0);
  EXPECT_GT(cold.bandwidth.iterations, 0);
  EXPECT_GT(cold.latency.iterations, 0);
}

// Options whose warm attempt always caps: a two-step budget leaves the
// Huber fit one sweep and the alternation one step, and no step passes
// a 1e-300 tolerance.
RefresherOptions polish_capping_options() {
  RefresherOptions options;
  options.finder.rpca.polish_iterations = 2;
  options.finder.rpca.polish_tolerance = 1e-300;
  return options;
}

TEST(WindowRefresher, PolishCapForcesColdFallback) {
  cloud::SyntheticCloud cloud(small_cloud_config(4));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  const RefresherOptions options = polish_capping_options();
  WindowRefresher refresher(options);
  refresher.refresh(window);  // cold, builds seeds

  const RefreshReport report = refresher.refresh(window);
  EXPECT_TRUE(report.latency.warm_attempted);
  EXPECT_TRUE(report.latency.cold_fallback);
  EXPECT_FALSE(report.latency.warm_used);
  EXPECT_TRUE(report.bandwidth.cold_fallback);
  EXPECT_TRUE(report.any_cold_fallback());
  EXPECT_EQ(report.latency.fallback_cause, FallbackCause::PolishCap);
  EXPECT_EQ(report.bandwidth.fallback_cause, FallbackCause::PolishCap);

  // The fallback result is a plain cold solve.
  WindowRefresher cold_refresher(options);
  const RefreshReport cold = cold_refresher.refresh(window);
  EXPECT_GT(report.latency.iterations, 0);
  EXPECT_EQ(report.latency.iterations, cold.latency.iterations);
  EXPECT_LT(relative_frobenius_diff(report.component.constant.bandwidth(),
                                    cold.component.constant.bandwidth()),
            1e-12);
}

// A rejected warm attempt records its trigger, and polish_capped
// describes the accepted (cold) solve's polish; an accepted one records
// neither.
TEST(WindowRefresher, FallbackRecordsWhichTriggerFired) {
  for (const bool capping : {true, false}) {
    SCOPED_TRACE(capping ? "capping" : "default");
    const RefresherOptions options =
        capping ? polish_capping_options() : RefresherOptions{};
    cloud::SyntheticCloud cloud(small_cloud_config(5));
    SlidingWindow window = filled_window(cloud, 6, 600.0);
    WindowRefresher refresher(options);
    const RefreshReport first = refresher.refresh(window);
    EXPECT_EQ(first.latency.fallback_cause, FallbackCause::None);
    cloud.advance(600.0);
    window.push(cloud.now(), cloud.oracle_snapshot());

    const RefreshReport report = refresher.refresh(window);
    for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
      EXPECT_TRUE(layer->warm_attempted);
      EXPECT_EQ(layer->cold_fallback, capping);
      EXPECT_EQ(layer->warm_used, !capping);
      EXPECT_EQ(layer->fallback_cause,
                capping ? FallbackCause::PolishCap : FallbackCause::None);
      EXPECT_EQ(layer->polish_capped, capping);
    }
  }
  EXPECT_STREQ(fallback_cause_name(FallbackCause::None), "none");
  EXPECT_STREQ(fallback_cause_name(FallbackCause::PolishCap), "polish_cap");
}

// A warm attempt is the polish alone, and only a budget of two steps or
// more (the fit, then one alternation step) can certify it: below that
// every refresh solves cold and none counts as a fallback.
TEST(WindowRefresher, WarmAttemptNeedsATwoStepPolish) {
  for (const int budget : {0, 1}) {
    SCOPED_TRACE(budget);
    cloud::SyntheticCloud cloud(small_cloud_config(5));
    SlidingWindow window = filled_window(cloud, 6, 600.0);
    RefresherOptions options;
    options.finder.rpca.polish_iterations = budget;
    WindowRefresher refresher(options);
    refresher.refresh(window);
    EXPECT_TRUE(refresher.has_seed());
    const RefreshReport report = refresher.refresh(window);
    for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
      EXPECT_FALSE(layer->warm_attempted);
      EXPECT_FALSE(layer->warm_used);
      EXPECT_FALSE(layer->cold_fallback);
      EXPECT_GT(layer->iterations, 0);
    }
  }
}

TEST(WindowRefresher, SolverWithoutSeedingReportsIgnoredSeed) {
  cloud::SyntheticCloud cloud(small_cloud_config(5));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.finder.solver = rpca::Solver::StablePcp;
  WindowRefresher refresher(options);
  refresher.refresh(window);

  const RefreshReport report = refresher.refresh(window);
  EXPECT_TRUE(report.latency.warm_attempted);
  EXPECT_TRUE(report.latency.seed_ignored);   // StablePcp cannot seed
  EXPECT_FALSE(report.latency.warm_used);
  EXPECT_FALSE(report.latency.cold_fallback);  // cold, but not a fallback
}

TEST(WindowRefresher, WarmStartCanBeDisabled) {
  cloud::SyntheticCloud cloud(small_cloud_config(6));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.warm_start = false;
  WindowRefresher refresher(options);
  refresher.refresh(window);
  const RefreshReport report = refresher.refresh(window);
  EXPECT_FALSE(report.latency.warm_attempted);
  EXPECT_FALSE(report.bandwidth.warm_attempted);
}

TEST(WindowRefresher, ResetDropsSeeds) {
  cloud::SyntheticCloud cloud(small_cloud_config(7));
  SlidingWindow window = filled_window(cloud, 6, 600.0);
  WindowRefresher refresher;
  refresher.refresh(window);
  EXPECT_TRUE(refresher.has_seed());
  refresher.reset();
  EXPECT_FALSE(refresher.has_seed());
  const RefreshReport report = refresher.refresh(window);
  EXPECT_FALSE(report.latency.warm_attempted);
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

// A full-path layer that just anchored takes its Norm(N_E) and its
// support cutoff from the tracker instead of recounting. Both must equal
// the recount bit for bit: rpca::relative_l0 of the accepted E, and a
// refresher with the tracker off (same full-path solves, so the same
// factors) that counts everything itself.
TEST(WindowRefresher, AnchoredLayerCountsMatchRecount) {
  cloud::SyntheticCloud cloud(small_cloud_config(24));
  SlidingWindow window = filled_window(cloud, 6, 600.0);

  RefresherOptions options;
  options.incremental = true;
  options.collect_support_stats = true;
  WindowRefresher refresher(options);
  RefresherOptions twin_options = options;
  twin_options.incremental = false;
  WindowRefresher twin(twin_options);
  const double tol = options.finder.l0_rel_tolerance;

  // A cold refresh, the same window again (warm) and a two-snapshot
  // jump: every one takes the full path and re-anchors.
  for (int step = 0; step < 3; ++step) {
    SCOPED_TRACE(step);
    if (step == 2) {
      for (int k = 0; k < 2; ++k) {
        cloud.advance(600.0);
        window.push(cloud.now(), cloud.oracle_snapshot());
      }
    }
    const RefreshReport report = refresher.refresh(window);
    const RefreshReport recount = twin.refresh(window);
    ASSERT_TRUE(report.latency.anchored);
    ASSERT_TRUE(report.bandwidth.anchored);
    ASSERT_FALSE(report.latency.incremental_used);
    ASSERT_FALSE(report.bandwidth.incremental_used);
    EXPECT_GT(report.component.latency_error_norm, 0.0);
    EXPECT_GT(report.component.error_norm, 0.0);
    EXPECT_GT(report.latency.support_fraction, 0.0);
    EXPECT_GT(report.bandwidth.support_fraction, 0.0);

    EXPECT_EQ(report.component.latency_error_norm,
              rpca::relative_l0(refresher.latency_tracker().sparse(),
                                window.latency_data(), tol));
    EXPECT_EQ(report.component.error_norm,
              rpca::relative_l0(refresher.bandwidth_tracker().sparse(),
                                window.bandwidth_data(), tol));
    EXPECT_EQ(report.component.latency_error_norm,
              recount.component.latency_error_norm);
    EXPECT_EQ(report.component.error_norm, recount.component.error_norm);
    EXPECT_EQ(report.component.constant.latency().max_abs_diff(
                  recount.component.constant.latency()),
              0.0);
    EXPECT_EQ(report.component.constant.bandwidth().max_abs_diff(
                  recount.component.constant.bandwidth()),
              0.0);

    const detect::SupportStats lat = detect::support_stats(
        refresher.latency_tracker().sparse(), window.cluster_size(),
        tol * linalg::max_abs(window.latency_data()));
    EXPECT_EQ(report.latency.support_fraction, lat.fraction);
    EXPECT_EQ(report.latency.support_concentration, lat.concentration);
    EXPECT_EQ(report.latency.support_vm, lat.vm);
    EXPECT_EQ(report.bandwidth.support_fraction,
              recount.bandwidth.support_fraction);
    EXPECT_EQ(report.bandwidth.support_concentration,
              recount.bandwidth.support_concentration);
    EXPECT_EQ(report.bandwidth.support_vm, recount.bandwidth.support_vm);
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

// The warm attempt against its reference twin on a noisy N = 32 window
// (the EC2-like band), with the seed taken from the last accepted
// result (incremental off) or from the tracker after its row update
// breached (incremental on). Every warm layer's D and E equal
// reference::polish with the Huber start, run from the seed's E, bit for
// bit at every SIMD level. Its constant also agrees with the seeded
// reference APG followed by that polish (the warm attempt that ran the
// APG first): the fit's fixed point does not depend on where it starts.
TEST(WindowRefresher, WarmAttemptMatchesReferencePolishFromTheSeed) {
  namespace simd = linalg::simd;
  std::vector<simd::Level> levels{simd::Level::Scalar};
  if (simd::best_available_level() != simd::Level::Scalar) {
    levels.push_back(simd::best_available_level());
  }
  constexpr std::size_t kCluster = 32;
  for (const simd::Level level : levels) {
    const simd::ScopedLevel scoped(level);
    for (const bool incremental : {false, true}) {
      SCOPED_TRACE(std::string(simd::level_name(level)) +
                   (incremental ? " incremental" : " full"));
      cloud::SyntheticCloudConfig config;
      config.cluster_size = kCluster;
      config.seed = 31;
      cloud::SyntheticCloud cloud(config);
      SlidingWindow window = filled_window(cloud, 10, 300.0);
      RefresherOptions options;
      options.incremental = incremental;
      WindowRefresher refresher(options);
      refresher.refresh(window);  // cold: seeds and anchors
      const rpca::Options& polish_opts = options.finder.rpca;

      // The seed a layer's warm attempt starts from.
      const auto seed_of = [&](const rpca::Result& last,
                               const rpca::IncrementalTracker& tracker,
                               const linalg::Matrix& data) {
        rpca::WarmStart seed;
        if (incremental) {
          rpca::IncrementalTracker twin = tracker;
          twin.update(data, window.slot_of_age(window.size() - 1));
          twin.seed_warm_start(seed);
        } else {
          seed = {last.low_rank, last.sparse, last.final_mu, last.mu_floor};
        }
        return seed;
      };
      int warm_layers = 0;
      const auto check = [&](const LayerRefresh& info,
                             const rpca::Result& result,
                             const rpca::WarmStart& seed,
                             const linalg::Matrix& data) {
        if (!info.warm_used) return;
        ++warm_layers;
        EXPECT_EQ(info.iterations, 0);
        EXPECT_EQ(info.residual, 0.0);
        rpca::Result twin;
        twin.low_rank = seed.low_rank;
        twin.sparse = seed.sparse;
        rpca::reference::polish(data, polish_opts, /*huber_start=*/true,
                                twin);
        EXPECT_TRUE(twin.polish_converged);
        EXPECT_EQ(result.polish_iterations, twin.polish_iterations);
        EXPECT_TRUE(same_bits(result.low_rank, twin.low_rank));
        EXPECT_TRUE(same_bits(result.sparse, twin.sparse));

        rpca::Options apg_opts = polish_opts;
        apg_opts.polish_iterations = 0;
        apg_opts.warm_start = seed;
        rpca::Result apg =
            rpca::reference::solve(data, rpca::Solver::Apg, apg_opts);
        rpca::reference::polish(data, polish_opts, apg.warm_started, apg);
        EXPECT_LT(
            relative_frobenius_diff(
                core::constant_row(result.low_rank, kCluster),
                core::constant_row(apg.low_rank, kCluster)),
            1e-9);
      };
      for (int slide = 0; slide < 6; ++slide) {
        cloud.advance(300.0);
        window.push(cloud.now(), cloud.oracle_snapshot());
        const rpca::WarmStart lat_seed =
            seed_of(refresher.latency_result(), refresher.latency_tracker(),
                    window.latency_data());
        const rpca::WarmStart bw_seed = seed_of(
            refresher.bandwidth_result(), refresher.bandwidth_tracker(),
            window.bandwidth_data());
        const RefreshReport report = refresher.refresh(window);
        if (incremental) {
          EXPECT_TRUE(report.latency.drift_fallback);
          EXPECT_TRUE(report.bandwidth.drift_fallback);
        }
        check(report.latency, refresher.latency_result(), lat_seed,
              window.latency_data());
        check(report.bandwidth, refresher.bandwidth_result(), bw_seed,
              window.bandwidth_data());
      }
      EXPECT_EQ(warm_layers, 12);
    }
  }
}

}  // namespace
}  // namespace netconst::online
