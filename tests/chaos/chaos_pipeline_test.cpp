// Full-pipeline chaos scenarios: synthetic cloud -> fault injection ->
// ingestion -> masked RPCA -> advisor/scheduler, asserting the hard
// degradation invariants:
//   * the service NEVER throws under heavy probe loss, and its loss
//     counters conserve against the injected faults;
//   * the decomposition reconstructs every OBSERVED window entry;
//   * stale-row reuse and forced recalibration engage when measurement
//     quality collapses;
//   * a placement change (constant shift) is detected and recalibrated
//     away, and the recovered constant tracks the shifted oracle.
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "collective/collective_ops.hpp"
#include "core/strategy.hpp"
#include "faults/fault_provider.hpp"
#include "mapping/graphs.hpp"
#include "mapping/mapping.hpp"
#include "online/service.hpp"
#include "rpca/masked.hpp"
#include "rpca/rpca.hpp"
#include "support/rng.hpp"

namespace netconst::online {
namespace {

constexpr std::uint64_t kBytes = 8ull * 1024 * 1024;

cloud::SyntheticCloudConfig tiny_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.datacenter_racks = 3;
  config.seed = seed;
  return config;
}

TenantConfig tenant_config(const std::string& name,
                           cloud::NetworkProvider& provider) {
  TenantConfig config;
  config.name = name;
  config.provider = &provider;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  config.scheduler.base_interval = 1500.0;
  config.seed = 7;
  return config;
}

TEST(ChaosPipeline, ServiceSurvivesThirtyPercentProbeLoss) {
  cloud::SyntheticCloud inner(tiny_cloud(21));
  faults::FaultPlanConfig faults;
  faults.seed = 77;
  faults.timeout_probability = 0.05;
  faults.drop_probability = 0.25;
  faults::FaultInjectionProvider provider(inner, faults);

  ConstantFinderService service;
  service.add_tenant(tenant_config("lossy", provider));
  ASSERT_NO_THROW(service.run(40));

  const TenantStatus status = service.status(0);
  EXPECT_EQ(status.steps, 40u);
  EXPECT_GT(status.dropped_probes, 0u);
  EXPECT_GT(status.calibration_failures, 0u);

  // Conservation: every value the plan lost was observed by exactly one
  // consumer — an operation probe or a calibration probe (retries
  // included). Nothing is double-counted, nothing vanishes.
  EXPECT_EQ(provider.injected_value_losses(),
            status.dropped_probes + status.calibration_failures);

  // Counters, events and metrics tell one story.
  EXPECT_EQ(service.events().count(EventKind::ProbeDropped),
            status.dropped_probes);
  EXPECT_EQ(static_cast<std::uint64_t>(
                service.metrics().counter_value("online.dropped_probes")),
            status.dropped_probes);
  EXPECT_EQ(static_cast<std::uint64_t>(service.metrics().counter_value(
                "online.calibration_failures")),
            status.calibration_failures);

  // The constant stayed usable: every pairwise prediction is finite and
  // positive despite the loss rate.
  const auto n = provider.cluster_size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double t = service.component(0).constant.transfer_time(
          i, j, kBytes);
      EXPECT_TRUE(std::isfinite(t));
      EXPECT_GT(t, 0.0);
    }
  }
}

TEST(ChaosPipeline, ObservedEntriesReconstructThroughMaskedIngest) {
  cloud::SyntheticCloud inner(tiny_cloud(31));
  faults::FaultPlanConfig faults;
  faults.seed = 5;
  faults.drop_probability = 0.15;
  faults::FaultInjectionProvider provider(inner, faults);

  // No retries and no stale reuse: holes flow straight into the window,
  // exercising the masked front-end end to end.
  SlidingWindow window(5);
  IngestOptions ingest;
  ingest.calibration.max_retries = 0;
  ingest.max_missing_fraction = 1.0;
  SnapshotIngestor ingestor(provider, window, ingest);
  ingestor.fill(600.0);
  ASSERT_TRUE(window.full());
  EXPECT_GT(ingestor.missing_links(), 0u);

  for (const linalg::Matrix* layer :
       {&window.latency_data(), &window.bandwidth_data()}) {
    ASSERT_GT(rpca::count_missing(*layer), 0u);
    linalg::Matrix repaired = *layer;
    rpca::impute_missing(repaired);
    const rpca::Result result = rpca::solve(repaired);
    // D + E explains every entry that was actually measured.
    EXPECT_LT(rpca::masked_relative_residual(*layer, result.low_rank,
                                             result.sparse),
              1e-3);
  }

  // The refresher runs the same masked path internally and reports it.
  WindowRefresher refresher;
  const RefreshReport report = refresher.refresh(window);
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.missing_entries(),
            rpca::count_missing(window.latency_data()) +
                rpca::count_missing(window.bandwidth_data()));
  EXPECT_TRUE(std::isfinite(report.component.error_norm));
}

TEST(ChaosPipeline, CollapsedMeasurementsForceStaleReuseAndRecalibration) {
  cloud::SyntheticCloud inner(tiny_cloud(41));
  faults::FaultPlanConfig faults;
  faults.seed = 13;
  faults.drop_probability = 0.9;
  faults::FaultInjectionProvider provider(inner, faults);

  TenantConfig config = tenant_config("degraded", provider);
  config.ingest.calibration.max_retries = 0;
  config.forced_recalibration_after = 3;

  ConstantFinderService service;
  service.add_tenant(config);
  ASSERT_NO_THROW(service.run(16));

  const TenantStatus status = service.status(0);
  // 90% loss means every post-bootstrap calibration is mostly holes:
  // the stale-reuse policy must engage (3 of the 4 bootstrap rows
  // already re-push the first snapshot), and streaks of 3 lost
  // operation probes must force maintenance.
  EXPECT_GT(status.stale_rows_reused, 0u);
  EXPECT_GT(status.forced_recalibrations, 0u);
  EXPECT_GT(status.imputed_entries, 0u);
  EXPECT_EQ(service.events().count(EventKind::ForcedRecalibration),
            status.forced_recalibrations);
  EXPECT_EQ(service.events().count(EventKind::StaleRowReused),
            status.stale_rows_reused);
  EXPECT_EQ(static_cast<std::uint64_t>(service.metrics().counter_value(
                "online.recalibrations.forced")),
            status.forced_recalibrations);
  // Forced maintenances are real recalibrations, not a separate path.
  EXPECT_GE(status.refreshes, 1u + status.forced_recalibrations);
}

TEST(ChaosPipeline, DegradedConstantStillDrivesPlannersEndToEnd) {
  // The last pipeline stage: a constant recovered under 30% probe loss
  // must still feed the FNF tree planner and the greedy mapper — valid,
  // finite plans, no throws. The advisor's output is the product; a
  // degraded model that poisons planning has failed even if the service
  // stayed up.
  cloud::SyntheticCloud inner(tiny_cloud(61));
  faults::FaultPlanConfig faults;
  faults.seed = 19;
  faults.timeout_probability = 0.05;
  faults.drop_probability = 0.25;
  faults::FaultInjectionProvider provider(inner, faults);

  ConstantFinderService service;
  service.add_tenant(tenant_config("planner", provider));
  ASSERT_NO_THROW(service.run(30));
  EXPECT_GT(service.status(0).dropped_probes, 0u);

  const netmodel::PerformanceMatrix& constant =
      service.component(0).constant;
  core::PlanContext context;
  context.guidance = &constant;
  context.bytes = kBytes;
  const std::size_t n = provider.cluster_size();

  const collective::CommTree tree =
      core::plan_tree(core::Strategy::Rpca, n, 0, context);
  EXPECT_TRUE(tree.complete());
  const double broadcast = collective::collective_time(
      tree, constant, collective::Collective::Broadcast, kBytes);
  EXPECT_TRUE(std::isfinite(broadcast));
  EXPECT_GT(broadcast, 0.0);

  Rng rng(23);
  const mapping::TaskGraph tasks = mapping::random_task_graph(n, rng);
  const mapping::Mapping mapped =
      core::plan_mapping(core::Strategy::Rpca, tasks, context);
  EXPECT_TRUE(mapping::is_valid_mapping(mapped, n, n));
  const double cost = mapping::mapping_cost(mapped, tasks, constant);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
}

TEST(ChaosPipeline, PlacementChangeIsDetectedAndRecalibratedAway) {
  cloud::SyntheticCloud inner(tiny_cloud(51));
  faults::FaultPlanConfig faults;
  faults.placement_changes.push_back({9000.0, 0, 2.0});
  faults::FaultInjectionProvider provider(inner, faults);

  TenantConfig config = tenant_config("migrated", provider);
  config.scheduler.threshold = 0.5;  // a 2x shift is a clear breach

  ConstantFinderService service;
  service.add_tenant(config);
  ASSERT_NO_THROW(service.run(60));

  // The shift fires the threshold policy (operations touching VM 0 take
  // 2x their expected time) and maintenance runs after the change.
  const TenantStatus status = service.status(0);
  EXPECT_GE(status.breaches, 1u);
  bool recalibrated_after_shift = false;
  for (const Event& event : service.events().snapshot()) {
    if (event.kind == EventKind::Recalibration && event.time > 9000.0) {
      recalibrated_after_shift = true;
    }
  }
  EXPECT_TRUE(recalibrated_after_shift);

  // After enough post-shift snapshots the constant tracks the SHIFTED
  // oracle: predictions for links touching VM 0 follow the doubled
  // transfer times rather than the stale pre-shift constant.
  const netmodel::PerformanceMatrix oracle = provider.oracle_snapshot();
  const auto n = provider.cluster_size();
  double worst = 0.0;
  for (std::size_t j = 1; j < n; ++j) {
    const double predicted =
        service.component(0).constant.transfer_time(0, j, kBytes);
    const double truth = oracle.transfer_time(0, j, kBytes);
    worst = std::max(worst, std::abs(predicted - truth) / truth);
  }
  EXPECT_LT(worst, 0.5);  // far closer to 2x truth than to the 1x stale one
}

}  // namespace
}  // namespace netconst::online
