// Deterministic multi-tenant smoke test for ConstantFinderService: the
// per-tenant trajectory must not depend on worker-thread interleaving,
// and the bookkeeping (status, metrics, events) must stay consistent.
#include "online/service.hpp"

#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "faults/fault_provider.hpp"
#include "support/error.hpp"

namespace netconst::online {
namespace {

cloud::SyntheticCloudConfig tiny_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.datacenter_racks = 3;
  config.seed = seed;
  return config;
}

TenantConfig tenant_config(const std::string& name,
                           cloud::NetworkProvider& provider,
                           std::uint64_t seed) {
  TenantConfig config;
  config.name = name;
  config.provider = &provider;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  // Base interval of 1500 s = 5 operation gaps: interval recalibrations
  // fire within a short run even without breaches.
  config.scheduler.base_interval = 1500.0;
  config.seed = seed;
  return config;
}

/// Three chaos-wrapped tenants with the incremental hot path and the
/// detector on, so every accounting path fires in a short run: probe
/// loss with stale-row reuse, imputation and forced maintenance, a
/// placement shift, and an outlier storm.
struct ChaosFleet {
  ChaosFleet() {
    faults::FaultPlanConfig lossy;
    lossy.seed = 13;
    lossy.drop_probability = 0.6;
    faults::FaultPlanConfig shifted;
    shifted.placement_changes.push_back({4000.0, 0, 3.0});
    faults::FaultPlanConfig stormy;
    stormy.storms.push_back({3000.0, 6000.0, 6.0});
    std::uint64_t t = 0;
    for (const faults::FaultPlanConfig& plan : {lossy, shifted, stormy}) {
      cloud::SyntheticCloudConfig network = tiny_cloud(60 + t);
      if (t == 2) {
        // Frequent heavy spikes, and a two-step polish that never
        // settles, so every full-path fit is accepted capped.
        network.mean_quiet_duration = 1200.0;
        network.mean_spike_duration = 600.0;
        network.max_spike_bandwidth_factor = 8.0;
        network.max_spike_latency_factor = 5.0;
      }
      clouds.push_back(std::make_unique<cloud::SyntheticCloud>(network));
      providers.push_back(std::make_unique<faults::FaultInjectionProvider>(
          *clouds.back(), plan));
      TenantConfig config = tenant_config("chaos" + std::to_string(t),
                                          *providers.back(), 300 + t);
      config.refresher.incremental = true;
      if (t == 2) {
        config.refresher.rpca.polish_iterations = 2;
        config.refresher.rpca.polish_tolerance = 1e-300;
      }
      config.detector_enabled = true;
      config.ingest.calibration.max_retries = 0;
      config.forced_recalibration_after = 3;
      service.add_tenant(config);
      ++t;
    }
  }

  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  std::vector<std::unique_ptr<faults::FaultInjectionProvider>> providers;
  ConstantFinderService service;
};

std::map<std::string, double> counters_of(const MetricsRegistry& metrics) {
  std::map<std::string, double> counters;
  for (const obs::MetricSample& sample : metrics.samples()) {
    if (sample.type == obs::MetricType::Counter) {
      counters[sample.name] = sample.value;
    }
  }
  return counters;
}

std::set<std::string> names_of(const MetricsRegistry& metrics) {
  std::set<std::string> names;
  for (const obs::MetricSample& sample : metrics.samples()) {
    names.insert(sample.name);
  }
  return names;
}

TEST(ConstantFinderService, TenantRegistrationContracts) {
  ConstantFinderService service;
  cloud::SyntheticCloud cloud_a(tiny_cloud(1));
  cloud::SyntheticCloud cloud_b(tiny_cloud(2));

  TenantConfig nameless = tenant_config("", cloud_a, 1);
  EXPECT_THROW(service.add_tenant(nameless), ContractViolation);

  TenantConfig no_provider = tenant_config("a", cloud_a, 1);
  no_provider.provider = nullptr;
  EXPECT_THROW(service.add_tenant(no_provider), ContractViolation);

  EXPECT_EQ(service.add_tenant(tenant_config("a", cloud_a, 1)), 0u);
  EXPECT_THROW(service.add_tenant(tenant_config("a", cloud_b, 2)),
               ContractViolation);  // duplicate name
  EXPECT_THROW(service.add_tenant(tenant_config("b", cloud_a, 2)),
               ContractViolation);  // shared provider
  EXPECT_EQ(service.add_tenant(tenant_config("b", cloud_b, 2)), 1u);
  EXPECT_EQ(service.tenant_count(), 2u);
}

TEST(ConstantFinderService, RunWithNoTenantsThrows) {
  ConstantFinderService service;
  EXPECT_THROW(service.run(1), ContractViolation);
}

TEST(ConstantFinderService, SmokeRunKeepsBookkeepingConsistent) {
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  for (std::uint64_t t = 0; t < 3; ++t) {
    clouds.push_back(
        std::make_unique<cloud::SyntheticCloud>(tiny_cloud(10 + t)));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), *clouds.back(), t + 1));
  }

  // Long enough that even a Stable tenant (interval stretched 4x to
  // 6000 s) passes its recalibration deadline: 24 x 300 s = 7200 s.
  constexpr std::size_t kSteps = 24;
  service.run(kSteps);

  std::uint64_t total_refreshes = 0;
  std::uint64_t total_snapshots = 0;
  for (std::size_t t = 0; t < 3; ++t) {
    const TenantStatus status = service.status(t);
    EXPECT_EQ(status.steps, kSteps);
    // Bootstrap filled the whole window, and every recalibration adds one.
    EXPECT_GE(status.snapshots_ingested, 4u);
    EXPECT_GE(status.refreshes, 1u);
    // Bootstrap is a cold solve of both layers.
    EXPECT_GE(status.cold_solves, 2u);
    // 12 steps x 300 s past the 1500 s interval: maintenance must have
    // run at least once beyond bootstrap.
    EXPECT_EQ(status.refreshes,
              1u + status.breaches + status.interval_recalibrations);
    EXPECT_GE(status.breaches + status.interval_recalibrations, 1u);
    EXPECT_GT(status.error_norm, 0.0);
    EXPECT_EQ(service.component(t).constant.size(), 6u);
    total_refreshes += status.refreshes;
    total_snapshots += status.snapshots_ingested;
  }

  // Global metrics aggregate the per-tenant ones exactly.
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.operations"),
                   3.0 * kSteps);
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.refreshes"),
                   static_cast<double>(total_refreshes));
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.snapshots_ingested"),
                   static_cast<double>(total_snapshots));
  EXPECT_EQ(
      metrics.histogram_summary("online.operation_relative_error").count,
      3u * kSteps);

  // The event log saw every refresh (bootstrap Refresh + Recalibration).
  const EventLog& events = service.events();
  EXPECT_EQ(events.count(EventKind::Refresh) +
                events.count(EventKind::Recalibration),
            total_refreshes);
  EXPECT_EQ(events.count(EventKind::SnapshotIngested),
            total_snapshots - 3u * 4u);  // bootstrap fills are not events

  // Report renders without blowing up.
  std::ostringstream report;
  service.print_report(report);
  EXPECT_NE(report.str().find("tenant0"), std::string::npos);
}

TEST(ConstantFinderService, BootstrapIsOneColdRefreshOfBothLayers) {
  ConstantFinderService service;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  constexpr std::size_t kTenants = 3;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    clouds.push_back(
        std::make_unique<cloud::SyntheticCloud>(tiny_cloud(70 + t)));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), *clouds.back(), t + 1));
  }
  service.run(0);  // bootstrap only

  for (std::size_t t = 0; t < kTenants; ++t) {
    const TenantStatus status = service.status(t);
    EXPECT_EQ(status.steps, 0u);
    EXPECT_EQ(status.refreshes, 1u);
    EXPECT_EQ(status.cold_solves, 2u);
    EXPECT_EQ(status.warm_solves, 0u);
    EXPECT_EQ(status.cold_fallbacks, 0u);
  }
  const MetricsRegistry& metrics = service.metrics();
  EXPECT_DOUBLE_EQ(metrics.counter_value("rpca.svd.path.full"),
                   2.0 * kTenants);
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.cold_solves"),
                   2.0 * kTenants);
  EXPECT_DOUBLE_EQ(metrics.counter_value("online.level_changes"), 0.0);
  EXPECT_EQ(service.events().count(EventKind::Refresh), kTenants);
}

TEST(ConstantFinderService, TenantCountersSumToServiceTotals) {
  ChaosFleet fleet;
  fleet.service.run(40);
  const std::map<std::string, double> counters =
      counters_of(fleet.service.metrics());
  const auto tenant_sum = [&](const std::string& metric) {
    double sum = 0.0;
    for (std::size_t t = 0; t < fleet.service.tenant_count(); ++t) {
      const auto it = counters.find(
          "tenant." + fleet.service.status(t).name + "." + metric);
      EXPECT_NE(it, counters.end()) << metric;
      if (it != counters.end()) sum += it->second;
    }
    return sum;
  };

  // Every online.X counter with a tenant.<name>.X twin is its sum.
  std::size_t twins = 0;
  for (const auto& [name, value] : counters) {
    const std::string prefix = "online.";
    if (name.rfind(prefix, 0) != 0) continue;
    const std::string metric = name.substr(prefix.size());
    if (counters.count("tenant.chaos0." + metric) == 0) continue;
    EXPECT_DOUBLE_EQ(value, tenant_sum(metric)) << name;
    ++twins;
  }
  EXPECT_EQ(twins, 11u);
  // The per-tenant series whose total lives under another name.
  EXPECT_DOUBLE_EQ(counters.at("rpca.incremental.updates"),
                   tenant_sum("incremental_updates"));
  EXPECT_DOUBLE_EQ(counters.at("rpca.incremental.drift_fallbacks"),
                   tenant_sum("drift_fallbacks"));
  EXPECT_DOUBLE_EQ(counters.at("online.recalibrations.forced"),
                   tenant_sum("forced_recalibrations"));
  EXPECT_DOUBLE_EQ(counters.at("online.recalibrations.detector"),
                   tenant_sum("detector_recalibrations"));
  EXPECT_DOUBLE_EQ(counters.at("detect.verdicts.placement_shift") +
                       counters.at("detect.verdicts.outlier_storm") +
                       counters.at("detect.verdicts.baseline_drift"),
                   tenant_sum("detector_verdicts"));
  // Each layer refresh took exactly one decomposition path.
  EXPECT_DOUBLE_EQ(counters.at("rpca.svd.path.full") +
                       counters.at("rpca.svd.path.incremental"),
                   2.0 * counters.at("online.refreshes"));

  // The campaign reached the paths it is meant to check.
  EXPECT_GT(counters.at("online.stale_rows_reused"), 0.0);
  EXPECT_GT(counters.at("online.imputed_entries"), 0.0);
  EXPECT_GT(counters.at("online.dropped_probes"), 0.0);
  EXPECT_GT(counters.at("online.recalibrations.forced"), 0.0);
  EXPECT_GT(fleet.service.events().count(EventKind::PolishCapped), 0u);
  EXPECT_GT(counters.at("rpca.incremental.drift_fallbacks"), 0.0);
  EXPECT_GT(counters.at("rpca.incremental.updates"), 0.0);
}

TEST(ConstantFinderService, MetricSetIsFixedAtRegistration) {
  // Every series exists, at zero, from add_tenant on: a scrape before
  // the first refresh sees the same names as one after a campaign.
  ChaosFleet fleet;
  const std::set<std::string> registered = names_of(fleet.service.metrics());
  EXPECT_TRUE(registered.count("online.recalibrations.forced"));
  fleet.service.run(0);
  EXPECT_EQ(names_of(fleet.service.metrics()), registered);
  fleet.service.run(40);
  EXPECT_EQ(names_of(fleet.service.metrics()), registered);
}

TEST(ConstantFinderService, RepeatedRunContinuesTheCampaign) {
  ConstantFinderService service;
  cloud::SyntheticCloud cloud(tiny_cloud(20));
  service.add_tenant(tenant_config("t", cloud, 3));
  service.run(4);
  const double time_after_first = service.status(0).provider_time;
  service.run(4);
  const TenantStatus status = service.status(0);
  EXPECT_EQ(status.steps, 8u);
  EXPECT_GT(status.provider_time, time_after_first);
  // Second run() must not re-bootstrap.
  EXPECT_EQ(service.status(0).snapshots_ingested,
            4u + status.refreshes - 1u);
}

TEST(ConstantFinderService, TrajectoryIndependentOfThreadCount) {
  // Same tenant configs driven by a single worker and by four workers
  // must produce bit-identical trajectories: tenants share no mutable
  // state, so the interleaving cannot leak into the results.
  const auto drive = [](std::size_t threads) {
    ServiceOptions options;
    options.threads = threads;
    auto service = std::make_unique<ConstantFinderService>(options);
    std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
    for (std::uint64_t t = 0; t < 3; ++t) {
      clouds.push_back(
          std::make_unique<cloud::SyntheticCloud>(tiny_cloud(30 + t)));
      service->add_tenant(tenant_config("tenant" + std::to_string(t),
                                        *clouds.back(), 100 + t));
    }
    service->run(10);
    struct Outcome {
      TenantStatus status;
      core::ConstantComponent component;
    };
    std::vector<Outcome> outcomes;
    for (std::size_t t = 0; t < 3; ++t) {
      outcomes.push_back({service->status(t), service->component(t)});
    }
    return outcomes;
  };

  const auto serial = drive(1);
  const auto threaded = drive(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    const TenantStatus& a = serial[t].status;
    const TenantStatus& b = threaded[t].status;
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_DOUBLE_EQ(a.provider_time, b.provider_time);
    EXPECT_EQ(a.error_norm, b.error_norm);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.snapshots_ingested, b.snapshots_ingested);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.warm_solves, b.warm_solves);
    EXPECT_EQ(a.cold_solves, b.cold_solves);
    EXPECT_EQ(a.breaches, b.breaches);
    EXPECT_EQ(a.interval_recalibrations, b.interval_recalibrations);
    EXPECT_EQ(a.suppressed_recalibrations, b.suppressed_recalibrations);
    EXPECT_EQ(serial[t].component.constant.bandwidth().max_abs_diff(
                  threaded[t].component.constant.bandwidth()),
              0.0);
    EXPECT_EQ(serial[t].component.constant.latency().max_abs_diff(
                  threaded[t].component.constant.latency()),
              0.0);
  }
}

TEST(ConstantFinderService, ConcurrentTenantsMatchTenantsRunAlone) {
  // A tenant solving while other tenants solve concurrently on the
  // shared runtime must land exactly where it lands solving alone —
  // at every driver parallelism and quantum size. This is the paper's
  // reproducibility requirement for the multi-tenant service: results
  // must not depend on co-tenancy.
  struct Outcome {
    TenantStatus status;
    core::ConstantComponent component;
  };
  const auto outcome_of = [](const ConstantFinderService& service,
                             std::size_t t) {
    return Outcome{service.status(t), service.component(t)};
  };
  constexpr std::size_t kSteps = 10;

  // Baseline: each tenant alone on a single-threaded service.
  std::vector<Outcome> alone;
  for (std::uint64_t t = 0; t < 2; ++t) {
    ServiceOptions options;
    options.threads = 1;
    ConstantFinderService service(options);
    cloud::SyntheticCloud cloud(tiny_cloud(40 + t));
    service.add_tenant(
        tenant_config("tenant" + std::to_string(t), cloud, 200 + t));
    service.run(kSteps);
    alone.push_back(outcome_of(service, 0));
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t slice : {1u, 3u, 16u}) {
      ServiceOptions options;
      options.threads = threads;
      options.batch_slice = slice;
      ConstantFinderService service(options);
      std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
      for (std::uint64_t t = 0; t < 2; ++t) {
        clouds.push_back(
            std::make_unique<cloud::SyntheticCloud>(tiny_cloud(40 + t)));
        service.add_tenant(tenant_config("tenant" + std::to_string(t),
                                         *clouds.back(), 200 + t));
      }
      service.run(kSteps);
      for (std::size_t t = 0; t < 2; ++t) {
        const Outcome together = outcome_of(service, t);
        const TenantStatus& a = alone[t].status;
        const TenantStatus& b = together.status;
        EXPECT_EQ(a.steps, b.steps);
        EXPECT_DOUBLE_EQ(a.provider_time, b.provider_time);
        EXPECT_EQ(a.error_norm, b.error_norm);
        EXPECT_EQ(a.level, b.level);
        EXPECT_EQ(a.snapshots_ingested, b.snapshots_ingested);
        EXPECT_EQ(a.refreshes, b.refreshes);
        EXPECT_EQ(a.warm_solves, b.warm_solves);
        EXPECT_EQ(a.cold_solves, b.cold_solves);
        EXPECT_EQ(a.breaches, b.breaches);
        EXPECT_EQ(a.interval_recalibrations, b.interval_recalibrations);
        EXPECT_EQ(alone[t].component.constant.bandwidth().max_abs_diff(
                      together.component.constant.bandwidth()),
                  0.0)
            << "threads=" << threads << " slice=" << slice;
        EXPECT_EQ(alone[t].component.constant.latency().max_abs_diff(
                      together.component.constant.latency()),
                  0.0)
            << "threads=" << threads << " slice=" << slice;
      }
    }
  }
}

TEST(ConstantFinderService, SharedGlobalPoolByDefault) {
  // threads == 0 shares ThreadPool::global(): tenants still finish and
  // the trajectory matches a dedicated single-threaded pool.
  ServiceOptions dedicated;
  dedicated.threads = 1;
  ConstantFinderService serial(dedicated);
  cloud::SyntheticCloud cloud_a(tiny_cloud(50));
  serial.add_tenant(tenant_config("t", cloud_a, 7));
  serial.run(6);

  ConstantFinderService shared;  // default options
  cloud::SyntheticCloud cloud_b(tiny_cloud(50));
  shared.add_tenant(tenant_config("t", cloud_b, 7));
  shared.run(6);

  EXPECT_DOUBLE_EQ(serial.status(0).provider_time,
                   shared.status(0).provider_time);
  EXPECT_EQ(serial.status(0).refreshes, shared.status(0).refreshes);
  EXPECT_EQ(serial.component(0).constant.bandwidth().max_abs_diff(
                shared.component(0).constant.bandwidth()),
            0.0);
}

}  // namespace
}  // namespace netconst::online
