// Seeded-determinism regression: a chaos campaign is a pure function of
// its seeds. Two service runs with the same FaultPlan seeds must produce
// byte-identical fault event logs, identical per-tenant event sequences,
// and bit-identical constants — at 1 worker thread and at 8. This is the
// contract that makes every chaos failure replayable.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "faults/fault_provider.hpp"
#include "online/service.hpp"
#include "support/csv.hpp"

namespace netconst::online {
namespace {

constexpr std::size_t kTenants = 3;
constexpr std::size_t kSteps = 24;

struct CampaignResult {
  std::vector<std::string> fault_logs;     // per tenant, canonical text
  std::vector<std::string> event_streams;  // per tenant, canonical text
  std::vector<std::string> constants;      // per tenant, exact doubles
  std::vector<TenantStatus> statuses;
};

cloud::SyntheticCloudConfig tiny_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.datacenter_racks = 3;
  config.seed = seed;
  return config;
}

faults::FaultPlanConfig fault_config(std::uint64_t seed,
                                     double shift_time = 6000.0) {
  faults::FaultPlanConfig config;
  config.seed = seed;
  config.timeout_probability = 0.02;
  config.drop_probability = 0.08;
  config.storms.push_back({3000.0, 4500.0, 3.0});
  config.placement_changes.push_back({shift_time, 1, 2.0});
  return config;
}

std::string serialize_constant(const netmodel::PerformanceMatrix& matrix) {
  std::ostringstream out;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      if (i == j) continue;
      const netmodel::LinkParams link = matrix.link(i, j);
      out << format_double(link.alpha) << ',' << format_double(link.beta)
          << '\n';
    }
  }
  return out.str();
}

CampaignResult run_campaign(std::size_t threads, bool incremental = false,
                            bool detector = false,
                            std::size_t steps = kSteps) {
  ServiceOptions options;
  options.threads = threads;
  ConstantFinderService service(options);

  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  std::vector<std::unique_ptr<faults::FaultInjectionProvider>> providers;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    clouds.push_back(
        std::make_unique<cloud::SyntheticCloud>(tiny_cloud(100 + t)));
    // Detector campaigns script the shift after warmup (6 slides at the
    // 1500 s cadence) so verdicts actually fire within the run.
    providers.push_back(std::make_unique<faults::FaultInjectionProvider>(
        *clouds.back(),
        fault_config(200 + t, detector ? 12000.0 : 6000.0)));

    TenantConfig config;
    config.name = "tenant" + std::to_string(t);
    config.provider = providers.back().get();
    config.window_capacity = 4;
    config.snapshot_interval = 600.0;
    config.operation_gap = 300.0;
    config.scheduler.base_interval = 1500.0;
    config.refresher.incremental = incremental;
    if (detector) {
      config.detector_enabled = true;
      config.detector.direction_confirm_slides = config.window_capacity;
      config.scheduler.adaptive_interval = false;
    }
    config.seed = t + 1;
    service.add_tenant(config);
  }
  service.run(steps);

  CampaignResult result;
  const std::vector<Event> events = service.events().snapshot();
  for (std::size_t t = 0; t < kTenants; ++t) {
    result.fault_logs.push_back(providers[t]->fault_log().serialize());
    result.constants.push_back(
        serialize_constant(service.component(t).constant));
    result.statuses.push_back(service.status(t));

    // The global event order may interleave differently across thread
    // counts; each tenant's OWN sequence may not.
    std::ostringstream stream;
    const std::string name = "tenant" + std::to_string(t);
    for (const Event& event : events) {
      if (event.tenant != name) continue;
      stream << format_double(event.time) << ','
             << event_kind_name(event.kind) << ',' << event.detail << ','
             << format_double(event.value) << '\n';
    }
    result.event_streams.push_back(stream.str());
  }
  return result;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  for (std::size_t t = 0; t < kTenants; ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    EXPECT_EQ(a.fault_logs[t], b.fault_logs[t]);
    EXPECT_EQ(a.event_streams[t], b.event_streams[t]);
    EXPECT_EQ(a.constants[t], b.constants[t]);
    EXPECT_EQ(a.statuses[t].steps, b.statuses[t].steps);
    EXPECT_EQ(a.statuses[t].provider_time, b.statuses[t].provider_time);
    EXPECT_EQ(a.statuses[t].error_norm, b.statuses[t].error_norm);
    EXPECT_EQ(a.statuses[t].snapshots_ingested,
              b.statuses[t].snapshots_ingested);
    EXPECT_EQ(a.statuses[t].refreshes, b.statuses[t].refreshes);
    EXPECT_EQ(a.statuses[t].breaches, b.statuses[t].breaches);
    EXPECT_EQ(a.statuses[t].dropped_probes, b.statuses[t].dropped_probes);
    EXPECT_EQ(a.statuses[t].calibration_failures,
              b.statuses[t].calibration_failures);
    EXPECT_EQ(a.statuses[t].stale_rows_reused,
              b.statuses[t].stale_rows_reused);
    EXPECT_EQ(a.statuses[t].forced_recalibrations,
              b.statuses[t].forced_recalibrations);
    EXPECT_EQ(a.statuses[t].imputed_entries, b.statuses[t].imputed_entries);
    EXPECT_EQ(a.statuses[t].detector_verdicts,
              b.statuses[t].detector_verdicts);
    EXPECT_EQ(a.statuses[t].detector_recalibrations,
              b.statuses[t].detector_recalibrations);
  }
}

TEST(ChaosDeterminism, RepeatRunsAreByteIdentical) {
  const CampaignResult first = run_campaign(1);
  const CampaignResult second = run_campaign(1);
  for (std::size_t t = 0; t < kTenants; ++t) {
    EXPECT_FALSE(first.fault_logs[t].empty());
  }
  expect_identical(first, second);
}

TEST(ChaosDeterminism, OneAndEightThreadsAgreeByteForByte) {
  const CampaignResult single = run_campaign(1);
  const CampaignResult parallel = run_campaign(8);
  expect_identical(single, parallel);
}

// The incremental hot path under the same chaos plan (drops, storms, a
// placement change): the tracker's row updates, drift fallbacks and
// masked detours are sequential scalar code, so the campaign stays a
// pure function of its seeds at any thread count.
TEST(ChaosDeterminism, IncrementalCampaignIsThreadCountInvariant) {
  const CampaignResult single = run_campaign(1, true);
  const CampaignResult parallel = run_campaign(8, true);
  expect_identical(single, parallel);
  // And the incremental path actually engaged: serving constants from
  // the tracker changes what maintenance publishes, so at least one
  // tenant's constant must differ from the full-solve campaign.
  const CampaignResult full = run_campaign(1, false);
  bool any_diverged = false;
  for (std::size_t t = 0; t < kTenants; ++t) {
    any_diverged = any_diverged || single.constants[t] != full.constants[t];
  }
  EXPECT_TRUE(any_diverged);
}

// The change-point detector rides the refresh path: its verdict stream
// (ChangeDetected events, preemptive recalibrations) is per-tenant
// sequential scalar arithmetic, so a detector campaign must stay
// byte-identical across thread counts — and must actually produce
// verdicts, or the invariant is vacuous.
TEST(ChaosDeterminism, DetectorVerdictsAreThreadCountInvariant) {
  const CampaignResult single = run_campaign(1, false, true, 60);
  const CampaignResult parallel = run_campaign(8, false, true, 60);
  expect_identical(single, parallel);
  std::uint64_t verdicts = 0;
  for (const TenantStatus& status : single.statuses) {
    verdicts += status.detector_verdicts;
  }
  EXPECT_GE(verdicts, 1u);
}

}  // namespace
}  // namespace netconst::online
