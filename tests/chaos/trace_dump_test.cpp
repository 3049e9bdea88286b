// Chaos x observability: an injected placement shift is an anomaly, so
// activating it must freeze the flight recorder into an auto-dumped,
// parseable trace — and turning tracing on must never perturb a service
// campaign's trajectory.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "faults/fault_provider.hpp"
#include "obs/trace.hpp"
#include "online/service.hpp"
#include "../support/json.hpp"

namespace netconst {
namespace {

cloud::SyntheticCloudConfig tiny_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 6;
  config.datacenter_racks = 3;
  config.seed = seed;
  return config;
}

online::TenantConfig tenant_config(const std::string& name,
                                   cloud::NetworkProvider& provider,
                                   std::uint64_t seed) {
  online::TenantConfig config;
  config.name = name;
  config.provider = &provider;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  config.scheduler.base_interval = 1500.0;
  config.seed = seed;
  return config;
}

TEST(TraceDumpChaos, PlacementShiftAutoDumpsAParseableTrace) {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.set_enabled(true);
  if (!obs::trace_enabled()) GTEST_SKIP() << "tracing compiled out";
  recorder.clear();

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("netconst_trace_dump_test_" +
       std::to_string(static_cast<unsigned long>(::getpid())));
  std::filesystem::create_directories(dir);
  const std::string previous_dir = recorder.dump_directory();
  recorder.set_dump_directory(dir.string());
  const std::uint64_t written_before = recorder.auto_dumps_written();

  // One tenant on a faulted cloud whose placement shifts mid-campaign:
  // the service's own spans populate the recorder, and the shift's
  // activation snapshots them.
  cloud::SyntheticCloud inner(tiny_cloud(5));
  faults::FaultPlanConfig fault_config;
  fault_config.placement_changes.push_back({2000.0, 1, 3.0});
  faults::FaultInjectionProvider provider(inner, fault_config);

  online::ConstantFinderService service;
  service.add_tenant(tenant_config("shifted", provider, 9));
  service.run(16);  // 4800 simulated s: crosses the shift at t = 2000 s

  recorder.set_dump_directory(previous_dir);
  recorder.set_enabled(false);
  recorder.clear();

  ASSERT_GE(provider.fault_log().count(faults::FaultKind::PlacementShift),
            1u);
  ASSERT_GT(recorder.auto_dumps_written(), written_before);

  // Order the dumps by the <n> of netconst_trace_<n>_<reason>.json (the
  // directory iterator's order is unspecified), confirm the first one's
  // reason rode into its file name, and that its payload is a loadable
  // Chrome trace with the service's spans.
  const std::string prefix = "netconst_trace_";
  std::vector<std::pair<unsigned long, std::filesystem::path>> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    ASSERT_EQ(name.rfind(prefix, 0), 0u) << name;
    dumps.emplace_back(std::stoul(name.substr(prefix.size())), entry.path());
  }
  ASSERT_FALSE(dumps.empty());
  std::sort(dumps.begin(), dumps.end());
  EXPECT_EQ(dumps.front().first, written_before);
  const std::filesystem::path& first = dumps.front().second;
  EXPECT_NE(first.filename().string().find("placement_shift"),
            std::string::npos)
      << first;

  std::ifstream in(first);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const testjson::Value doc = testjson::parse(buffer.str());
  bool saw_service_span = false;
  for (const testjson::Value& event : doc.at("traceEvents").array) {
    const std::string& name = event.at("name").string;
    if (name == "svc.step" || name == "svc.ingest" ||
        name == "online.refresh") {
      saw_service_span = true;
    }
  }
  EXPECT_TRUE(saw_service_span);
  std::filesystem::remove_all(dir);
}

struct CampaignResult {
  online::TenantStatus status;
  linalg::Matrix latency;
  linalg::Matrix bandwidth;
  double error_norm = 0.0;
};

CampaignResult run_campaign(bool tracing) {
  auto& recorder = obs::FlightRecorder::instance();
  recorder.set_enabled(tracing);
  cloud::SyntheticCloud cloud(tiny_cloud(11));
  online::ConstantFinderService service;
  const std::size_t tenant =
      service.add_tenant(tenant_config("twin", cloud, 21));
  service.run(24);
  recorder.set_enabled(false);
  recorder.clear();

  CampaignResult result;
  result.status = service.status(tenant);
  result.latency = service.component(tenant).constant.latency();
  result.bandwidth = service.component(tenant).constant.bandwidth();
  result.error_norm = service.component(tenant).error_norm;
  return result;
}

TEST(TraceDumpChaos, CampaignTrajectoryIdenticalTracingOnAndOff) {
  const CampaignResult quiet = run_campaign(false);
  const CampaignResult traced = run_campaign(true);

  EXPECT_EQ(quiet.status.steps, traced.status.steps);
  EXPECT_EQ(quiet.status.refreshes, traced.status.refreshes);
  EXPECT_EQ(quiet.status.warm_solves, traced.status.warm_solves);
  EXPECT_EQ(quiet.status.cold_solves, traced.status.cold_solves);
  EXPECT_EQ(quiet.status.breaches, traced.status.breaches);
  EXPECT_EQ(quiet.status.provider_time, traced.status.provider_time);
  EXPECT_EQ(quiet.error_norm, traced.error_norm);
  // The constant component itself is byte-identical: observation never
  // touches an iterate.
  EXPECT_EQ(quiet.latency.max_abs_diff(traced.latency), 0.0);
  EXPECT_EQ(quiet.bandwidth.max_abs_diff(traced.bandwidth), 0.0);
}

}  // namespace
}  // namespace netconst
