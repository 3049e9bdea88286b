#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "common.hpp"
#include "support/rng.hpp"

namespace netconst::e2e {

namespace {

constexpr std::uint64_t kOperationBytes = 8ull * 1024 * 1024;
constexpr double kOperationGap = 300.0;

// Seed streams: every generator of a run derives from --seed.
constexpr std::uint64_t kCloudStream = 100;
constexpr std::uint64_t kTenantStream = 200;
constexpr std::uint64_t kFaultStream = 300;
constexpr std::uint64_t kFaultScriptStream = 400;
constexpr std::uint64_t kShapeStream = 500;

std::vector<Workload> build_workloads() {
  // Eight independent clouds per run average out how much one cloud's
  // interference pattern decides the path mix (with two tenants,
  // quiet_refresh throughput varied ±12% from seed to seed).
  Workload noisy;
  noisy.name = "noisy_refresh";
  noisy.tenants = 8;
  noisy.chunk_steps = 2;
  noisy.checkpoint_steps = 8;

  Workload quiet = noisy;
  quiet.name = "quiet_refresh";
  quiet.band_sigma = 0.01;
  quiet.chunk_steps = 8;
  quiet.checkpoint_steps = 32;

  Workload chaos;
  chaos.name = "chaos_tenants";
  chaos.tenants = 8;
  chaos.cluster_size = 6;
  chaos.window = 4;
  chaos.chaos = true;
  chaos.base_interval = 1500.0;  // maintain every 5th step
  chaos.threshold = 1e9;         // only the interval, faults and detector
  chaos.confirm_at_window = true;
  // A tenant's version moves every ~0.4 ms, so with 16 shapes per tenant
  // most requests find a newer version than their shape was planned at:
  // p50 is a planner run rather than the boundary between hits and
  // misses.
  chaos.shapes_per_tenant = 16;
  chaos.chunk_steps = 4096;
  chaos.checkpoint_steps = 65536;

  Workload serve;
  serve.name = "serve_plans";
  serve.cluster_size = 16;
  serve.shapes_per_tenant = 32;
  serve.chunk_steps = 1;
  serve.pace_seconds = 0.25;
  serve.checkpoint_steps = 8;

  return {noisy, quiet, chaos, serve};
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = build_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& workload : workloads()) {
    if (workload.name == name) return &workload;
  }
  return nullptr;
}

std::string tenant_name(std::size_t tenant) {
  // Appending (rather than "t" + to_string) sidesteps a GCC 12
  // -Wrestrict false positive.
  std::string name = "t";
  name += std::to_string(tenant);
  return name;
}

TenantWorld::TenantWorld(const Workload& workload, std::size_t tenant,
                         std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = workload.cluster_size;
  config.band_sigma = workload.band_sigma;
  config.seed = derive_seed(seed, kCloudStream + tenant);
  cloud_ = std::make_unique<cloud::SyntheticCloud>(config);

  if (workload.chaos) {
    // Scripted faults land early (within ~2000 steps, before the
    // checkpoint), so the digest covers the storm and both shifts.
    Rng script(derive_seed(seed, kFaultScriptStream + tenant));
    const auto vm = [&] {
      return static_cast<std::size_t>(script.uniform_int(
          0, static_cast<std::int64_t>(workload.cluster_size) - 1));
    };
    faults::FaultPlanConfig plan;
    plan.seed = derive_seed(seed, kFaultStream + tenant);
    plan.drop_probability = 0.02;
    plan.timeout_probability = 0.005;
    const double storm = kOperationGap * script.uniform(300.0, 500.0);
    plan.storms.push_back({storm, storm + 20.0 * kOperationGap, 4.0});
    const double first = kOperationGap * script.uniform(800.0, 1200.0);
    plan.placement_changes.push_back({first, vm(), 2.0});
    const double second = kOperationGap * script.uniform(1600.0, 2000.0);
    plan.placement_changes.push_back({second, vm(), 2.0});
    chaos_ = std::make_unique<faults::FaultInjectionProvider>(*cloud_, plan);
  }

  const netmodel::PerformanceMatrix truth = cloud_->ground_truth_constant();
  const std::size_t n = truth.size();
  truth_.assign(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        truth_[i * n + j] = truth.transfer_time(i, j, kOperationBytes);
      }
    }
  }
}

cloud::NetworkProvider& TenantWorld::provider() {
  if (chaos_) return *chaos_;
  return *cloud_;
}

double TenantWorld::const_error(
    const netmodel::PerformanceMatrix& estimate) const {
  const std::size_t n = estimate.size();
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      double truth = truth_[i * n + j];
      if (chaos_) truth *= chaos_->plan().placement_factor(i, j);
      const double d = estimate.transfer_time(i, j, kOperationBytes) - truth;
      diff += d * d;
      norm += truth * truth;
    }
  }
  return std::sqrt(diff / norm);
}

std::vector<std::unique_ptr<TenantWorld>> make_worlds(
    const Workload& workload, std::uint64_t seed) {
  std::vector<std::unique_ptr<TenantWorld>> worlds;
  for (std::size_t t = 0; t < workload.tenants; ++t) {
    worlds.push_back(std::make_unique<TenantWorld>(workload, t, seed));
  }
  return worlds;
}

online::TenantConfig tenant_config(const Workload& workload,
                                   std::size_t tenant, std::uint64_t seed,
                                   cloud::NetworkProvider& provider) {
  online::TenantConfig config;
  config.name = tenant_name(tenant);
  config.provider = &provider;
  config.window_capacity = workload.window;
  config.operation_bytes = kOperationBytes;
  config.operation_gap = kOperationGap;
  config.seed = derive_seed(seed, kTenantStream + tenant);
  config.refresher.incremental = true;
  config.detector_enabled = true;
  config.scheduler.adaptive_interval = false;
  config.scheduler.base_interval = workload.base_interval;
  config.scheduler.threshold = workload.threshold;
  if (workload.confirm_at_window) {
    config.detector.direction_confirm_slides = workload.window;
  }
  return config;
}

std::vector<Shape> make_shapes(const Workload& workload, std::uint64_t seed) {
  Rng rng(derive_seed(seed, kShapeStream));
  const std::size_t n = workload.cluster_size;
  const std::size_t largest = std::min<std::size_t>(13, n);
  // Each kind's widths are spread evenly over [4, largest] rather than
  // drawn, so the cost mix of cache misses does not depend on the seed;
  // the seed picks the nodes, their order and the root.
  const std::size_t per_kind = std::max<std::size_t>(
      1, (workload.shapes_per_tenant + 1) / 2);
  std::vector<Shape> shapes;
  for (std::size_t t = 0; t < workload.tenants; ++t) {
    for (std::size_t s = 0; s < workload.shapes_per_tenant; ++s) {
      const std::size_t rank = s / 2;
      const std::size_t width =
          per_kind == 1 ? largest
                        : 4 + rank * (largest - 4) / (per_kind - 1);
      std::vector<std::size_t> nodes =
          rng.sample_without_replacement(n, width);
      rng.shuffle(nodes);
      const bool tree = s % 2 == 0;
      const std::uint64_t bytes = tree ? kOperationBytes : 1024 * 1024;

      Shape shape;
      shape.tenant = t;
      shape.target = "/plan?tenant=" + tenant_name(t) +
                     (tree ? "&kind=tree&nodes=" : "&kind=mapping&nodes=");
      for (std::size_t k = 0; k < nodes.size(); ++k) {
        if (k > 0) shape.target += ',';
        shape.target += std::to_string(nodes[k]);
      }
      shape.target += "&root=" + std::to_string(nodes.front()) +
                      "&bytes=" + std::to_string(bytes);
      shape.request = serving::canonical_plan_request(
          tree ? serving::PlanKind::BroadcastTree
               : serving::PlanKind::TopologyMapping,
          nodes, nodes.front(), bytes);
      shapes.push_back(std::move(shape));
    }
  }
  return shapes;
}

std::uint64_t trajectory_digest(
    const std::vector<const core::ConstantComponent*>& components,
    const std::vector<online::TenantStatus>& statuses) {
  Fnv fnv;
  for (const core::ConstantComponent* component : components) {
    const netmodel::PerformanceMatrix& constant = component->constant;
    for (std::size_t i = 0; i < constant.size(); ++i) {
      for (std::size_t j = 0; j < constant.size(); ++j) {
        if (i == j) continue;
        const netmodel::LinkParams link = constant.link(i, j);
        fnv.value(link.alpha);
        fnv.value(link.beta);
      }
    }
    fnv.value(component->error_norm);
    fnv.value(component->latency_error_norm);
    fnv.value(component->bandwidth_rank);
    fnv.value(component->latency_rank);
  }
  for (const online::TenantStatus& s : statuses) {
    for (const std::uint64_t counter :
         {static_cast<std::uint64_t>(s.steps), s.snapshots_ingested,
          s.refreshes, s.warm_solves, s.cold_solves, s.cold_fallbacks,
          s.breaches, s.interval_recalibrations, s.suppressed_recalibrations,
          s.dropped_probes, s.calibration_failures, s.stale_rows_reused,
          s.forced_recalibrations, s.imputed_entries, s.detector_verdicts,
          s.detector_recalibrations}) {
      fnv.value(counter);
    }
    fnv.value(s.provider_time);
    fnv.value(s.error_norm);
    fnv.value(static_cast<int>(s.level));
  }
  return fnv.digest();
}

}  // namespace netconst::e2e
