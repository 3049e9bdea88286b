// The four workloads of the end-to-end benchmark and everything derived
// from a workload plus a seed: the simulated clouds (optionally
// chaos-wrapped), the tenant configs, the /plan request shapes, and the
// trajectory digest both the service run and the traced replica compute.
//
// Why these four (see README.md for the measured path mixes):
//   noisy_refresh  EC2-like noise band: the incremental path never holds
//                  and most warm solves are redone cold, so rpca
//                  dominates the slide;
//   quiet_refresh  narrow band: mostly incremental row updates plus drift
//                  fallbacks, and publishes often enough that plan-cache
//                  misses are common;
//   chaos_tenants  many tiny tenants under injected faults: rpca is cheap
//                  and the service's per-step bookkeeping dominates;
//   serve_plans    paced refresh under a 10k req/s /plan open loop: the
//                  HTTP loop and the plan-cache hit path do the work.
// BENCHMARK.json gates noisy_refresh and serve_plans only; the other two
// varied too much from run to run of the same code (README.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/synthetic.hpp"
#include "faults/fault_provider.hpp"
#include "online/service.hpp"
#include "serving/plan.hpp"

namespace netconst::e2e {

struct Workload {
  std::string name;
  std::size_t tenants = 2;
  std::size_t cluster_size = 32;
  std::size_t window = 10;
  double band_sigma = 0.04;
  /// Wrap each tenant's cloud in a FaultInjectionProvider (drops,
  /// timeouts, one outlier storm and two placement shifts per tenant).
  bool chaos = false;
  double base_interval = 300.0;
  double threshold = 1.0;
  /// Hold direction breaches for a full window before classifying.
  bool confirm_at_window = false;
  std::size_t shapes_per_tenant = 4;
  /// Steps per ConstantFinderService::run() call.
  std::size_t chunk_steps = 1;
  /// 0: run() back to back; otherwise one run() per pace_seconds.
  double pace_seconds = 0.0;
  /// Steps per tenant at which the trajectory digest and the per-layer
  /// counts are taken (a multiple of chunk_steps), so they are
  /// deterministic however long a run lasts.
  std::size_t checkpoint_steps = 8;
};

const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
const Workload* find_workload(const std::string& name);

std::string tenant_name(std::size_t tenant);

/// One tenant's simulated cloud, optionally chaos-wrapped, plus the
/// ground truth the constant is scored against.
class TenantWorld {
 public:
  TenantWorld(const Workload& workload, std::size_t tenant,
              std::uint64_t seed);

  cloud::NetworkProvider& provider();

  /// Relative Frobenius error of the 8 MB per-pair transfer times of
  /// `estimate` against the ground-truth constant, with the placement
  /// shifts injected so far applied to the truth. Call only from the
  /// thread that drives the provider.
  double const_error(const netmodel::PerformanceMatrix& estimate) const;

 private:
  std::unique_ptr<cloud::SyntheticCloud> cloud_;
  std::unique_ptr<faults::FaultInjectionProvider> chaos_;
  std::vector<double> truth_;  // per-pair transfer times, row-major N x N
};

std::vector<std::unique_ptr<TenantWorld>> make_worlds(
    const Workload& workload, std::uint64_t seed);

online::TenantConfig tenant_config(const Workload& workload,
                                   std::size_t tenant, std::uint64_t seed,
                                   cloud::NetworkProvider& provider);

/// One /plan request shape: the HTTP target and its canonical form.
struct Shape {
  std::size_t tenant = 0;
  std::string target;
  serving::PlanRequest request;
};

/// shapes_per_tenant shapes per tenant: trees and mappings over 4-13
/// nodes (at most the cluster size), roots and node order scrambled.
std::vector<Shape> make_shapes(const Workload& workload, std::uint64_t seed);

/// FNV over every tenant's component bits and TenantStatus counters.
std::uint64_t trajectory_digest(
    const std::vector<const core::ConstantComponent*>& components,
    const std::vector<online::TenantStatus>& statuses);

}  // namespace netconst::e2e
