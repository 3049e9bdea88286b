// The traced pass's view of the maintenance loop, driven from outside.
//
// The replica runs the same tenant configs and seeds as the service, but
// calls each layer's public entry point itself, in the order
// ConstantFinderService::step/maintain/bootstrap call them, with a span
// around every call:
//   NetworkProvider (through a timing decorator) -> cloud
//   SnapshotIngestor::ingest_calibrated          -> online.ingest
//   WindowRefresher::refresh                     -> online.refresh
//   ChangePointDetector::observe                 -> detect
//   SnapshotStore::publish (+ plan invalidation) -> serving.publish
// It keeps the TenantStatus counters the service keeps, so its
// trajectory digest must equal the service's at the same step count —
// the check that the replica measures the loop the service runs.
//
// Tenants are split over as many drivers as the service would run (the
// calling thread plus tasks on ThreadPool::global()), so solver regions
// find the pool as busy as they do under the service. What the service
// does beyond these calls (metrics registry, event log, batch
// scheduling) is not replicated; the benchmark estimates it as the
// service's CPU per slide minus the traced layer time per slide.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "serving/snapshot_store.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace netconst::e2e {

/// Per-layer path counts (two layers per refresh: latency, bandwidth).
struct RefreshCounts {
  std::uint64_t slides = 0;  // maintenance refreshes (bootstrap excluded)
  std::uint64_t incremental = 0;
  std::uint64_t warm = 0;
  std::uint64_t cold = 0;
  std::uint64_t cold_fallback = 0;
  std::uint64_t drift_fallback = 0;
  std::uint64_t masked = 0;      // the imputing front-end repaired holes
  std::uint64_t randomized = 0;  // a randomized-SVT step was accepted
  std::uint64_t warm_attempted = 0;
  std::uint64_t incremental_eligible = 0;
  std::uint64_t imputed_entries = 0;
  std::uint64_t failed_probes = 0;  // calibration probe values lost
  std::uint64_t stale_reused = 0;
  std::uint64_t verdicts = 0;

  RefreshCounts& operator+=(const RefreshCounts& other);
};

/// Per-layer solve times (ms) by path and solver iterations, one sample
/// per layer refresh.
struct RefreshSamples {
  std::vector<double> incremental_ms;
  std::vector<double> warm_ms;
  std::vector<double> cold_ms;
  std::vector<double> iterations;  // accepted full solves only
};

class Replica {
 public:
  /// One tracer per driver; tenant t runs on driver t % tracers.size().
  Replica(const Workload& workload, std::uint64_t seed,
          serving::SnapshotStore& store, const std::vector<Tracer*>& tracers);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Fill every tenant's window and solve it cold (publishes version 1).
  void bootstrap();
  /// Advance every tenant by `steps` steps, the drivers in parallel.
  void run(std::size_t steps);

  std::size_t steps() const { return steps_; }
  std::uint64_t digest() const;
  RefreshCounts counts() const;
  RefreshSamples samples() const;

 private:
  struct Tenant;

  void step(Tenant& tenant);
  void maintain(Tenant& tenant, online::TriggerReason reason);
  /// Accepted-refresh bookkeeping shared by bootstrap and maintenance.
  void publish_and_detect(Tenant& tenant, const online::RefreshReport& report);

  serving::SnapshotStore& store_;
  std::size_t drivers_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::size_t steps_ = 0;
};

}  // namespace netconst::e2e
