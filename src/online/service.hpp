// ConstantFinderService — the paper's model-maintenance loop as a
// persistent, multi-tenant engine.
//
// Each tenant is one virtual cluster (its own NetworkProvider) with its
// own sliding window, warm-started refresher and adaptive scheduler.
// run() drives K tenants concurrently with a deadline-aware batch
// scheduler: a small set of driver tasks repeatedly claims the tenant
// with the largest estimated remaining work (EWMA cost per step times
// steps left) and advances it one quantum, so a straggling tenant
// cannot serialize the batch tail. By default the drivers run on
// ThreadPool::global() — the same workers the linalg kernels fan out
// on — which the multi-region scheduler multiplexes between tenant
// drivers and solver regions without oversubscribing the machine.
//
// Tenants never share mutable state except the metrics registry and
// the event log, both of which are thread-safe, and a tenant is owned
// by exactly one driver at a time. A tenant's trajectory is therefore
// fully deterministic given its seed and provider, independent of the
// thread count, the quantum size, and the claim order.
//
// One service step per tenant = one Algorithm 1 cycle:
//   run an operation against the constant component, compare measured
//   vs expected time, and when the scheduler fires — on a threshold
//   breach or an (advisor-scaled) interval — slide the window by one
//   fresh calibration and warm-refresh the decomposition.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.hpp"
#include "core/constant_finder.hpp"
#include "detect/detector.hpp"
#include "online/events.hpp"
#include "online/ingest.hpp"
#include "online/metrics.hpp"
#include "online/refresher.hpp"
#include "online/scheduler.hpp"
#include "online/window.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace netconst::online {

struct TenantConfig {
  std::string name;
  /// Non-owning; must outlive the service. One provider per tenant —
  /// providers are not thread-safe and are never shared.
  cloud::NetworkProvider* provider = nullptr;
  /// TP-matrix window depth (the paper's "time step" parameter).
  std::size_t window_capacity = 10;
  /// Spacing between snapshots while bootstrapping the window, seconds.
  double snapshot_interval = 600.0;
  IngestOptions ingest;
  RefresherOptions refresher;
  SchedulerOptions scheduler;
  /// The synthetic operation stream: one point-to-point transfer of
  /// `operation_bytes` between a random pair every `operation_gap`
  /// provider seconds.
  std::uint64_t operation_bytes = 8ull * 1024 * 1024;
  double operation_gap = 300.0;
  std::uint64_t seed = 1;
  /// A lost operation probe (NaN from the provider: timeout or dropped
  /// measurement) yields no error signal, so a run of them leaves the
  /// scheduler blind. After this many CONSECUTIVE lost probes the
  /// service forces a maintenance cycle (TriggerReason::ForcedDegraded)
  /// rather than trusting a constant it can no longer check. 0 disables.
  std::size_t forced_recalibration_after = 8;
  /// Online change-point detection over the refresh telemetry
  /// (src/detect). When enabled the service feeds every maintenance
  /// refresh's signals — Norm(N_E), drift statistic, sparse-support
  /// geometry and the constant's per-pair transfer times — to a
  /// per-tenant ChangePointDetector; verdicts land in the
  /// event log (EventKind::ChangeDetected), the detect.* metrics, and
  /// the flight recorder's auto-dump triggers. Enabling this also turns
  /// on RefresherOptions::collect_support_stats for the tenant.
  bool detector_enabled = false;
  detect::DetectorOptions detector;
  /// With the detector on: a verdict that names a persistent change
  /// (placement_shift or baseline_drift) schedules a pre-emptive
  /// maintenance cycle on the tenant's next step
  /// (TriggerReason::DetectorSignal) instead of waiting for the
  /// threshold/interval policies. Diffuse outlier storms never
  /// pre-empt — transient interference is the dynamic component's job.
  bool detector_preempt = true;
};

struct ServiceOptions {
  /// Worker threads. 0 (the default) shares ThreadPool::global() with
  /// the linalg kernels: tenant drivers and solver fork/join regions
  /// multiplex over one worker set (see support/thread_pool.hpp), so
  /// refreshes overlap without oversubscribing the machine. N > 0
  /// gives the service a dedicated pool of N workers, which pins the
  /// driver parallelism independently of NETCONST_THREADS.
  std::size_t threads = 0;
  /// Steps a driver advances a claimed tenant before re-entering the
  /// batch scheduler (the quantum). Smaller slices rebalance around
  /// stragglers sooner at slightly more scheduling overhead; 0 acts
  /// as 1. Has no effect on any tenant's trajectory.
  std::size_t batch_slice = 16;
  /// Event-log retention: the newest events kept (older ones are dropped
  /// but still counted by EventLog::recorded()). 0 = unbounded, which
  /// grows with the campaign: each event owns a heap string.
  std::size_t event_capacity = 65536;
};

/// Downstream consumer of refreshed constants (the serving front end's
/// snapshot store — see src/serving/snapshot_store.hpp). The service
/// offers every accepted decomposition to the sink right after the
/// tenant's component is updated: once per bootstrap and once per
/// maintenance cycle, from the driver thread that owns the tenant.
/// Implementations must be safe to call concurrently for DIFFERENT
/// tenants; calls for one tenant are serialized by the ownership rule.
class SnapshotSink {
 public:
  virtual ~SnapshotSink() = default;
  /// `refresh` is the tenant's refresh ordinal (1 = bootstrap solve),
  /// strictly increasing per tenant across all trigger reasons,
  /// forced recalibrations included.
  virtual void publish(const std::string& tenant,
                       const core::ConstantComponent& component,
                       double provider_now, std::uint64_t refresh) = 0;
};

/// Post-run view of one tenant (read via status() after run() returns).
struct TenantStatus {
  std::string name;
  std::size_t steps = 0;
  double provider_time = 0.0;
  double error_norm = 0.0;
  core::Effectiveness level = core::Effectiveness::Stable;
  std::uint64_t snapshots_ingested = 0;
  std::uint64_t refreshes = 0;
  std::uint64_t warm_solves = 0;  // full-path layers fit from a prior E
  std::uint64_t cold_solves = 0;  // fit from zero (bootstrap too)
  std::uint64_t cold_fallbacks = 0;  // always 0: nothing is redone
  std::uint64_t breaches = 0;
  std::uint64_t interval_recalibrations = 0;
  std::uint64_t suppressed_recalibrations = 0;
  // Degradation accounting (all zero on a fault-free provider).
  std::uint64_t dropped_probes = 0;         // lost operation probes
  std::uint64_t calibration_failures = 0;   // lost calibration probe values
  std::uint64_t stale_rows_reused = 0;      // snapshots replaced by last good
  std::uint64_t forced_recalibrations = 0;  // ForcedDegraded maintenances
  std::uint64_t imputed_entries = 0;        // window entries repaired
  // Change-point detector accounting (zero when the detector is off).
  std::uint64_t detector_verdicts = 0;
  std::uint64_t detector_recalibrations = 0;  // DetectorSignal maintenances

  double warm_hit_rate() const {
    const std::uint64_t total = warm_solves + cold_solves;
    return total == 0 ? 0.0
                      : static_cast<double>(warm_solves) /
                            static_cast<double>(total);
  }
};

class ConstantFinderService {
 public:
  explicit ConstantFinderService(const ServiceOptions& options = {});
  ~ConstantFinderService();

  ConstantFinderService(const ConstantFinderService&) = delete;
  ConstantFinderService& operator=(const ConstantFinderService&) = delete;

  /// Register a tenant (before run()). Returns its index.
  std::size_t add_tenant(const TenantConfig& config);

  /// Attach (or detach, with nullptr) the snapshot sink. Non-owning;
  /// must outlive the service or be detached first. Set before run() —
  /// the sink also receives the bootstrap publication. Safe to call
  /// while run() is executing on another thread: the swap is atomic and
  /// the call blocks until every publish already in flight on the old
  /// sink has returned, so the previous sink may be destroyed as soon
  /// as this returns.
  void set_snapshot_sink(SnapshotSink* sink);
  SnapshotSink* snapshot_sink() const {
    return snapshot_sink_.load(std::memory_order_acquire);
  }

  std::size_t tenant_count() const { return tenants_.size(); }

  /// Drive every tenant for `steps` operation cycles, concurrently.
  /// First call bootstraps each tenant (fills its window, cold solve).
  /// Tenants are advanced in batch_slice quanta by up to
  /// min(worker count, tenant count) + 1 drivers (the caller is one),
  /// longest-estimated-remaining first. Blocks until all tenants
  /// finish; rethrows the first tenant error. May be called repeatedly
  /// to continue the campaign.
  void run(std::size_t steps);

  /// Valid after run() returns.
  TenantStatus status(std::size_t tenant) const;
  const core::ConstantComponent& component(std::size_t tenant) const;

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const EventLog& events() const { return events_; }

  /// Prometheus text exposition (version 0.0.4) of every metric in the
  /// registry, per-tenant series rendered as tenant="..." labels.
  void write_prometheus(std::ostream& out) const;

  /// One JSON document with the metrics and the flight-recorder status
  /// (see obs/export.hpp).
  void write_json_snapshot(std::ostream& out) const;

  /// Human-readable per-tenant table + metrics dump.
  void print_report(std::ostream& out) const;

 private:
  struct Tenant;

  void bootstrap(Tenant& tenant);
  void step(Tenant& tenant);
  void maintain(Tenant& tenant, TriggerReason reason, double trigger_value);
  /// Fold the ingestor's lifetime degradation totals into the metrics
  /// (delta since the last sync — fill() can ingest many snapshots).
  void sync_ingest_totals(Tenant& tenant);
  /// Bootstrap's and maintenance's shared bookkeeping of one refresh:
  /// adopt and publish the component, book solve paths, imputation
  /// and error norm. Returns whether the level changed.
  bool account_refresh(Tenant& tenant, const RefreshReport& report);
  /// Feed one refresh to the tenant's change-point detector and act on
  /// a verdict (events, metrics, auto-dump, pre-emption flag).
  void run_detector(Tenant& tenant, const RefreshReport& report);

  /// Offer the tenant's freshly accepted component to the sink.
  void publish_snapshot(Tenant& tenant);

  ServiceOptions options_;
  std::atomic<SnapshotSink*> snapshot_sink_{nullptr};
  /// Publishes currently executing on the sink; set_snapshot_sink waits
  /// for this to drain so a detached sink can be destroyed safely.
  std::atomic<std::size_t> publishes_in_flight_{0};
  std::unique_ptr<ThreadPool> owned_pool_;  // null when sharing global()
  ThreadPool* pool_;
  MetricsRegistry metrics_;
  EventLog events_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  // Service-wide series with no per-tenant twin, resolved (and so
  // exported, at zero) from construction; the rest live in Tenant.
  Counter& svd_full_;
  Counter& svd_incremental_;
  Counter& masked_fallbacks_;
  Counter& anchors_;
  Counter& level_changes_;
  Histogram& calibration_seconds_;
  Histogram& error_norm_;
  Histogram& operation_relative_error_;
  Histogram& detect_latency_slides_;
  Counter& detect_preemptions_;
  std::array<Counter*, kTriggerReasonCount> recalibrations_by_reason_;
  std::array<Counter*, detect::kVerdictKindCount> verdicts_{};  // by kind
};

}  // namespace netconst::online
