#include "replica.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>

#include "detect/detector.hpp"
#include "online/ingest.hpp"
#include "online/refresher.hpp"
#include "online/scheduler.hpp"
#include "online/window.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace netconst::e2e {

namespace {

/// Times every measurement call of the wrapped provider as a `cloud`
/// span; clock queries and idle time pass straight through.
class TimedProvider final : public cloud::NetworkProvider {
 public:
  TimedProvider(cloud::NetworkProvider& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::size_t cluster_size() const override { return inner_.cluster_size(); }
  double now() const override { return inner_.now(); }
  void advance(double seconds) override { inner_.advance(seconds); }
  double measure(std::size_t i, std::size_t j, std::uint64_t bytes) override {
    const Tracer::Scope span(tracer_, Layer::Cloud);
    return inner_.measure(i, j, bytes);
  }
  std::vector<double> measure_concurrent(
      const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
      std::uint64_t bytes) override {
    const Tracer::Scope span(tracer_, Layer::Cloud);
    return inner_.measure_concurrent(pairs, bytes);
  }
  netmodel::PerformanceMatrix oracle_snapshot() override {
    const Tracer::Scope span(tracer_, Layer::Cloud);
    return inner_.oracle_snapshot();
  }

 private:
  cloud::NetworkProvider& inner_;
  Tracer& tracer_;
};

/// The refresher options the service derives for a tenant with the
/// default convergence ring and the detector on.
online::RefresherOptions service_refresher_options(
    const online::TenantConfig& config) {
  online::RefresherOptions options = config.refresher;
  options.collect_convergence = true;
  options.collect_support_stats = config.detector_enabled;
  return options;
}

}  // namespace

RefreshCounts& RefreshCounts::operator+=(const RefreshCounts& other) {
  slides += other.slides;
  incremental += other.incremental;
  warm += other.warm;
  cold += other.cold;
  cold_fallback += other.cold_fallback;
  drift_fallback += other.drift_fallback;
  masked += other.masked;
  randomized += other.randomized;
  warm_attempted += other.warm_attempted;
  incremental_eligible += other.incremental_eligible;
  imputed_entries += other.imputed_entries;
  failed_probes += other.failed_probes;
  stale_reused += other.stale_reused;
  verdicts += other.verdicts;
  return *this;
}

struct Replica::Tenant {
  Tenant(const Workload& workload, std::size_t index_in, std::uint64_t seed,
         Tracer& tracer_in)
      : index(static_cast<std::uint32_t>(index_in)),
        tracer(tracer_in),
        world(workload, index_in, seed),
        provider(world.provider(), tracer_in),
        config(tenant_config(workload, index_in, seed, provider)),
        window(config.window_capacity),
        refresher(service_refresher_options(config)),
        detector(config.detector),
        scheduler(config.scheduler),
        ingestor(provider, window, config.ingest),
        rng(config.seed) {
    status.name = config.name;
  }

  /// Path counts and solve-time samples of one maintenance refresh.
  void account(const online::RefreshReport& report);

  std::uint32_t index;
  Tracer& tracer;  // of the driver that runs this tenant
  TenantWorld world;
  TimedProvider provider;
  online::TenantConfig config;
  online::SlidingWindow window;
  online::WindowRefresher refresher;
  detect::ChangePointDetector detector;
  online::RecalibrationScheduler scheduler;
  online::SnapshotIngestor ingestor;
  Rng rng;
  core::ConstantComponent component;
  std::vector<double> constant_flat;
  /// Counters kept exactly as ConstantFinderService keeps them.
  online::TenantStatus status;
  std::size_t drop_streak = 0;
  bool preempt_pending = false;
  RefreshCounts counts;
  RefreshSamples samples;
};

void Replica::Tenant::account(const online::RefreshReport& report) {
  ++counts.slides;
  for (const online::LayerRefresh* layer :
       {&report.latency, &report.bandwidth}) {
    const double ms = layer->solve_seconds * 1e3;
    if (layer->incremental_used || layer->drift_fallback ||
        layer->incremental_masked) {
      ++counts.incremental_eligible;
    }
    if (layer->warm_attempted) ++counts.warm_attempted;
    if (layer->cold_fallback) ++counts.cold_fallback;
    if (layer->drift_fallback) ++counts.drift_fallback;
    if (layer->missing_entries > 0) ++counts.masked;
    if (layer->randomized_steps > 0) ++counts.randomized;
    if (layer->incremental_used) {
      ++counts.incremental;
      samples.incremental_ms.push_back(ms);
      continue;
    }
    samples.iterations.push_back(static_cast<double>(layer->iterations));
    if (layer->warm_used) {
      ++counts.warm;
      samples.warm_ms.push_back(ms);
    } else {
      ++counts.cold;
      samples.cold_ms.push_back(ms);
    }
  }
  counts.imputed_entries += report.missing_entries();
}

Replica::Replica(const Workload& workload, std::uint64_t seed,
                 serving::SnapshotStore& store,
                 const std::vector<Tracer*>& tracers)
    : store_(store), drivers_(tracers.size()) {
  for (std::size_t t = 0; t < workload.tenants; ++t) {
    tenants_.push_back(std::make_unique<Tenant>(workload, t, seed,
                                                *tracers[t % drivers_]));
  }
}

Replica::~Replica() = default;

void Replica::bootstrap() {
  for (const auto& owned : tenants_) {
    Tenant& tenant = *owned;
    tenant.ingestor.fill(tenant.config.snapshot_interval);
    tenant.status.snapshots_ingested += tenant.window.size();
    const online::RefreshReport report =
        tenant.refresher.refresh(tenant.window);
    tenant.status.cold_solves += 2;
    publish_and_detect(tenant, report);
  }
}

void Replica::run(std::size_t steps) {
  // Like the service's batch drivers, advance a tenant a quantum of
  // steps before moving to the next one (tenant switches cost cache).
  const std::size_t quantum = online::ServiceOptions{}.batch_slice;
  const auto drive = [this, steps, quantum](std::size_t driver) {
    for (std::size_t done = 0; done < steps; done += quantum) {
      const std::size_t slice = std::min(quantum, steps - done);
      for (std::size_t t = driver; t < tenants_.size(); t += drivers_) {
        for (std::size_t s = 0; s < slice; ++s) step(*tenants_[t]);
      }
    }
  };
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t pending = 0;
    std::exception_ptr error;
  } join;
  join.pending = drivers_ - 1;
  for (std::size_t d = 1; d < drivers_; ++d) {
    ThreadPool::global().submit([&join, &drive, d] {
      std::exception_ptr error;
      try {
        drive(d);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(join.mutex);
      if (error && !join.error) join.error = error;
      if (--join.pending == 0) join.done.notify_all();
    });
  }
  std::exception_ptr error;
  try {
    drive(0);
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&] { return join.pending == 0; });
  if (!error) error = join.error;
  if (error) std::rethrow_exception(error);
  steps_ += steps;
}

void Replica::publish_and_detect(Tenant& tenant,
                                 const online::RefreshReport& report) {
  cloud::NetworkProvider& provider = tenant.provider;
  tenant.component = report.component;
  tenant.scheduler.record_refresh(provider.now(),
                                  report.component.error_norm);
  ++tenant.status.refreshes;
  {
    const Tracer::Scope span(tenant.tracer, Layer::Publish);
    store_.publish(tenant.config.name, tenant.component, provider.now(),
                   tenant.status.refreshes);
  }
  if (report.degraded()) {
    tenant.status.imputed_entries += report.missing_entries();
  }
  if (!tenant.config.detector_enabled) return;

  // The detector's direction/level signal, assembled as the service does.
  const netmodel::PerformanceMatrix& constant = tenant.component.constant;
  const std::size_t n = constant.size();
  tenant.constant_flat.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      tenant.constant_flat[i * n + j] =
          i == j ? 0.0
                 : constant.transfer_time(i, j, tenant.config.operation_bytes);
    }
  }
  detect::RefreshSignals signals;
  signals.time = provider.now();
  signals.refresh = tenant.status.refreshes;
  signals.sparsity = std::max(report.component.error_norm,
                              report.component.latency_error_norm);
  signals.residual =
      std::max(report.latency.residual, report.bandwidth.residual);
  signals.drift = std::max(report.latency.drift, report.bandwidth.drift);
  const online::LayerRefresh& support_layer =
      report.bandwidth.support_fraction >= report.latency.support_fraction
          ? report.bandwidth
          : report.latency;
  signals.support_concentration = support_layer.support_concentration;
  signals.support_vm = support_layer.support_vm;
  signals.constant = &tenant.constant_flat;

  std::optional<detect::Verdict> verdict;
  {
    const Tracer::Scope span(tenant.tracer, Layer::Detect);
    verdict = tenant.detector.observe(signals);
  }
  if (!verdict) return;
  ++tenant.status.detector_verdicts;
  if (tenant.config.detector_preempt &&
      verdict->kind != detect::VerdictKind::OutlierStorm) {
    tenant.preempt_pending = true;
  }
}

void Replica::maintain(Tenant& tenant, online::TriggerReason reason) {
  online::IngestReport ingest;
  {
    const Tracer::Scope span(tenant.tracer, Layer::Ingest);
    ingest = tenant.ingestor.ingest_calibrated();
  }
  ++tenant.status.snapshots_ingested;
  tenant.counts.failed_probes += ingest.failed_measurements;
  if (ingest.stale_reused) ++tenant.counts.stale_reused;

  online::RefreshReport report;
  {
    const Tracer::Scope span(tenant.tracer, Layer::Refresh);
    report = tenant.refresher.refresh(tenant.window);
  }
  for (const online::LayerRefresh* layer :
       {&report.latency, &report.bandwidth}) {
    if (layer->incremental_used) continue;
    if (layer->warm_used) {
      ++tenant.status.warm_solves;
    } else {
      ++tenant.status.cold_solves;
    }
    if (layer->cold_fallback) ++tenant.status.cold_fallbacks;
  }
  if (reason == online::TriggerReason::ForcedDegraded) {
    ++tenant.status.forced_recalibrations;
  }
  if (reason == online::TriggerReason::DetectorSignal) {
    ++tenant.status.detector_recalibrations;
  }
  tenant.account(report);
  const std::uint64_t verdicts = tenant.status.detector_verdicts;
  publish_and_detect(tenant, report);
  tenant.counts.verdicts += tenant.status.detector_verdicts - verdicts;
}

void Replica::step(Tenant& tenant) {
  tenant.tracer.set_trace(tenant.index, tenant.status.steps);
  const Tracer::Scope span(tenant.tracer, Layer::Step);
  cloud::NetworkProvider& provider = tenant.provider;
  provider.advance(tenant.config.operation_gap);
  if (tenant.preempt_pending) {
    tenant.preempt_pending = false;
    maintain(tenant, online::TriggerReason::DetectorSignal);
  }

  const auto n = static_cast<std::int64_t>(provider.cluster_size());
  const auto i = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 1));
  auto j = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 2));
  if (j >= i) ++j;
  const double expected = tenant.component.constant.transfer_time(
      i, j, tenant.config.operation_bytes);
  const double observed =
      provider.measure(i, j, tenant.config.operation_bytes);

  online::SchedulerDecision decision;
  if (!std::isfinite(observed)) {
    ++tenant.drop_streak;
    ++tenant.status.dropped_probes;
    if (tenant.config.forced_recalibration_after > 0 &&
        tenant.drop_streak >= tenant.config.forced_recalibration_after) {
      tenant.drop_streak = 0;
      decision.recalibrate = true;
      decision.reason = online::TriggerReason::ForcedDegraded;
    } else {
      decision = tenant.scheduler.poll(provider.now());
    }
  } else {
    tenant.drop_streak = 0;
    decision = tenant.scheduler.observe_operation(provider.now(), expected,
                                                  observed);
  }
  if (decision.recalibrate) maintain(tenant, decision.reason);
  ++tenant.status.steps;
}

std::uint64_t Replica::digest() const {
  std::vector<const core::ConstantComponent*> components;
  std::vector<online::TenantStatus> statuses;
  for (const auto& owned : tenants_) {
    const Tenant& tenant = *owned;
    online::TenantStatus status = tenant.status;
    status.provider_time = tenant.provider.now();
    status.error_norm = tenant.component.error_norm;
    status.level = tenant.scheduler.level();
    status.breaches = tenant.scheduler.breaches();
    status.interval_recalibrations = tenant.scheduler.interval_triggers();
    status.suppressed_recalibrations = tenant.scheduler.suppressed();
    status.calibration_failures = tenant.ingestor.failed_measurements();
    status.stale_rows_reused = tenant.ingestor.stale_rows_reused();
    components.push_back(&tenant.component);
    statuses.push_back(status);
  }
  return trajectory_digest(components, statuses);
}

RefreshCounts Replica::counts() const {
  RefreshCounts total;
  for (const auto& tenant : tenants_) total += tenant->counts;
  return total;
}

RefreshSamples Replica::samples() const {
  RefreshSamples all;
  for (const auto& tenant : tenants_) {
    const RefreshSamples& s = tenant->samples;
    all.incremental_ms.insert(all.incremental_ms.end(),
                              s.incremental_ms.begin(),
                              s.incremental_ms.end());
    all.warm_ms.insert(all.warm_ms.end(), s.warm_ms.begin(), s.warm_ms.end());
    all.cold_ms.insert(all.cold_ms.end(), s.cold_ms.begin(), s.cold_ms.end());
    all.iterations.insert(all.iterations.end(), s.iterations.begin(),
                          s.iterations.end());
  }
  return all;
}

}  // namespace netconst::e2e
