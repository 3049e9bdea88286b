#include "online/service.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::online {

namespace {

/// The change-point detector needs the sparse-support geometry; the
/// service turns it on per tenant as the config demands (an explicit
/// user choice in RefresherOptions is respected).
RefresherOptions tenant_refresher_options(const TenantConfig& config) {
  RefresherOptions options = config.refresher;
  if (config.detector_enabled) options.collect_support_stats = true;
  return options;
}

/// A per-tenant metric and the service-wide total it rolls up into,
/// resolved once and updated together so the two cannot disagree.
template <typename Metric>
struct Rollup {
  Metric& tenant;
  Metric& total;

  void increment(double amount = 1.0) {
    tenant.increment(amount);
    total.increment(amount);
  }
  void observe(double value) {
    tenant.observe(value);
    total.observe(value);
  }
  double value() const { return tenant.value(); }
};

/// PolishCapped detail: each layer whose accepted fit hit its polish
/// cap, with the polish iterations it ran, e.g. "polish capped
/// (latency: 300 iterations; bandwidth: 300 iterations)". The Result
/// buffers hold this refresh's fit for every capped layer (a capped
/// layer took the full path).
std::string polish_capped_detail(const RefreshReport& report,
                                 const WindowRefresher& refresher) {
  const LayerRefresh* layers[] = {&report.latency, &report.bandwidth};
  const rpca::Result* results[] = {&refresher.latency_result(),
                                   &refresher.bandwidth_result()};
  const char* names[] = {"latency", "bandwidth"};
  std::string detail = "polish capped (";
  bool first = true;
  for (std::size_t k = 0; k < 2; ++k) {
    if (!layers[k]->polish_capped) continue;
    if (!first) detail += "; ";
    first = false;
    detail += names[k];
    detail += ": ";
    detail += std::to_string(results[k]->polish_iterations);
    detail += " iterations";
  }
  detail += ")";
  return detail;
}

}  // namespace

struct ConstantFinderService::Tenant {
  Tenant(const TenantConfig& config_in, MetricsRegistry& metrics)
      : config(config_in),
        window(config_in.window_capacity),
        refresher(tenant_refresher_options(config_in)),
        detector(config_in.detector),
        scheduler(config_in.scheduler),
        ingestor(*config_in.provider, window, config_in.ingest),
        rng(config_in.seed),
        // Every handle resolved once, so all series exist (at zero) from
        // registration; the registry keeps the objects alive.
        snapshots{metrics.counter(prefix() + "snapshots_ingested"),
                  metrics.counter("online.snapshots_ingested")},
        operations{metrics.counter(prefix() + "operations"),
                   metrics.counter("online.operations")},
        refreshes{metrics.counter(prefix() + "refreshes"),
                  metrics.counter("online.refreshes")},
        warm_solves{metrics.counter(prefix() + "warm_solves"),
                    metrics.counter("online.warm_solves")},
        cold_solves{metrics.counter(prefix() + "cold_solves"),
                    metrics.counter("online.cold_solves")},
        recalibrations{metrics.counter(prefix() + "recalibrations"),
                       metrics.counter("online.recalibrations")},
        suppressed{metrics.counter(prefix() + "recalibrations_suppressed"),
                   metrics.counter("online.recalibrations_suppressed")},
        dropped_probes{metrics.counter(prefix() + "dropped_probes"),
                       metrics.counter("online.dropped_probes")},
        calibration_failures{
            metrics.counter(prefix() + "calibration_failures"),
            metrics.counter("online.calibration_failures")},
        stale_rows{metrics.counter(prefix() + "stale_rows_reused"),
                   metrics.counter("online.stale_rows_reused")},
        imputed_entries{metrics.counter(prefix() + "imputed_entries"),
                        metrics.counter("online.imputed_entries")},
        incremental_updates{
            metrics.counter(prefix() + "incremental_updates"),
            metrics.counter("rpca.incremental.updates")},
        drift_fallbacks{metrics.counter(prefix() + "drift_fallbacks"),
                        metrics.counter("rpca.incremental.drift_fallbacks")},
        refresh_seconds{metrics.histogram(prefix() + "refresh_seconds"),
                        metrics.histogram("online.refresh_seconds")},
        forced(metrics.counter(prefix() + "forced_recalibrations")),
        detector_verdicts(metrics.counter(prefix() + "detector_verdicts")),
        detector_recalibrations(
            metrics.counter(prefix() + "detector_recalibrations")),
        error_norm_gauge(metrics.gauge(prefix() + "error_norm")) {
    NETCONST_CHECK(config.provider->cluster_size() >= 2,
                   "tenant cluster must have at least two VMs");
    NETCONST_CHECK(config.operation_gap >= 0.0,
                   "operation gap must be >= 0");
  }

  std::string prefix() const { return "tenant." + config.name + "."; }

  TenantConfig config;
  SlidingWindow window;
  WindowRefresher refresher;
  detect::ChangePointDetector detector;
  /// Per-pair transfer times of the accepted constant — the detector's
  /// direction/level reference space (reused scratch).
  std::vector<double> constant_flat;
  /// A persistent-change verdict arms this; the next step() runs a
  /// pre-emptive maintenance (TriggerReason::DetectorSignal).
  bool detector_preempt_pending = false;
  double detector_preempt_score = 0.0;
  RecalibrationScheduler scheduler;
  SnapshotIngestor ingestor;
  Rng rng;
  core::ConstantComponent component;
  bool bootstrapped = false;
  std::size_t steps = 0;
  std::size_t drop_streak = 0;  // consecutive lost operation probes
  // Ingestor lifetime totals already folded into the metrics.
  std::uint64_t synced_failures = 0;
  std::uint64_t synced_stale = 0;

  // Batch-scheduler state, touched only under the batch mutex or by
  // the single driver that currently owns the tenant.
  std::size_t batch_remaining = 0;
  double step_ewma = 0.0;  // seconds per step; 0 = not yet measured

  Rollup<Counter> snapshots;
  Rollup<Counter> operations;
  Rollup<Counter> refreshes;
  Rollup<Counter> warm_solves;
  Rollup<Counter> cold_solves;
  Rollup<Counter> recalibrations;
  Rollup<Counter> suppressed;
  Rollup<Counter> dropped_probes;
  Rollup<Counter> calibration_failures;
  Rollup<Counter> stale_rows;
  Rollup<Counter> imputed_entries;
  Rollup<Counter> incremental_updates;
  Rollup<Counter> drift_fallbacks;
  Rollup<Histogram> refresh_seconds;
  Counter& forced;
  Counter& detector_verdicts;
  Counter& detector_recalibrations;
  Gauge& error_norm_gauge;
};

ConstantFinderService::ConstantFinderService(const ServiceOptions& options)
    : options_(options),
      owned_pool_(options.threads == 0
                      ? nullptr
                      : std::make_unique<ThreadPool>(options.threads)),
      pool_(owned_pool_ ? owned_pool_.get() : &ThreadPool::global()),
      events_(options.event_capacity),
      svd_full_(metrics_.counter("rpca.svd.path.full")),
      svd_incremental_(metrics_.counter("rpca.svd.path.incremental")),
      masked_fallbacks_(metrics_.counter("rpca.incremental.masked_fallbacks")),
      anchors_(metrics_.counter("rpca.incremental.anchors")),
      level_changes_(metrics_.counter("online.level_changes")),
      calibration_seconds_(metrics_.histogram("online.calibration_seconds")),
      error_norm_(metrics_.histogram("online.error_norm")),
      operation_relative_error_(
          metrics_.histogram("online.operation_relative_error")),
      detect_latency_slides_(metrics_.histogram("detect.latency_slides")),
      detect_preemptions_(metrics_.counter("detect.preemptions")),
      // TriggerReason order; None books as an interval trigger.
      recalibrations_by_reason_{
          &metrics_.counter("online.recalibrations.interval"),
          &metrics_.counter("online.recalibrations.breach"),
          &metrics_.counter("online.recalibrations.interval"),
          &metrics_.counter("online.recalibrations.forced"),
          &metrics_.counter("online.recalibrations.detector")} {
  for (std::size_t k = 0; k < verdicts_.size(); ++k) {
    verdicts_[k] = &metrics_.counter(
        std::string("detect.verdicts.") +
        detect::verdict_kind_name(static_cast<detect::VerdictKind>(k)));
  }
}

ConstantFinderService::~ConstantFinderService() = default;

std::size_t ConstantFinderService::add_tenant(const TenantConfig& config) {
  NETCONST_CHECK(!config.name.empty(), "tenant name must not be empty");
  // Checked before Tenant's members bind to *config.provider.
  NETCONST_CHECK(config.provider != nullptr, "tenant needs a provider");
  for (const auto& tenant : tenants_) {
    NETCONST_CHECK(tenant->config.name != config.name,
                   "duplicate tenant name");
    NETCONST_CHECK(tenant->config.provider != config.provider,
                   "providers must not be shared between tenants");
  }
  tenants_.push_back(std::make_unique<Tenant>(config, metrics_));
  return tenants_.size() - 1;
}

void ConstantFinderService::sync_ingest_totals(Tenant& tenant) {
  const std::uint64_t failures = tenant.ingestor.failed_measurements();
  if (failures > tenant.synced_failures) {
    const auto delta =
        static_cast<double>(failures - tenant.synced_failures);
    tenant.calibration_failures.increment(delta);
    tenant.synced_failures = failures;
  }
  const std::uint64_t stale = tenant.ingestor.stale_rows_reused();
  if (stale > tenant.synced_stale) {
    const auto delta = static_cast<double>(stale - tenant.synced_stale);
    tenant.stale_rows.increment(delta);
    // One event per reused row, so the event log, the counters, and
    // TenantStatus all agree — bootstrap fills included.
    for (std::uint64_t k = tenant.synced_stale; k < stale; ++k) {
      events_.record({tenant.config.provider->now(), tenant.config.name,
                      EventKind::StaleRowReused,
                      "snapshot too degraded; re-pushed last good",
                      static_cast<double>(k + 1)});
    }
    tenant.synced_stale = stale;
  }
}

void ConstantFinderService::run_detector(Tenant& tenant,
                                         const RefreshReport& report) {
  cloud::NetworkProvider& provider = *tenant.config.provider;
  // The constant's direction/level signal: per-pair transfer times of
  // the tenant's own message size — one unit-free vector that moves
  // with both alpha and beta exactly as the operation stream does. A
  // placement shift bends its direction; a uniform (diurnal) swing
  // moves its level and leaves the direction alone.
  const netmodel::PerformanceMatrix& constant = tenant.component.constant;
  const std::size_t n = constant.size();
  tenant.constant_flat.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      tenant.constant_flat[i * n + j] =
          i == j ? 0.0
                 : constant.transfer_time(i, j,
                                          tenant.config.operation_bytes);
    }
  }

  detect::RefreshSignals signals;
  signals.time = provider.now();
  signals.refresh = static_cast<std::uint64_t>(tenant.refreshes.value());
  signals.sparsity = std::max(report.component.error_norm,
                              report.component.latency_error_norm);
  signals.drift = std::max(report.latency.drift, report.bandwidth.drift);
  const LayerRefresh& support_layer =
      report.bandwidth.support_fraction >= report.latency.support_fraction
          ? report.bandwidth
          : report.latency;
  signals.support_concentration = support_layer.support_concentration;
  signals.support_vm = support_layer.support_vm;
  signals.constant = &tenant.constant_flat;

  const std::optional<detect::Verdict> verdict =
      tenant.detector.observe(signals);
  if (!verdict) return;

  const char* kind = detect::verdict_kind_name(verdict->kind);
  tenant.detector_verdicts.increment();
  verdicts_[static_cast<std::size_t>(verdict->kind)]->increment();
  detect_latency_slides_.observe(
      static_cast<double>(verdict->latency_slides));
  std::string detail = std::string(kind) + " (signal " +
                       detect::signal_name(verdict->signal) + ", latency " +
                       std::to_string(verdict->latency_slides) + " slides";
  if (verdict->kind == detect::VerdictKind::PlacementShift) {
    detail += ", vm " + std::to_string(verdict->vm);
  }
  detail += ")";
  events_.record({provider.now(), tenant.config.name,
                  EventKind::ChangeDetected, std::move(detail),
                  verdict->score});
  // A verdict is exactly the anomaly the flight recorder exists for.
  obs::FlightRecorder::instance().maybe_auto_dump(
      (std::string("detector_") + kind).c_str());
  if (tenant.config.detector_preempt &&
      verdict->kind != detect::VerdictKind::OutlierStorm) {
    tenant.detector_preempt_pending = true;
    tenant.detector_preempt_score = verdict->score;
    detect_preemptions_.increment();
  }
}

void ConstantFinderService::set_snapshot_sink(SnapshotSink* sink) {
  snapshot_sink_.store(sink, std::memory_order_seq_cst);
  // A driver that loaded the old sink raised publishes_in_flight_
  // before its load (seq_cst on both sides), so once the counter reads
  // zero here no publish can still be running — or start — on it.
  while (publishes_in_flight_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
}

void ConstantFinderService::publish_snapshot(Tenant& tenant) {
  publishes_in_flight_.fetch_add(1, std::memory_order_seq_cst);
  struct Leave {
    std::atomic<std::size_t>* counter;
    ~Leave() { counter->fetch_sub(1, std::memory_order_release); }
  } leave{&publishes_in_flight_};
  SnapshotSink* sink = snapshot_sink_.load(std::memory_order_seq_cst);
  if (sink == nullptr) return;
  sink->publish(
      tenant.config.name, tenant.component, tenant.config.provider->now(),
      static_cast<std::uint64_t>(tenant.refreshes.value()));
}

bool ConstantFinderService::account_refresh(Tenant& tenant,
                                            const RefreshReport& report) {
  cloud::NetworkProvider& provider = *tenant.config.provider;
  tenant.component = report.component;
  const bool level_changed = tenant.scheduler.record_refresh(
      provider.now(), report.component.error_norm);
  tenant.refreshes.increment();
  publish_snapshot(tenant);
  if (report.degraded()) {
    tenant.imputed_entries.increment(
        static_cast<double>(report.missing_entries()));
  }
  for (const LayerRefresh* layer : {&report.latency, &report.bandwidth}) {
    // Which machinery produced this layer's factors: the incremental
    // row update or the full path.
    if (layer->incremental_used) {
      tenant.incremental_updates.increment();
      svd_incremental_.increment();
      continue;  // no solve ran for this layer
    }
    svd_full_.increment();
    if (layer->drift_fallback) tenant.drift_fallbacks.increment();
    if (layer->incremental_masked) masked_fallbacks_.increment();
    if (layer->anchored) anchors_.increment();
    (layer->warm_used ? tenant.warm_solves : tenant.cold_solves).increment();
  }
  if (report.latency.polish_capped || report.bandwidth.polish_capped) {
    events_.record({provider.now(), tenant.config.name,
                    EventKind::PolishCapped,
                    polish_capped_detail(report, tenant.refresher),
                    report.component.error_norm});
    // An accepted fit that did not settle is an anomaly worth a
    // post-mortem: freeze the flight recorder's view of the refresh.
    obs::FlightRecorder::instance().maybe_auto_dump("polish_capped");
  }
  tenant.refresh_seconds.observe(report.total_seconds);
  error_norm_.observe(report.component.error_norm);
  tenant.error_norm_gauge.set(report.component.error_norm);
  return level_changed;
}

void ConstantFinderService::bootstrap(Tenant& tenant) {
  obs::Span bootstrap_span("svc.bootstrap");
  cloud::NetworkProvider& provider = *tenant.config.provider;
  const double fill_seconds = [&] {
    obs::Span ingest_span("svc.ingest");
    return tenant.ingestor.fill(tenant.config.snapshot_interval);
  }();
  tenant.snapshots.increment(static_cast<double>(tenant.window.size()));
  calibration_seconds_.observe(fill_seconds);
  sync_ingest_totals(tenant);

  // No prior E and no tracker yet: both layers fit from zero (cold),
  // and the first record_refresh never reports a level change.
  const RefreshReport report = tenant.refresher.refresh(tenant.window);
  account_refresh(tenant, report);
  events_.record({provider.now(), tenant.config.name, EventKind::Refresh,
                  "bootstrap (" + std::to_string(tenant.window.size()) +
                      " snapshots, cold solve)",
                  report.component.error_norm});
  if (tenant.config.detector_enabled) run_detector(tenant, report);
  tenant.bootstrapped = true;
}

void ConstantFinderService::maintain(Tenant& tenant, TriggerReason reason,
                                     double trigger_value) {
  obs::Span maintain_span("svc.maintain");
  cloud::NetworkProvider& provider = *tenant.config.provider;

  // The online analogue of Algorithm 1's "re-calibrate": slide the
  // window by one fresh all-link calibration — stale rows phase out of
  // the window instead of being thrown away wholesale, so maintenance
  // costs one snapshot, not time_step of them.
  const IngestReport ingest = [&] {
    obs::Span ingest_span("svc.ingest");
    return tenant.ingestor.ingest_calibrated();
  }();
  tenant.snapshots.increment();
  calibration_seconds_.observe(ingest.elapsed_seconds);
  sync_ingest_totals(tenant);
  events_.record({provider.now(), tenant.config.name,
                  EventKind::SnapshotIngested,
                  trigger_reason_name(reason), ingest.elapsed_seconds});

  const RefreshReport report = tenant.refresher.refresh(tenant.window);
  const bool level_changed = account_refresh(tenant, report);

  tenant.recalibrations.increment();
  recalibrations_by_reason_[static_cast<std::size_t>(reason)]->increment();
  if (reason == TriggerReason::ForcedDegraded) {
    tenant.forced.increment();
    obs::FlightRecorder::instance().maybe_auto_dump("forced_recalibration");
  }
  if (reason == TriggerReason::DetectorSignal) {
    tenant.detector_recalibrations.increment();
  }
  events_.record({provider.now(), tenant.config.name,
                  EventKind::Recalibration, trigger_reason_name(reason),
                  trigger_value});
  if (level_changed) {
    level_changes_.increment();
    events_.record(
        {provider.now(), tenant.config.name, EventKind::LevelChange,
         core::effectiveness_name(tenant.scheduler.level()),
         report.component.error_norm});
  }
  if (tenant.config.detector_enabled) run_detector(tenant, report);
}

void ConstantFinderService::step(Tenant& tenant) {
  obs::Span step_span("svc.step");
  cloud::NetworkProvider& provider = *tenant.config.provider;
  provider.advance(tenant.config.operation_gap);

  // A persistent-change verdict pre-empts the threshold/interval
  // policies: refresh the model now, before more operations are planned
  // against a constant the detector says is stale.
  if (tenant.detector_preempt_pending) {
    tenant.detector_preempt_pending = false;
    maintain(tenant, TriggerReason::DetectorSignal,
             tenant.detector_preempt_score);
  }

  // One operation of the tenant's stream: a point-to-point transfer
  // between a random pair, planned with the constant component.
  const auto n = static_cast<std::int64_t>(provider.cluster_size());
  const auto i = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 1));
  auto j = static_cast<std::size_t>(tenant.rng.uniform_int(0, n - 2));
  if (j >= i) ++j;
  const double expected =
      tenant.component.constant.transfer_time(i, j,
                                              tenant.config.operation_bytes);
  const double observed =
      provider.measure(i, j, tenant.config.operation_bytes);
  tenant.operations.increment();

  SchedulerDecision decision;
  if (!std::isfinite(observed)) {
    // Lost probe (timeout / dropped measurement): there is no error
    // signal this cycle, so the threshold policy cannot fire — but a
    // run of blind cycles is itself a signal. Track the streak, keep
    // the adaptive interval policy ticking, and force a maintenance
    // once the streak says the constant can no longer be checked.
    ++tenant.drop_streak;
    tenant.dropped_probes.increment();
    events_.record({provider.now(), tenant.config.name,
                    EventKind::ProbeDropped, "operation probe lost",
                    static_cast<double>(tenant.drop_streak)});
    if (tenant.config.forced_recalibration_after > 0 &&
        tenant.drop_streak >= tenant.config.forced_recalibration_after) {
      events_.record({provider.now(), tenant.config.name,
                      EventKind::ForcedRecalibration,
                      "consecutive lost probes reached the limit",
                      static_cast<double>(tenant.drop_streak)});
      tenant.drop_streak = 0;
      decision.recalibrate = true;
      decision.reason = TriggerReason::ForcedDegraded;
    } else {
      decision = tenant.scheduler.poll(provider.now());
    }
  } else {
    tenant.drop_streak = 0;
    decision = tenant.scheduler.observe_operation(provider.now(), expected,
                                                  observed);
    operation_relative_error_.observe(decision.relative_error);
  }

  if (decision.suppressed_probes > 0) {
    const auto count = static_cast<double>(decision.suppressed_probes);
    tenant.suppressed.increment(count);
    events_.record({provider.now(), tenant.config.name,
                    EventKind::RecalibrationSuppressed,
                    "interval factor " +
                        ConsoleTable::cell(
                            tenant.scheduler.advisor()
                                .recalibration_interval_factor(),
                            2),
                    count});
  }
  if (decision.recalibrate) {
    if (decision.reason == TriggerReason::ThresholdBreach) {
      events_.record({provider.now(), tenant.config.name,
                      EventKind::ThresholdBreach,
                      "operation deviated from expectation",
                      decision.relative_error});
    }
    maintain(tenant, decision.reason, decision.relative_error);
  }
  ++tenant.steps;
}

void ConstantFinderService::run(std::size_t steps) {
  NETCONST_CHECK(!tenants_.empty(), "run() with no tenants");
  const std::size_t slice =
      options_.batch_slice == 0 ? 1 : options_.batch_slice;

  // Shared batch state. Reference-counted because a submitted driver
  // task can outlive run(): once the last tenant finishes the caller
  // is released, but a driver that found the ready queue empty may
  // still be unwinding.
  struct Batch {
    std::mutex mutex;
    std::condition_variable done_cv;
    std::vector<Tenant*> ready;  // claimable tenants with work left
    std::size_t unfinished = 0;
    std::exception_ptr first_error;
  };
  auto batch = std::make_shared<Batch>();
  batch->ready.reserve(tenants_.size());
  for (const auto& tenant : tenants_) {
    tenant->batch_remaining = steps;
    batch->ready.push_back(tenant.get());
  }
  batch->unfinished = tenants_.size();

  // One driver: repeatedly claim the tenant with the largest estimated
  // remaining work and advance it one quantum. Longest-remaining-first
  // keeps a straggling tenant from serializing the batch tail — it gets
  // picked up early and stays in flight while short tenants fill the
  // other workers. Drivers never block: an empty ready queue means
  // every unfinished tenant is already owned by some other driver, so
  // the driver retires instead of waiting (a blocked pool worker would
  // starve the solver regions that share these threads).
  auto drive = [this, batch, slice] {
    for (;;) {
      Tenant* tenant = nullptr;
      {
        std::lock_guard<std::mutex> lock(batch->mutex);
        std::size_t best = batch->ready.size();
        double best_estimate = -1.0;
        for (std::size_t k = 0; k < batch->ready.size(); ++k) {
          const Tenant& candidate = *batch->ready[k];
          // Unmeasured tenants (not yet bootstrapped, or never timed)
          // sort first: they could be arbitrarily expensive.
          const double estimate =
              !candidate.bootstrapped || candidate.step_ewma <= 0.0
                  ? std::numeric_limits<double>::infinity()
                  : candidate.step_ewma *
                        static_cast<double>(candidate.batch_remaining);
          if (estimate > best_estimate) {
            best_estimate = estimate;
            best = k;
          }
        }
        if (best == batch->ready.size()) return;
        tenant = batch->ready[best];
        batch->ready.erase(batch->ready.begin() +
                           static_cast<std::ptrdiff_t>(best));
      }

      bool failed = false;
      std::size_t executed = 0;
      double step_seconds = 0.0;
      try {
        if (!tenant->bootstrapped) bootstrap(*tenant);
        const std::size_t quantum =
            std::min(slice, tenant->batch_remaining);
        const Stopwatch clock;
        for (; executed < quantum; ++executed) step(*tenant);
        step_seconds = clock.seconds();
      } catch (...) {
        failed = true;
        std::lock_guard<std::mutex> lock(batch->mutex);
        if (!batch->first_error) {
          batch->first_error = std::current_exception();
        }
      }

      std::lock_guard<std::mutex> lock(batch->mutex);
      if (executed > 0) {
        // EWMA of wall seconds per step feeds the remaining-work
        // estimate. Noisy (a quantum with a refresh is much dearer
        // than one without) but plenty for straggler ordering.
        const double per_step =
            step_seconds / static_cast<double>(executed);
        tenant->step_ewma = tenant->step_ewma <= 0.0
                                ? per_step
                                : 0.3 * per_step + 0.7 * tenant->step_ewma;
        tenant->batch_remaining -= executed;
      }
      if (!failed && tenant->batch_remaining > 0) {
        batch->ready.push_back(tenant);
      } else if (--batch->unfinished == 0) {
        batch->done_cv.notify_all();
      }
    }
  };

  // min(workers, tenants) pool drivers plus the caller. With a single
  // worker this degenerates gracefully: the caller and one worker
  // drain the batch in longest-remaining-first order.
  const std::size_t drivers =
      std::min(pool_->thread_count(), tenants_.size());
  for (std::size_t d = 0; d < drivers; ++d) pool_->submit(drive);
  drive();

  std::unique_lock<std::mutex> lock(batch->mutex);
  batch->done_cv.wait(lock, [&] { return batch->unfinished == 0; });
  if (batch->first_error) std::rethrow_exception(batch->first_error);
}

TenantStatus ConstantFinderService::status(std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenants_.size(), "tenant out of range");
  const Tenant& tenant = *tenants_[tenant_index];
  TenantStatus status;
  status.name = tenant.config.name;
  status.steps = tenant.steps;
  status.provider_time = tenant.config.provider->now();
  status.error_norm = tenant.component.error_norm;
  status.level = tenant.scheduler.level();
  const auto count = [](const auto& metric) {
    return static_cast<std::uint64_t>(metric.value());
  };
  status.snapshots_ingested = count(tenant.snapshots);
  status.refreshes = count(tenant.refreshes);
  status.warm_solves = count(tenant.warm_solves);
  status.cold_solves = count(tenant.cold_solves);
  status.breaches = tenant.scheduler.breaches();
  status.interval_recalibrations = tenant.scheduler.interval_triggers();
  status.suppressed_recalibrations = tenant.scheduler.suppressed();
  status.dropped_probes = count(tenant.dropped_probes);
  status.calibration_failures = count(tenant.calibration_failures);
  status.stale_rows_reused = count(tenant.stale_rows);
  status.forced_recalibrations = count(tenant.forced);
  status.imputed_entries = count(tenant.imputed_entries);
  status.detector_verdicts = count(tenant.detector_verdicts);
  status.detector_recalibrations = count(tenant.detector_recalibrations);
  return status;
}

const core::ConstantComponent& ConstantFinderService::component(
    std::size_t tenant_index) const {
  NETCONST_CHECK(tenant_index < tenants_.size(), "tenant out of range");
  return tenants_[tenant_index]->component;
}

void ConstantFinderService::write_prometheus(std::ostream& out) const {
  obs::write_prometheus(out, metrics_.samples());
}

void ConstantFinderService::write_json_snapshot(std::ostream& out) const {
  obs::TelemetrySnapshot snapshot;
  snapshot.metrics = metrics_.samples();
  obs::write_json_snapshot(out, snapshot);
}

void ConstantFinderService::print_report(std::ostream& out) const {
  print_banner(out, "ConstantFinderService report");
  ConsoleTable table({"tenant", "steps", "Norm(N_E)", "level", "snapshots",
                      "refreshes", "warm rate", "breaches",
                      "interval", "suppressed", "dropped", "stale",
                      "forced"});
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    const TenantStatus s = status(t);
    table.add_row({s.name, std::to_string(s.steps),
                   ConsoleTable::cell(s.error_norm),
                   core::effectiveness_name(s.level),
                   std::to_string(s.snapshots_ingested),
                   std::to_string(s.refreshes),
                   ConsoleTable::cell_percent(s.warm_hit_rate()),
                   std::to_string(s.breaches),
                   std::to_string(s.interval_recalibrations),
                   std::to_string(s.suppressed_recalibrations),
                   std::to_string(s.dropped_probes),
                   std::to_string(s.stale_rows_reused),
                   std::to_string(s.forced_recalibrations)});
  }
  table.print(out);
  out << '\n';
  print_banner(out, "Metrics");
  metrics_.to_table().print(out);
  out << '\n'
      << "events recorded: " << events_.recorded() << " (retained "
      << events_.size() << ")\n";
}

}  // namespace netconst::online
