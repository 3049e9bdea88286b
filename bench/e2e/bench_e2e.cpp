// bench_e2e — end-to-end benchmark of the maintenance loop and /plan
// serving.
//
// One workload per process. The untraced run drives the real
// online::ConstantFinderService with a serving::ConstantServer on
// loopback while an open-loop client in the same process sends
// keep-alive GET /plan requests. The service is observed only through
// public seams: a SnapshotSink decorator that forwards to the server's
// snapshot store and stamps every publish, and the client's per-request
// times measured from each request's scheduled send time.
//
// The traced run (--trace) gives the per-layer numbers. Phase A repeats
// the untraced run briefly to measure the service's CPU per slide and
// the HTTP path; phase B drives the same tenants through each layer's
// public entry point (replica.hpp) with bench-side spans, and serves
// the same request stream in-process with spans around the plan cache.
// An untraced twin of the replica runs the same steps in between, and
// the ratio of the two wall times is the tracing overhead. The output
// ends with a ranked "where the time went" table.
//
// Usage:
//   bench_e2e --workload <name> --seed <n> --seconds <s> [--trace]
//             [--spans <path>]
//   bench_e2e --smoke        every workload, short, checks only
//
// The last line of standard output is one JSON object with the
// metrics, the output checks and the trajectory digest (bench/e2e/run.py
// turns it into the benchmark's result line). Exit status 1 when any
// output check fails.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "linalg/simd.hpp"
#include "loadgen.hpp"
#include "replica.hpp"
#include "serving/server.hpp"
#include "spans.hpp"
#include "support/thread_pool.hpp"
#include "workload.hpp"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#ifndef NETCONST_E2E_BUILD_TYPE
#define NETCONST_E2E_BUILD_TYPE "unknown"
#endif
#ifndef NETCONST_E2E_COMPILER
#define NETCONST_E2E_COMPILER "unknown"
#endif

namespace netconst::e2e {
namespace {

/// Every this many publishes per tenant, the sink scores the published
/// constant against the ground truth.
constexpr std::uint64_t kErrorSampleEvery = 4;
/// Sanity limit on the median constant error. Steady-state windows carry
/// interference the bootstrap window does not see, and their medians
/// measure 0.10-0.15 on the N=32 workloads; a constant that belongs to
/// another tenant or is built from imputed garbage reads far above this.
constexpr double kConstErrorLimit = 0.3;
/// Largest backlog growth (requests over the final third) that still
/// counts as keeping up with the open loop.
constexpr double kBacklogGrowthLimit = 16.0;
/// Largest share by which the traced replica's wall time may exceed (or
/// undercut) its untraced twin's on the same steps. A span costs ~95 ns
/// (two clock reads are ~55 of them), so chaos_tenants, with ~37 spans
/// per ~100 us slide, carries a real 2-5% overhead; 5% would fail it at
/// random.
constexpr double kTraceOverheadTolerance = 0.10;
constexpr std::size_t kTracePiecesPerChunk = 8;
/// With NETCONST_THREADS=1: the calling driver, one pool worker (the
/// second driver), the HTTP event loop and the client.
constexpr std::size_t kThreadBudget = 4;
/// Open-loop /plan request rate of every workload, and the keep-alive
/// connections it is spread over. The HTTP thread still waits in poll()
/// between requests, but only ~100 us. At 500 per second (2 ms gaps),
/// p50 was higher and varied by 10-25% from run to run, apparently with
/// how long the host took to wake the idle thread.
constexpr double kPlanRate = 10000.0;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kSpanRecordCap = 200000;
/// Latency quantiles are taken per window of this many seconds. At
/// kPlanRate a window holds 5000 requests, so its p99 has 50 beyond it.
/// On the host measured, latency switched between a fast and a ~1.5x
/// slower state every few seconds, so a window mostly sees one state.
constexpr double kLatencyWindowSeconds = 0.5;
/// A window with fewer requests than this (the partial one at the end of
/// a run) is left out.
constexpr auto kMinWindowRequests =
    static_cast<std::size_t>(0.9 * kPlanRate * kLatencyWindowSeconds);
constexpr std::uint64_t kClientStream = 600;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Output {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, double>> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
  }
  bool correct() const {
    return std::all_of(checks.begin(), checks.end(),
                       [](const auto& c) { return c.second; });
  }
};

/// Forwards every publish to the snapshot store and stamps it: the wall
/// time of each publish per tenant, and every kErrorSampleEvery-th
/// publish's constant error against the ground truth. Publishes of one
/// tenant come from the driver that owns it, so per-tenant state needs
/// no lock.
class StampingSink final : public online::SnapshotSink {
 public:
  StampingSink(online::SnapshotSink& inner,
               const std::vector<std::unique_ptr<TenantWorld>>& worlds)
      : inner_(inner), worlds_(worlds), tenants_(worlds.size()) {
    for (PerTenant& tenant : tenants_) tenant.stamps.reserve(1 << 18);
  }

  void publish(const std::string& tenant,
               const core::ConstantComponent& component, double provider_now,
               std::uint64_t refresh) override {
    inner_.publish(tenant, component, provider_now, refresh);
    const Clock::time_point stamp = Clock::now();
    const std::size_t index = std::stoul(tenant.substr(1));
    PerTenant& state = tenants_[index];
    state.stamps.push_back(stamp);
    // Publishes kErrorSampleEvery, 2 * kErrorSampleEvery, ... are scored.
    // That leaves out publish 1, the bootstrap's, whose window has not
    // yet met the interference the steady-state windows carry.
    if (state.stamps.size() % kErrorSampleEvery == 0) {
      state.errors.push_back(worlds_[index]->const_error(component.constant));
    }
  }

  std::size_t publishes_since(Clock::time_point start) const {
    std::size_t count = 0;
    for (const PerTenant& tenant : tenants_) {
      count += static_cast<std::size_t>(std::count_if(
          tenant.stamps.begin(), tenant.stamps.end(),
          [&](Clock::time_point t) { return t >= start; }));
    }
    return count;
  }

  /// Wall gaps (ms) between consecutive publishes of a tenant, both
  /// stamped at or after `start`.
  std::vector<double> gaps_ms(Clock::time_point start) const {
    std::vector<double> gaps;
    for (const PerTenant& tenant : tenants_) {
      for (std::size_t k = 1; k < tenant.stamps.size(); ++k) {
        if (tenant.stamps[k - 1] < start) continue;
        gaps.push_back(
            seconds_between(tenant.stamps[k - 1], tenant.stamps[k]) * 1e3);
      }
    }
    return gaps;
  }

  std::vector<double> errors() const {
    std::vector<double> all;
    for (const PerTenant& tenant : tenants_) {
      all.insert(all.end(), tenant.errors.begin(), tenant.errors.end());
    }
    return all;
  }

 private:
  // Each tenant's state starts on its own cache line, so two drivers
  // stamping their own tenants never write to a shared line.
  struct alignas(64) PerTenant {
    std::vector<Clock::time_point> stamps;
    std::vector<double> errors;
  };

  online::SnapshotSink& inner_;
  const std::vector<std::unique_ptr<TenantWorld>>& worlds_;
  std::vector<PerTenant> tenants_;
};

std::vector<long> thread_ids() {
  std::vector<long> ids;
  for (const auto& [tid, cpu] : thread_cpu_seconds()) ids.push_back(tid);
  return ids;
}

/// One fully set-up system: clouds, service, server on loopback, the
/// stamping sink, every tenant bootstrapped and answering /plan.
struct Stack {
  Stack(const Workload& workload, std::uint64_t seed,
        const std::vector<Shape>& shapes) {
    const Clock::time_point start = Clock::now();
    worlds = make_worlds(workload, seed);
    service = std::make_unique<online::ConstantFinderService>();
    for (std::size_t t = 0; t < workload.tenants; ++t) {
      service->add_tenant(
          tenant_config(workload, t, seed, worlds[t]->provider()));
    }
    server = std::make_unique<serving::ConstantServer>(*service);
    sink = std::make_unique<StampingSink>(server->store(), worlds);
    service->set_snapshot_sink(sink.get());
    const std::vector<long> before = thread_ids();
    server->start();
    for (const long tid : thread_ids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        http_tid = tid;
      }
    }
    const long driver_tid = current_tid();
    for (const long tid : thread_ids()) {
      pin_thread(tid, tid == driver_tid ? kDriverCpu
                      : tid == http_tid ? kHttpCpu
                                        : kWorkerCpu);
    }
    service->run(0);  // bootstrap: window fill + cold solve, version 1
    for (std::size_t t = 0; t < workload.tenants; ++t) {
      const auto shape =
          std::find_if(shapes.begin(), shapes.end(),
                       [&](const Shape& s) { return s.tenant == t; });
      std::string body;
      if (http_get(server->port(), shape->target, body) != 200) {
        throw std::runtime_error("setup: first /plan request failed");
      }
    }
    setup_seconds = seconds_between(start, Clock::now());
  }

  ~Stack() {
    if (service) service->set_snapshot_sink(nullptr);
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  std::vector<std::unique_ptr<TenantWorld>> worlds;  // outlive the service
  std::unique_ptr<online::ConstantFinderService> service;
  std::unique_ptr<serving::ConstantServer> server;
  std::unique_ptr<StampingSink> sink;
  long http_tid = 0;
  double setup_seconds = 0.0;
};

/// Calls `chunk` (one batch of workload.chunk_steps steps; returns the
/// steps done so far) until `seconds` have passed since `start` and the
/// checkpoint is reached: back to back, or one call per pace_seconds on
/// a paced workload. Returns the elapsed wall time.
double drive(const Workload& workload, double seconds, Clock::time_point start,
             const std::function<std::size_t()>& chunk) {
  std::size_t steps = 0;
  for (std::size_t k = 0;; ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(workload.pace_seconds *
                                                  static_cast<double>(k)));
    const Clock::time_point now = std::max(due, Clock::now());
    if (seconds_between(start, now) >= seconds &&
        steps >= workload.checkpoint_steps) {
      return seconds_between(start, Clock::now());
    }
    std::this_thread::sleep_until(due);
    steps = chunk();
  }
}

/// What one timed run of the real service produced.
struct ServiceRun {
  double seconds = 0.0;
  std::size_t slides = 0;
  double driver_cpu_seconds = 0.0;  // every thread but HTTP and client
  std::uint64_t digest = 0;
  std::size_t events_at_checkpoint = 0;
  std::size_t metrics_at_checkpoint = 0;
  /// VmHWM when the checkpoint is reached: memory after a fixed amount
  /// of work, whatever the host's speed.
  double peak_rss_mib = 0.0;
  LoadResult load;
  serving::HttpServer::Stats http;
  serving::PlanCache::Stats cache;
  std::vector<double> gaps_ms;
  double const_error = 0.0;
  bool identical = true;  // HTTP == plan_json == compute_plan, every shape
  std::size_t threads = 0;         // of the process, at the end of the run
  std::uint64_t connections = 0;   // accepted by the server during the run
};

ServiceRun run_service(const Workload& workload, std::uint64_t seed,
                       double seconds, Stack& stack,
                       const std::vector<Shape>& shapes) {
  ServiceRun run;
  online::ConstantFinderService& service = *stack.service;
  serving::ConstantServer& server = *stack.server;

  OpenLoopClient client(shapes, kPlanRate, derive_seed(seed, kClientStream),
                        server.port(), kConnections);
  const std::uint64_t connections_before =
      server.http().stats().connections_accepted;
  const auto cpu_before = thread_cpu_seconds();
  client.start();
  const Clock::time_point start = Clock::now();
  std::size_t steps = 0;
  run.seconds = drive(workload, seconds, start, [&] {
    service.run(workload.chunk_steps);
    steps += workload.chunk_steps;
    if (steps == workload.checkpoint_steps) {
      std::vector<const core::ConstantComponent*> components;
      std::vector<online::TenantStatus> statuses;
      for (std::size_t t = 0; t < service.tenant_count(); ++t) {
        components.push_back(&service.component(t));
        statuses.push_back(service.status(t));
      }
      run.digest = trajectory_digest(components, statuses);
      run.events_at_checkpoint = service.events().size();
      run.metrics_at_checkpoint = service.metrics().metric_count();
      run.peak_rss_mib = peak_rss_mib();
    }
    return steps;
  });
  const auto cpu_after = thread_cpu_seconds();
  run.threads = cpu_after.size();
  run.load = client.stop();
  run.connections = server.http().stats().connections_accepted -
                    connections_before;
  run.driver_cpu_seconds =
      cpu_delta(cpu_before, cpu_after, {stack.http_tid, run.load.tid});
  run.slides = stack.sink->publishes_since(start);
  run.gaps_ms = stack.sink->gaps_ms(start);
  const std::vector<double> errors = stack.sink->errors();
  run.const_error = percentile(errors, 0.5);
  // Output check: with the service idle, every shape's HTTP body, the
  // in-process plan_json and a direct compute_plan on the pinned
  // snapshot must be byte-identical.
  serving::EpochDomain::Reader reader(server.epoch());
  for (const Shape& shape : shapes) {
    std::string http_body;
    const int status = http_get(server.port(), shape.target, http_body);
    const std::string in_process = server.plan_json(
        tenant_name(shape.tenant), shape.request.kind, shape.request.nodes,
        shape.request.root, shape.request.bytes, reader);
    const std::size_t index = server.store().find(tenant_name(shape.tenant));
    const serving::SnapshotStore::Ref ref =
        server.store().acquire(index, reader);
    const std::string direct = serving::compute_plan(*ref, shape.request).json;
    if (status != 200 || http_body != in_process || in_process != direct) {
      run.identical = false;
    }
  }
  run.http = server.http().stats();
  run.cache = server.plans().stats();
  return run;
}

/// Each window's q-quantile latency, over consecutive windows of the run.
/// Windows with fewer than kMinWindowRequests requests (the tail of a
/// run) are skipped; with no full window, the one value is the plain
/// quantile.
std::vector<double> window_percentiles(const LoadResult& load, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t k = 0; k < load.latency_us.size(); ++k) {
    const auto w = static_cast<std::size_t>(load.scheduled_s[k] /
                                            kLatencyWindowSeconds);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(load.latency_us[k]);
  }
  std::vector<double> per_window;
  for (std::vector<double>& window : windows) {
    if (window.size() < kMinWindowRequests) continue;
    per_window.push_back(percentile(std::move(window), q));
  }
  if (per_window.empty()) per_window.push_back(percentile(load.latency_us, q));
  return per_window;
}

/// Median over the windows of each window's q-quantile latency: a host
/// stall of a few milliseconds moves one window's figure, not the run's.
double windowed_percentile(const LoadResult& load, double q) {
  return percentile(window_percentiles(load, q), 0.5);
}

void add_service_checks(Output& out, const ServiceRun& run) {
  out.attempted = run.load.attempted;
  out.failed = run.load.failed;
  out.digest = run.digest;
  out.check("plans_identical", run.identical);
  out.check("no_failed_requests", run.load.failed == 0);
  out.check("const_err_within_limit", run.const_error <= kConstErrorLimit);
  out.check("backlog_not_growing",
            run.load.backlog_growth < kBacklogGrowthLimit);
  out.check("threads_within_budget", run.threads <= kThreadBudget);
  out.check("connections_within_budget",
            run.connections <= kConnections);
}

Output untraced(const Workload& workload, std::uint64_t seed, double seconds,
                bool smoke) {
  const std::vector<Shape> shapes = make_shapes(workload, seed);
  // Set up several times and report the median; the last set-up is the
  // one that gets measured.
  std::vector<double> setups;
  double setup_total = 0.0;
  std::unique_ptr<Stack> stack;
  for (;;) {
    stack.reset();
    stack = std::make_unique<Stack>(workload, seed, shapes);
    setups.push_back(stack->setup_seconds);
    setup_total += stack->setup_seconds;
    const std::size_t count = setups.size();
    if (smoke || count >= 25 || setup_total >= 4.0 ||
        (count >= 5 && setup_total >= 1.0)) {
      break;
    }
  }

  const ServiceRun run = run_service(workload, seed, seconds, *stack, shapes);
  Output out;
  add_service_checks(out, run);
  const std::vector<double>& latency = run.load.latency_us;
  out.metric("setup_s", percentile(setups, 0.5), "s");
  out.metric("slides_per_s", static_cast<double>(run.slides) / run.seconds,
             "1/s");
  out.metric("publish_gap_p50_ms", percentile(run.gaps_ms, 0.50), "ms");
  out.metric("publish_gap_p95_ms", percentile(run.gaps_ms, 0.95), "ms");
  out.metric("plan_p50_us", windowed_percentile(run.load, 0.50), "us");
  // The run's best window: the latency the program gives while the host
  // is in its fast state (README.md, "Host noise").
  const std::vector<double> window_p50 = window_percentiles(run.load, 0.50);
  out.metric("plan_p50_best_us",
             *std::min_element(window_p50.begin(), window_p50.end()), "us");
  out.metric("plan_p99_us", windowed_percentile(run.load, 0.99), "us");
  out.metric("plan_p999_us", percentile(latency, 0.999), "us");
  out.metric("plan_fail_ratio",
             run.load.attempted == 0
                 ? 1.0
                 : static_cast<double>(run.load.failed) /
                       static_cast<double>(run.load.attempted),
             "ratio");
  out.metric("const_err", run.const_error, "ratio");
  out.metric("peak_rss_mb", run.peak_rss_mib, "MiB");

  out.info = {
      {"setups", static_cast<double>(setups.size())},
      {"run_seconds", run.seconds},
      {"slides", static_cast<double>(run.slides)},
      {"publish_gaps", static_cast<double>(run.gaps_ms.size())},
      {"requests", static_cast<double>(run.load.attempted)},
      {"loadgen_late_p99_us", percentile(run.load.late_us, 0.99)},
      {"loadgen_backlog_max", static_cast<double>(run.load.backlog_max)},
      {"loadgen_backlog_growth", run.load.backlog_growth},
      {"plan_cache_hits", static_cast<double>(run.cache.hits)},
      {"plan_cache_misses", static_cast<double>(run.cache.misses)},
      {"plan_cache_invalidated", static_cast<double>(run.cache.invalidated)},
      {"events_at_checkpoint", static_cast<double>(run.events_at_checkpoint)},
      {"driver_cpu_s", run.driver_cpu_seconds},
  };
  return out;
}

/// Phase B: the replica, traced, with the request stream served
/// in-process through the plan cache, interleaved with an untraced twin.
struct ReplicaRun {
  /// Wall time the traced replica spent inside Replica::run.
  double seconds = 0.0;
  /// Traced over untraced wall time of each piece of steps.
  std::vector<double> trace_ratios;
  std::uint64_t digest = 0;
  std::uint64_t twin_digest = 0;
  RefreshCounts at_checkpoint;
  RefreshCounts at_end;
  RefreshSamples samples;
};

/// The replica's driver tracers, read as one.
struct DriverSpans {
  std::vector<std::unique_ptr<Tracer>> tracers;

  double self_seconds(Layer layer) const {
    double total = 0.0;
    for (const auto& t : tracers) total += t->stats(layer).self_seconds;
    return total;
  }
  std::uint64_t count(Layer layer) const {
    std::uint64_t total = 0;
    for (const auto& t : tracers) total += t->stats(layer).count;
    return total;
  }
  double percentile_us(Layer layer, double q) const {
    std::vector<double> all;
    for (const auto& t : tracers) {
      const std::vector<double>& us = t->stats(layer).self_us;
      all.insert(all.end(), us.begin(), us.end());
    }
    return percentile(std::move(all), q);
  }
  double root_seconds() const {
    double total = 0.0;
    for (const auto& t : tracers) total += t->root_seconds();
    return total;
  }
  void set_enabled(bool enabled) {
    for (const auto& t : tracers) t->set_enabled(enabled);
  }
};

ReplicaRun run_replica(const Workload& workload, std::uint64_t seed,
                       double seconds, const std::vector<Shape>& shapes,
                       DriverSpans& drivers, Tracer& client_tracer) {
  ReplicaRun run;
  online::ConstantFinderService host;  // no tenants: hosts the server only
  serving::ConstantServer server(host);
  std::vector<Tracer*> tracers;
  for (const auto& t : drivers.tracers) tracers.push_back(t.get());
  Replica replica(workload, seed, server.store(), tracers);
  drivers.set_enabled(false);
  replica.bootstrap();
  drivers.set_enabled(true);

  // The untraced twin runs the same tenants and seeds with its tracers
  // off, publishing into a server of its own. Both run the same steps
  // back to back, in alternating order, so they see the same work at
  // nearly the same time and a drift in the host's speed cancels out of
  // the ratio of their wall times.
  online::ConstantFinderService twin_host;
  serving::ConstantServer twin_server(twin_host);
  std::vector<std::unique_ptr<Tracer>> off;
  std::vector<Tracer*> off_ptrs;
  for (std::size_t d = 0; d < tracers.size(); ++d) {
    off.push_back(std::make_unique<Tracer>(Clock::now(), 0, 0));
    off.back()->set_enabled(false);
    off_ptrs.push_back(off.back().get());
  }
  Replica twin(workload, seed, twin_server.store(), off_ptrs);
  twin.bootstrap();

  // Every request is served by both servers' plan caches, the traced
  // replica's inside a span, so both replicas publish into a store that
  // is being read and a cache that holds plans to invalidate.
  std::vector<std::size_t> tenant_index;
  std::vector<std::size_t> twin_index;
  for (std::size_t t = 0; t < workload.tenants; ++t) {
    tenant_index.push_back(server.store().find(tenant_name(t)));
    twin_index.push_back(twin_server.store().find(tenant_name(t)));
  }
  serving::EpochDomain::Reader reader(server.epoch());
  serving::EpochDomain::Reader twin_reader(twin_server.epoch());
  OpenLoopClient client(
      shapes, kPlanRate, derive_seed(seed, kClientStream),
      [&](const Shape& shape) {
        const std::size_t twin_at = twin_index[shape.tenant];
        const serving::SnapshotStore::Ref twin_ref =
            twin_server.store().acquire(twin_at, twin_reader);
        if (!twin_ref || twin_server.plans().lookup_or_compute(
                             twin_at, *twin_ref, shape.request) == nullptr) {
          return false;
        }
        const std::size_t index = tenant_index[shape.tenant];
        const serving::SnapshotStore::Ref ref =
            server.store().acquire(index, reader);
        if (!ref) return false;
        const bool hit =
            server.plans().find(index, ref->version, shape.request) != nullptr;
        const Tracer::Scope span(client_tracer,
                                 hit ? Layer::PlanHit : Layer::PlanMiss);
        const serving::Plan* plan =
            server.plans().lookup_or_compute(index, *ref, shape.request);
        return plan != nullptr && !plan->json.empty();
      });

  // The two take turns a piece of a chunk at a time, which gives enough
  // pairs for the interval even on noisy_refresh (one step ~0.5 s).
  const std::size_t piece =
      std::max<std::size_t>(1, workload.chunk_steps / kTracePiecesPerChunk);
  const auto timed_piece = [&](Replica& r, std::size_t steps) {
    const Clock::time_point start = Clock::now();
    r.run(steps);
    return seconds_between(start, Clock::now());
  };
  std::vector<double>& ratios = run.trace_ratios;
  client.start();
  drive(workload, seconds, Clock::now(), [&] {
    for (std::size_t done = 0; done < workload.chunk_steps; done += piece) {
      const std::size_t steps = std::min(piece, workload.chunk_steps - done);
      const bool traced_first = ratios.size() % 2 == 0;
      const double untraced_first =
          traced_first ? 0.0 : timed_piece(twin, steps);
      const double traced_s = timed_piece(replica, steps);
      const double untraced_s =
          traced_first ? timed_piece(twin, steps) : untraced_first;
      run.seconds += traced_s;
      ratios.push_back(traced_s / untraced_s);
      if (replica.steps() == workload.checkpoint_steps) {
        run.digest = replica.digest();
        run.twin_digest = twin.digest();
        run.at_checkpoint = replica.counts();
      }
    }
    return replica.steps();
  });
  client.stop();
  run.at_end = replica.counts();
  run.samples = replica.samples();
  return run;
}

/// The median of a sample and a distribution-free 95% confidence interval
/// for it: the order statistics (n - 1 - 1.96 sqrt(n)) / 2 from either
/// end (sign test). Under six values no such interval exists, and it is
/// unbounded.
struct MedianInterval {
  double low = 0.0;
  double median = 0.0;
  double high = 0.0;
};

MedianInterval median_interval(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double k = std::floor((n - 1.0 - 1.96 * std::sqrt(n)) / 2.0);
  const double median = percentile(values, 0.5);
  if (k < 0.0) {
    const double inf = std::numeric_limits<double>::infinity();
    return {-inf, median, inf};
  }
  const auto at = static_cast<std::size_t>(k);
  return {values[at], median, values[values.size() - 1 - at]};
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

bool is_driver_layer(Layer layer) {
  return layer != Layer::PlanHit && layer != Layer::PlanMiss;
}

/// Ranked self time of every driver-side layer over the replica's
/// driver-seconds (drivers x wall).
void print_where_time_went(const std::string& workload,
                           const DriverSpans& drivers, double wall,
                           double slides, double service_self_ms_per_slide) {
  struct Row {
    std::string name;
    double seconds;
  };
  const double driver_seconds =
      wall * static_cast<double>(drivers.tracers.size());
  std::vector<Row> rows;
  for (std::size_t k = 0; k < kLayerCount; ++k) {
    const auto layer = static_cast<Layer>(k);
    if (!is_driver_layer(layer)) continue;
    rows.push_back({layer == Layer::Step ? "replica.step (loop self)"
                                         : layer_name(layer),
                    drivers.self_seconds(layer)});
  }
  rows.push_back({"outside steps (dispatch, join)",
                  driver_seconds - drivers.root_seconds()});
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.seconds > b.seconds; });

  std::cout << "\nwhere the time went: " << workload << " (traced replica, "
            << drivers.tracers.size() << " drivers x " << std::fixed
            << std::setprecision(2) << wall << " s, " << std::setprecision(0)
            << slides << " slides)\n";
  std::cout << "  " << std::left << std::setw(32) << "layer" << std::right
            << std::setw(12) << "self s" << std::setw(14) << "ms/slide"
            << std::setw(10) << "share" << '\n';
  for (const Row& row : rows) {
    std::cout << "  " << std::left << std::setw(32) << row.name << std::right
              << std::setprecision(4) << std::setw(12) << row.seconds
              << std::setw(14)
              << (slides > 0 ? row.seconds * 1e3 / slides : 0.0)
              << std::setprecision(1) << std::setw(9)
              << 100.0 * row.seconds / driver_seconds << "%\n";
  }
  std::cout << "  online.service (untraced, estimated): "
            << std::setprecision(4)
            << service_self_ms_per_slide
            << " ms/slide = service driver CPU per slide - traced layer "
               "time per slide\n"
            << std::defaultfloat;
}

Output traced(const Workload& workload, std::uint64_t seed, double seconds,
              const std::string& spans_path) {
  const std::vector<Shape> shapes = make_shapes(workload, seed);
  Output out;

  // Phase A: the real service, untraced.
  ServiceRun service;
  {
    Stack stack(workload, seed, shapes);
    service = run_service(workload, seed, seconds / 2.0, stack, shapes);
  }
  add_service_checks(out, service);

  // Phase B: the traced replica, on as many drivers as the service runs.
  const Clock::time_point epoch = Clock::now();
  DriverSpans drivers;
  const std::size_t driver_count = std::min(
      ThreadPool::global().thread_count() + 1, workload.tenants);
  for (std::size_t d = 0; d < driver_count; ++d) {
    drivers.tracers.push_back(std::make_unique<Tracer>(
        epoch, static_cast<std::uint32_t>(d + 1), kSpanRecordCap));
  }
  Tracer client_tracer(epoch, static_cast<std::uint32_t>(driver_count + 1),
                       kSpanRecordCap);
  const ReplicaRun replica = run_replica(workload, seed, seconds / 2.0, shapes,
                                         drivers, client_tracer);
  out.check("replica_matches_service",
            replica.digest == service.digest &&
                replica.twin_digest == service.digest);
  // The layer self times and the time outside steps add up to the traced
  // wall time by construction; what can go wrong is that tracing makes
  // that wall time longer than the loop takes untraced. A piece's time
  // swings by up to ~20% with host stalls, so the check fails only when
  // the whole confidence interval of the median ratio lies outside the
  // tolerance.
  const MedianInterval overhead = median_interval(replica.trace_ratios);
  out.check("trace_overhead_within_limit",
            overhead.low <= 1.0 + kTraceOverheadTolerance &&
                overhead.high >= 1.0 - kTraceOverheadTolerance);

  double layer_seconds = 0.0;
  for (std::size_t k = 0; k < kLayerCount; ++k) {
    const auto layer = static_cast<Layer>(k);
    if (is_driver_layer(layer) && layer != Layer::Step) {
      layer_seconds += drivers.self_seconds(layer);
    }
  }
  const double driver_seconds =
      replica.seconds * static_cast<double>(driver_count);
  const double remainder = driver_seconds - drivers.root_seconds();

  const auto slides = static_cast<double>(replica.at_end.slides);
  const auto per_slide = [&](double value) {
    return slides > 0 ? value / slides : 0.0;
  };
  const auto us = [&](Layer layer, double q) {
    return drivers.percentile_us(layer, q);
  };
  const auto client_us = [&](Layer layer, double q) {
    return percentile(client_tracer.stats(layer).self_us, q);
  };
  const RefreshCounts& c = replica.at_checkpoint;
  // The service's orchestration: its driver CPU per slide minus the
  // replica's traced layer time per slide (drivers are busy in both, so
  // their wall time is CPU time).
  const double layer_ms_per_slide = per_slide(layer_seconds) * 1e3;
  const double service_cpu_per_slide =
      service.slides == 0
          ? 0.0
          : service.driver_cpu_seconds / static_cast<double>(service.slides) *
                1e3;
  const double service_self_ms = service_cpu_per_slide - layer_ms_per_slide;
  const std::uint64_t plan_hits = client_tracer.stats(Layer::PlanHit).count;
  const std::uint64_t plan_misses = client_tracer.stats(Layer::PlanMiss).count;
  const double hit_p50 = client_us(Layer::PlanHit, 0.5);
  // The plan cache's hit ratio and invalidations come from phase A's
  // server: in phase B the traced store gets no publishes while the twin
  // runs, which doubles the time a cached plan stays current.
  const serving::PlanCache::Stats& cache = service.cache;

  out.metric("cloud.calls_per_slide",
             per_slide(static_cast<double>(drivers.count(Layer::Cloud))),
             "count");
  out.metric("cloud.ms_per_slide",
             per_slide(drivers.self_seconds(Layer::Cloud)) * 1e3, "ms");
  out.metric("ingest.ms_p50", us(Layer::Ingest, 0.50) / 1e3, "ms");
  out.metric("ingest.ms_p99", us(Layer::Ingest, 0.99) / 1e3, "ms");
  out.metric("ingest.failed_probes", static_cast<double>(c.failed_probes),
             "count");
  out.metric("ingest.stale_reused", static_cast<double>(c.stale_reused),
             "count");
  out.metric("refresh.ms_p50", us(Layer::Refresh, 0.50) / 1e3, "ms");
  out.metric("refresh.ms_p95", us(Layer::Refresh, 0.95) / 1e3, "ms");
  // Of the time inside steps: the drivers' idle time at the joins between
  // pieces belongs to the benchmark's interleaving, not to the loop.
  out.metric("refresh.share",
             drivers.self_seconds(Layer::Refresh) / drivers.root_seconds(),
             "ratio");
  out.metric("refresh.path.incremental", static_cast<double>(c.incremental),
             "count");
  out.metric("refresh.path.warm", static_cast<double>(c.warm), "count");
  out.metric("refresh.path.cold", static_cast<double>(c.cold), "count");
  out.metric("refresh.path.cold_fallback",
             static_cast<double>(c.cold_fallback), "count");
  out.metric("refresh.path.drift_fallback",
             static_cast<double>(c.drift_fallback), "count");
  out.metric("refresh.path.masked", static_cast<double>(c.masked), "count");
  out.metric("refresh.path.randomized", static_cast<double>(c.randomized),
             "count");
  out.metric("refresh.ms_mean.incremental",
             mean(replica.samples.incremental_ms), "ms");
  out.metric("refresh.ms_mean.warm", mean(replica.samples.warm_ms), "ms");
  out.metric("refresh.ms_mean.cold", mean(replica.samples.cold_ms), "ms");
  std::vector<double> full_ms = replica.samples.warm_ms;
  full_ms.insert(full_ms.end(), replica.samples.cold_ms.begin(),
                 replica.samples.cold_ms.end());
  out.metric("refresh.ms_mean.full", mean(full_ms), "ms");
  out.metric("refresh.warm_accept_ratio", ratio(c.warm, c.warm_attempted),
             "ratio");
  out.metric("refresh.incremental_accept_ratio",
             ratio(c.incremental, c.incremental_eligible), "ratio");
  out.metric("refresh.iterations_p50",
             percentile(replica.samples.iterations, 0.5), "count");
  out.metric("refresh.imputed_entries", static_cast<double>(c.imputed_entries),
             "count");
  out.metric("refresh.const_err", service.const_error, "ratio");
  out.metric("detect.us_p50", us(Layer::Detect, 0.50), "us");
  out.metric("detect.us_p99", us(Layer::Detect, 0.99), "us");
  out.metric("detect.verdicts", static_cast<double>(c.verdicts), "count");
  out.metric("publish.us_p50", us(Layer::Publish, 0.50), "us");
  out.metric("publish.us_p99", us(Layer::Publish, 0.99), "us");
  out.metric("publish.plans_invalidated",
             ratio(cache.invalidated, service.slides), "1/publish");
  out.metric("plan.hit_ratio",
             ratio(cache.hits, cache.hits + cache.misses + cache.uncached),
             "ratio");
  out.metric("plan.hit_us_p50", hit_p50, "us");
  out.metric("plan.miss_us_p50", client_us(Layer::PlanMiss, 0.50), "us");
  out.metric("plan.miss_us_p99", client_us(Layer::PlanMiss, 0.99), "us");
  out.metric("http.self_us_p50",
             windowed_percentile(service.load, 0.5) - hit_p50, "us");
  out.metric("http.requests",
             static_cast<double>(service.http.requests_served), "count");
  out.metric("http.bad_requests",
             static_cast<double>(service.http.bad_requests), "count");
  out.metric("service.self_ms_per_slide", service_self_ms, "ms");
  out.metric("service.events_retained",
             static_cast<double>(service.events_at_checkpoint), "count");
  out.metric("service.metric_count",
             static_cast<double>(service.metrics_at_checkpoint), "count");
  out.metric("loadgen.late_p99_us", percentile(service.load.late_us, 0.99),
             "us");
  out.metric("loadgen.backlog_max",
             static_cast<double>(service.load.backlog_max), "count");

  out.info = {
      {"replica_seconds", replica.seconds},
      {"replica_slides", slides},
      {"replica_steps_at_checkpoint",
       static_cast<double>(workload.checkpoint_steps)},
      {"replica_drivers", static_cast<double>(driver_count)},
      {"outside_steps_s", remainder},
      {"trace_pieces", static_cast<double>(replica.trace_ratios.size())},
      {"trace_overhead", overhead.median - 1.0},
      {"trace_overhead_ci_low", overhead.low - 1.0},
      {"trace_overhead_ci_high", overhead.high - 1.0},
      {"service_cpu_ms_per_slide", service_cpu_per_slide},
      {"traced_layer_ms_per_slide", layer_ms_per_slide},
      {"replica_plan_hits", static_cast<double>(plan_hits)},
      {"replica_plan_misses", static_cast<double>(plan_misses)},
  };

  print_where_time_went(workload.name, drivers, replica.seconds, slides,
                        service_self_ms);
  if (!spans_path.empty()) {
    std::vector<const Tracer*> all{&client_tracer};
    for (const auto& t : drivers.tracers) all.push_back(t.get());
    std::ofstream file(spans_path);
    write_trace_json(file, all);
  }
  return out;
}

void write_number(std::ostream& out, double value) {
  if (std::isfinite(value)) {
    out << value;
  } else {
    out << "null";
  }
}

void print_result(const std::string& workload, std::uint64_t seed,
                  double seconds, bool trace, const Output& out) {
  std::cout << '\n';
  for (const auto& [name, ok] : out.checks) {
    std::cout << "check " << std::left << std::setw(28) << name
              << (ok ? "ok" : "FAILED") << '\n';
  }
  for (const Metric& m : out.metrics) {
    std::cout << std::left << std::setw(36) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << ' '
              << m.unit << '\n';
  }
  std::cout << std::left << "digest " << std::hex << out.digest << std::dec
            << '\n';

  std::ostringstream json;
  json << std::setprecision(17);
  json << "{\"workload\":\"" << workload << "\",\"seed\":" << seed
       << ",\"seconds\":" << seconds << ",\"trace\":" << (trace ? 1 : 0)
       << ",\"correct\":" << (out.correct() ? "true" : "false")
       << ",\"attempted\":" << out.attempted << ",\"failed\":" << out.failed
       << ",\"digest\":\"" << std::hex << out.digest << std::dec
       << "\",\"checks\":{";
  for (std::size_t k = 0; k < out.checks.size(); ++k) {
    json << (k ? "," : "") << '"' << out.checks[k].first
         << "\":" << (out.checks[k].second ? "true" : "false");
  }
  json << "},\"metrics\":{";
  for (std::size_t k = 0; k < out.metrics.size(); ++k) {
    json << (k ? "," : "") << '"' << out.metrics[k].name << "\":{\"value\":";
    write_number(json, out.metrics[k].value);
    json << ",\"unit\":\"" << out.metrics[k].unit << "\"}";
  }
  json << "},\"info\":{";
  for (std::size_t k = 0; k < out.info.size(); ++k) {
    json << (k ? "," : "") << '"' << out.info[k].first << "\":";
    write_number(json, out.info[k].second);
  }
  json << "},\"host\":{\"build_type\":\"" << NETCONST_E2E_BUILD_TYPE
       << "\",\"compiler\":\"" << NETCONST_E2E_COMPILER
       << "\",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << ",\"pool_threads\":" << ThreadPool::global().thread_count()
       << ",\"simd\":\"" << linalg::simd::active_level_name() << "\"}}";
  std::cout << json.str() << std::endl;
}

int usage() {
  std::cerr << "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
               "[--trace] [--spans <path>]\n"
               "       bench_e2e --smoke\n";
  return 2;
}

int run_smoke() {
  bool ok = true;
  for (const Workload& full : workloads()) {
    Workload workload = full;
    workload.checkpoint_steps = workload.chunk_steps;
    for (const bool trace : {false, true}) {
      const Output out = trace ? traced(workload, 1, 1.0, "")
                               : untraced(workload, 1, 0.5, true);
      print_result(workload.name, 1, trace ? 1.0 : 0.5, trace, out);
      ok = ok && out.correct();
    }
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace netconst::e2e

int main(int argc, char** argv) {
  using namespace netconst::e2e;
#ifdef __GLIBC__
  // Pin glibc's mmap threshold at its initial 128 KiB. Left dynamic, it
  // rises when large blocks are freed, at moments that depend on thread
  // timing, and peak RSS on the refresh workloads jumped between ~26 and
  // ~31 MiB from run to run of one seed.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  std::string workload_name;
  std::string spans_path;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
  bool smoke = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--workload" && has_value) {
        workload_name = argv[++i];
      } else if (arg == "--seed" && has_value) {
        seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        seconds = std::stod(argv[++i]);
      } else if (arg == "--spans" && has_value) {
        spans_path = argv[++i];
      } else if (arg == "--trace") {
        trace = true;
      } else if (arg == "--smoke") {
        smoke = true;
      } else {
        return usage();
      }
    }
    if (smoke) return run_smoke();
    const Workload* workload = find_workload(workload_name);
    if (workload == nullptr || !(seconds > 0.0)) return usage();

    const Output out = trace ? traced(*workload, seed, seconds, spans_path)
                             : untraced(*workload, seed, seconds, false);
    print_result(workload->name, seed, seconds, trace, out);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << '\n';
    return 1;
  }
}
