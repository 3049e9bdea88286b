// ConstantServer — the serving front end assembled: RCU snapshot store
// + memoized plan cache + embedded HTTP query API, wrapped around a
// ConstantFinderService.
//
// Construction wires the store in as the service's snapshot sink (every
// accepted refresh publishes a new immutable version, whose plan table
// the cache fills; plans live and die with their snapshot) and the
// store's publish hook into the serving.snapshots_published /
// serving.plans_invalidated counters. start() brings the HTTP endpoint
// up; the service keeps refreshing concurrently — queries and publishes
// never block each other (see serving/snapshot_store.hpp).
//
// Routes:
//   GET /healthz            liveness ("ok")
//   GET /metrics            Prometheus text exposition (version 0.0.4)
//   GET /telemetry          JSON telemetry snapshot (metrics +
//                           flight-recorder status)
//   GET /tenants            tenant list with current snapshot versions
//   GET /snapshot?tenant=T  snapshot metadata (version, norms, ranks);
//                           &include=links adds the link parameters
//   GET /plan?tenant=T&kind=tree|mapping&nodes=0,1,2[&root=0][&bytes=N]
//                           the memoized planner — byte-identical to a
//                           direct src/mapping / src/collective
//                           invocation at the same snapshot version
//
// Every endpooint records a latency histogram
// (serving.http.<route>_seconds) and the plan/publish paths open
// serving.* tracing spans, all through the service's own registry — so
// /metrics observes the server that serves it.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "online/service.hpp"
#include "serving/epoch.hpp"
#include "serving/http.hpp"
#include "serving/plan_cache.hpp"
#include "serving/snapshot_store.hpp"

namespace netconst::serving {

struct ConstantServerOptions {
  HttpServer::Options http;
};

class ConstantServer {
 public:
  /// Registers the snapshot store as `service`'s sink. The service must
  /// outlive the server; the server detaches the sink on destruction.
  explicit ConstantServer(online::ConstantFinderService& service,
                          const ConstantServerOptions& options = {});
  ~ConstantServer();

  ConstantServer(const ConstantServer&) = delete;
  ConstantServer& operator=(const ConstantServer&) = delete;

  /// Start / stop the HTTP endpoint (the store serves in-process
  /// queries from construction on, with or without HTTP).
  void start() { http_.start(); }
  void stop() { http_.stop(); }
  std::uint16_t port() const { return http_.port(); }

  SnapshotStore& store() { return store_; }
  const SnapshotStore& store() const { return store_; }
  /// Kept because bench/e2e calls it.
  PlanCache& plans() { return plans_; }
  const PlanCache& plans() const { return plans_; }
  EpochDomain& epoch() { return epoch_; }
  HttpServer& http() { return http_; }

  /// In-process query path (what the HTTP /plan handler runs): pin the
  /// tenant's current snapshot, serve the plan from the cache, return
  /// the response body. Useful for tests and embedded callers.
  /// `reader` must belong to epoch(). Throws on unknown tenant.
  std::string plan_json(const std::string& tenant, PlanKind kind,
                        std::vector<std::size_t> nodes, std::size_t root,
                        std::uint64_t bytes,
                        EpochDomain::Reader& reader);

 private:
  HttpResponse handle_healthz(const HttpRequest& request);
  HttpResponse handle_metrics(const HttpRequest& request);
  HttpResponse handle_telemetry(const HttpRequest& request);
  HttpResponse handle_tenants(const HttpRequest& request);
  HttpResponse handle_snapshot(const HttpRequest& request);
  HttpResponse handle_plan(const HttpRequest& request);
  /// Mirror serving-layer stats (cache, epoch, http) into registry
  /// gauges so the exporters pick them up.
  void sync_serving_metrics();

  online::ConstantFinderService* service_;
  EpochDomain epoch_;
  SnapshotStore store_;
  PlanCache plans_;
  HttpServer http_;
  /// Epoch slot of the HTTP event-loop thread (handlers run there).
  std::unique_ptr<EpochDomain::Reader> http_reader_;

  online::Histogram& healthz_seconds_;
  online::Histogram& metrics_seconds_;
  online::Histogram& telemetry_seconds_;
  online::Histogram& tenants_seconds_;
  online::Histogram& snapshot_seconds_;
  online::Histogram& plan_seconds_;
  online::Counter& publishes_;
  online::Counter& invalidations_;
};

}  // namespace netconst::serving
