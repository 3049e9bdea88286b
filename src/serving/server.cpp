#include "serving/server.hpp"

#include <sstream>

#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace netconst::serving {

namespace {

constexpr const char* kJsonContentType = "application/json";

/// Observe a latency histogram on scope exit (success and error paths).
class LatencyScope {
 public:
  explicit LatencyScope(online::Histogram& histogram)
      : histogram_(&histogram) {}
  ~LatencyScope() { histogram_->observe(clock_.seconds()); }

 private:
  online::Histogram* histogram_;
  Stopwatch clock_;
};

void write_double(std::ostream& out, double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  out << os.str();
}

HttpResponse bad_request(const std::string& message) {
  return {400, "text/plain; charset=utf-8", message + "\n"};
}

}  // namespace

ConstantServer::ConstantServer(online::ConstantFinderService& service,
                               const ConstantServerOptions& options)
    : service_(&service),
      store_(epoch_),
      plans_(store_),
      http_(options.http),
      healthz_seconds_(
          service.metrics().histogram("serving.http.healthz_seconds")),
      metrics_seconds_(
          service.metrics().histogram("serving.http.metrics_seconds")),
      telemetry_seconds_(
          service.metrics().histogram("serving.http.telemetry_seconds")),
      tenants_seconds_(
          service.metrics().histogram("serving.http.tenants_seconds")),
      snapshot_seconds_(
          service.metrics().histogram("serving.http.snapshot_seconds")),
      plan_seconds_(
          service.metrics().histogram("serving.http.plan_seconds")),
      publishes_(service.metrics().counter("serving.snapshots_published")),
      invalidations_(
          service.metrics().counter("serving.plans_invalidated")) {
  store_.set_publish_hook(
      [this](std::size_t, std::uint64_t, std::size_t superseded_plans) {
        publishes_.increment();
        if (superseded_plans > 0) {
          invalidations_.increment(static_cast<double>(superseded_plans));
        }
      });
  service.set_snapshot_sink(&store_);
  http_reader_ = std::make_unique<EpochDomain::Reader>(epoch_);

  http_.route("/healthz",
              [this](const HttpRequest& r) { return handle_healthz(r); });
  http_.route("/metrics",
              [this](const HttpRequest& r) { return handle_metrics(r); });
  http_.route("/telemetry", [this](const HttpRequest& r) {
    return handle_telemetry(r);
  });
  http_.route("/tenants",
              [this](const HttpRequest& r) { return handle_tenants(r); });
  http_.route("/snapshot", [this](const HttpRequest& r) {
    return handle_snapshot(r);
  });
  http_.route("/plan",
              [this](const HttpRequest& r) { return handle_plan(r); });
}

ConstantServer::~ConstantServer() {
  http_.stop();
  // Detach before the store/cache members are torn down. The detach is
  // an atomic swap that blocks until every publish already in flight
  // has returned, so service drivers running concurrently can never
  // touch the store (or its publish hook) mid-destruction.
  if (service_->snapshot_sink() == &store_) {
    service_->set_snapshot_sink(nullptr);
  }
}

void ConstantServer::sync_serving_metrics() {
  const PlanCache::Stats cache = plans_.stats();
  online::MetricsRegistry& metrics = service_->metrics();
  metrics.gauge("serving.plan_cache.hits")
      .set(static_cast<double>(cache.hits));
  metrics.gauge("serving.plan_cache.misses")
      .set(static_cast<double>(cache.misses));
  std::size_t entries = 0;  // plans of the tenants' current snapshots
  for (std::size_t k = 0; k < store_.tenant_count(); ++k) {
    const SnapshotStore::Ref ref = store_.acquire(k, *http_reader_);
    if (ref) entries += ref->plan_count();
  }
  metrics.gauge("serving.plan_cache.entries")
      .set(static_cast<double>(entries));
  metrics.gauge("serving.epoch.pending")
      .set(static_cast<double>(epoch_.pending()));
  metrics.gauge("serving.epoch.reclaimed")
      .set(static_cast<double>(epoch_.reclaimed_total()));
  const HttpServer::Stats http = http_.stats();
  metrics.gauge("serving.http.requests")
      .set(static_cast<double>(http.requests_served));
  metrics.gauge("serving.http.bad_requests")
      .set(static_cast<double>(http.bad_requests));
}

HttpResponse ConstantServer::handle_healthz(const HttpRequest&) {
  LatencyScope latency(healthz_seconds_);
  return {200, "text/plain; charset=utf-8", "ok\n"};
}

HttpResponse ConstantServer::handle_metrics(const HttpRequest&) {
  obs::Span span("serving.http.metrics");
  LatencyScope latency(metrics_seconds_);
  sync_serving_metrics();
  std::ostringstream out;
  service_->write_prometheus(out);
  return {200, obs::kPrometheusContentType, out.str()};
}

HttpResponse ConstantServer::handle_telemetry(const HttpRequest&) {
  obs::Span span("serving.http.telemetry");
  LatencyScope latency(telemetry_seconds_);
  sync_serving_metrics();
  std::ostringstream out;
  service_->write_json_snapshot(out);
  return {200, kJsonContentType, out.str()};
}

HttpResponse ConstantServer::handle_tenants(const HttpRequest&) {
  LatencyScope latency(tenants_seconds_);
  std::ostringstream out;
  out << "{\"tenants\":[";
  const std::size_t count = store_.tenant_count();
  for (std::size_t k = 0; k < count; ++k) {
    if (k > 0) out << ',';
    out << "{\"name\":\"" << obs::json_escape(store_.tenant_name(k))
        << "\",\"version\":" << store_.version(k) << '}';
  }
  out << "]}";
  return {200, kJsonContentType, out.str()};
}

HttpResponse ConstantServer::handle_snapshot(const HttpRequest& request) {
  obs::Span span("serving.http.snapshot");
  LatencyScope latency(snapshot_seconds_);
  static const std::string kEmpty;
  const std::string& tenant = request.query_value("tenant", kEmpty);
  if (tenant.empty()) return bad_request("missing ?tenant=");
  const std::size_t index = store_.find(tenant);
  if (index == SnapshotStore::npos) {
    return {404, "text/plain; charset=utf-8", "unknown tenant\n"};
  }
  const SnapshotStore::Ref ref = store_.acquire(index, *http_reader_);
  if (!ref) {
    return {503, "text/plain; charset=utf-8",
            "tenant has not published yet\n"};
  }

  const ConstantSnapshot& snapshot = *ref;
  const core::ConstantComponent& component = snapshot.component;
  std::ostringstream out;
  out << "{\"tenant\":\"" << obs::json_escape(snapshot.tenant)
      << "\",\"version\":" << snapshot.version
      << ",\"refresh\":" << snapshot.refresh << ",\"published_at\":";
  write_double(out, snapshot.published_at);
  out << ",\"cluster_size\":" << component.constant.size()
      << ",\"error_norm\":";
  write_double(out, component.error_norm);
  out << ",\"latency_error_norm\":";
  write_double(out, component.latency_error_norm);
  out << ",\"bandwidth_rank\":" << component.bandwidth_rank
      << ",\"latency_rank\":" << component.latency_rank;
  if (request.query_value("include", kEmpty) == "links") {
    const std::size_t n = component.constant.size();
    out << ",\"links\":[";
    bool first = true;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (!first) out << ',';
        first = false;
        const netmodel::LinkParams link = component.constant.link(i, j);
        out << "{\"i\":" << i << ",\"j\":" << j << ",\"alpha\":";
        write_double(out, link.alpha);
        out << ",\"beta\":";
        write_double(out, link.beta);
        out << '}';
      }
    }
    out << ']';
  }
  out << '}';
  return {200, kJsonContentType, out.str()};
}

std::string ConstantServer::plan_json(const std::string& tenant,
                                      PlanKind kind,
                                      std::vector<std::size_t> nodes,
                                      std::size_t root, std::uint64_t bytes,
                                      EpochDomain::Reader& reader) {
  const std::size_t index = store_.find(tenant);
  NETCONST_CHECK(index != SnapshotStore::npos, "unknown tenant");
  const PlanRequest request =
      canonical_plan_request(kind, std::move(nodes), root, bytes);
  const SnapshotStore::Ref ref = store_.acquire(index, reader);
  NETCONST_CHECK(static_cast<bool>(ref), "tenant has not published yet");
  obs::Span span("serving.plan.lookup");
  const Plan* plan = plans_.lookup_or_compute(index, *ref, request);
  span.set_value(static_cast<double>(plan->version));
  return plan->json;
}

HttpResponse ConstantServer::handle_plan(const HttpRequest& request) {
  obs::Span span("serving.http.plan");
  LatencyScope latency(plan_seconds_);
  static const std::string kEmpty;
  static const std::string kTree = "tree";
  static const std::string kDefaultBytes = "8388608";

  const std::string& tenant = request.query_value("tenant", kEmpty);
  if (tenant.empty()) return bad_request("missing ?tenant=");
  const std::size_t index = store_.find(tenant);
  if (index == SnapshotStore::npos) {
    return {404, "text/plain; charset=utf-8", "unknown tenant\n"};
  }

  const std::string& kind_name = request.query_value("kind", kTree);
  PlanKind kind;
  if (kind_name == "tree" || kind_name == "broadcast_tree") {
    kind = PlanKind::BroadcastTree;
  } else if (kind_name == "mapping" || kind_name == "topology_mapping") {
    kind = PlanKind::TopologyMapping;
  } else {
    return bad_request("kind must be tree or mapping");
  }

  const std::string& node_list = request.query_value("nodes", kEmpty);
  if (node_list.empty()) return bad_request("missing ?nodes=0,1,2");
  std::vector<std::size_t> nodes;
  std::size_t cursor = 0;
  while (cursor <= node_list.size()) {
    std::size_t comma = node_list.find(',', cursor);
    if (comma == std::string::npos) comma = node_list.size();
    const std::string token = node_list.substr(cursor, comma - cursor);
    cursor = comma + 1;
    if (token.empty()) continue;
    try {
      nodes.push_back(std::stoul(token));
    } catch (const std::exception&) {
      return bad_request("nodes must be a comma-separated id list");
    }
  }

  std::size_t root = 0;
  std::uint64_t bytes = 0;
  try {
    root = std::stoul(request.query_value(
        "root", nodes.empty() ? std::string("0")
                              : std::to_string(nodes.front())));
    bytes = std::stoull(request.query_value("bytes", kDefaultBytes));
  } catch (const std::exception&) {
    return bad_request("root and bytes must be integers");
  }

  try {
    PlanRequest canonical =
        canonical_plan_request(kind, std::move(nodes), root, bytes);
    const SnapshotStore::Ref ref = store_.acquire(index, *http_reader_);
    if (!ref) {
      return {503, "text/plain; charset=utf-8",
              "tenant has not published yet\n"};
    }
    if (canonical.nodes.back() >= ref->component.constant.size()) {
      return bad_request("node id exceeds the tenant's cluster size");
    }
    const Plan* plan = plans_.lookup_or_compute(index, *ref, canonical);
    span.set_value(static_cast<double>(plan->version));
    return {200, kJsonContentType, plan->json};
  } catch (const ContractViolation& error) {
    return bad_request(error.what());
  }
}

}  // namespace netconst::serving
