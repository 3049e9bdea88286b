// HttpServer + ConstantServer end-to-end over loopback: exact
// Content-Type control (Prometheus version 0.0.4), query parsing,
// error statuses, and /plan responses byte-identical to the in-process
// cache path.
#include "serving/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "cloud/synthetic.hpp"
#include "online/service.hpp"
#include "serving/server.hpp"

namespace netconst::serving {
namespace {

struct ClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased names
  std::string body;
};

/// Minimal blocking HTTP/1.1 client: one request, parse one response
/// (keep-alive aware via Content-Length).
ClientResponse http_request(std::uint16_t port, const std::string& method,
                            const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);

  const std::string request = method + " " + target +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Connection: close\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));

  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);

  ClientResponse response;
  const std::size_t head_end = raw.find("\r\n\r\n");
  EXPECT_NE(head_end, std::string::npos) << raw;
  if (head_end == std::string::npos) return response;
  response.body = raw.substr(head_end + 4);

  const std::string head = raw.substr(0, head_end);
  std::size_t line_end = head.find("\r\n");
  const std::string status_line = head.substr(0, line_end);
  EXPECT_EQ(status_line.rfind("HTTP/1.1 ", 0), 0u) << status_line;
  response.status = std::stoi(status_line.substr(9, 3));
  std::size_t cursor = line_end == std::string::npos ? head.size()
                                                     : line_end + 2;
  while (cursor < head.size()) {
    line_end = head.find("\r\n", cursor);
    if (line_end == std::string::npos) line_end = head.size();
    const std::string line = head.substr(cursor, line_end - cursor);
    cursor = line_end + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    std::size_t value_begin = colon + 1;
    while (value_begin < line.size() && line[value_begin] == ' ') {
      ++value_begin;
    }
    response.headers[name] = line.substr(value_begin);
  }
  return response;
}

TEST(HttpServer, RoutesQueriesAndErrors) {
  HttpServer server;
  server.route("/echo", [](const HttpRequest& request) {
    HttpResponse response;
    response.content_type = "text/plain";
    response.body = request.method + " " + request.path + " a=" +
                    request.query_value("a", "<none>") + " b=" +
                    request.query_value("b", "<none>");
    return response;
  });
  server.start();
  ASSERT_NE(server.port(), 0);

  ClientResponse ok = http_request(server.port(), "GET",
                                   "/echo?a=x%20y&b=2&c=3");
  EXPECT_EQ(ok.status, 200);
  EXPECT_EQ(ok.headers["content-type"], "text/plain");
  EXPECT_EQ(ok.body, "GET /echo a=x y b=2");
  EXPECT_EQ(ok.headers["content-length"],
            std::to_string(ok.body.size()));

  // HEAD: same headers, no body.
  ClientResponse head = http_request(server.port(), "HEAD", "/echo");
  EXPECT_EQ(head.status, 200);
  EXPECT_TRUE(head.body.empty());
  EXPECT_NE(head.headers["content-length"], "0");

  ClientResponse missing = http_request(server.port(), "GET", "/nope");
  EXPECT_EQ(missing.status, 404);

  ClientResponse wrong_method =
      http_request(server.port(), "POST", "/echo");
  EXPECT_EQ(wrong_method.status, 405);

  const HttpServer::Stats stats = server.stats();
  EXPECT_EQ(stats.requests_served, 4u);  // 404/405 responses count too
  EXPECT_EQ(stats.not_found, 1u);
  EXPECT_GE(stats.bad_requests, 1u);
  server.stop();
}

TEST(HttpServer, MalformedRequestGets400) {
  HttpServer server;
  server.route("/x", [](const HttpRequest&) { return HttpResponse{}; });
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  const char garbage[] = "this is not http\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, 0), 0);
  char buffer[512];
  std::string raw;
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  EXPECT_EQ(raw.rfind("HTTP/1.1 400", 0), 0u) << raw;
}

// Regression: the event loop's connection walk must be bounded by the
// pollfd set built before accept_connections() ran — new connections
// accepted mid-cycle have no pollfd entry yet, and walking
// connections_.size() entries read past the end of poll_fds (ASan
// heap-buffer-overflow). Concurrent clients connecting while others
// are mid-request open that window on most cycles.
TEST(HttpServer, AcceptsDuringActiveTrafficSafely) {
  HttpServer server;
  server.route("/ping", [](const HttpRequest&) {
    return HttpResponse{200, "text/plain", "pong"};
  });
  server.start();

  constexpr std::size_t kClients = 4;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const ClientResponse response =
            http_request(server.port(), "GET", "/ping");
        if (response.status != 200 || response.body != "pong") {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(server.stats().requests_served,
            static_cast<std::uint64_t>(kClients * kRequestsPerClient));
  server.stop();
}

// Regression: stop() must be safe against concurrent callers — the old
// code let two threads pass the running() check and both join the event
// thread and close the same fds.
TEST(HttpServer, ConcurrentStopCallsAreSafe) {
  HttpServer server;
  server.route("/x", [](const HttpRequest&) { return HttpResponse{}; });
  server.start();
  ASSERT_TRUE(server.running());
  std::thread first([&] { server.stop(); });
  std::thread second([&] { server.stop(); });
  first.join();
  second.join();
  EXPECT_FALSE(server.running());
  server.stop();  // still idempotent afterwards
}

// Regression: an oversized request head must produce exactly one 413.
// The old code re-entered the size check on every later POLLIN while
// the response queue was still draining, appending a fresh 413 each
// time. Provoke that window with backpressure — a keep-alive response
// far larger than the client's receive buffer keeps the output queue
// non-empty — then feed oversized garbage in several chunks.
TEST(HttpServer, OversizedHeadGetsAtMostOne413) {
  HttpServer::Options options;
  options.max_request_bytes = 1024;
  HttpServer server(options);
  server.route("/big", [](const HttpRequest&) {
    HttpResponse response;
    response.body.assign(512 * 1024, 'x');
    return response;
  });
  server.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;  // keep the server's output queue backed up
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(server.port());
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);

  const std::string big_request =
      "GET /big HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_EQ(::send(fd, big_request.data(), big_request.size(), 0),
            static_cast<ssize_t>(big_request.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // Never-terminated oversized head, delivered across several poll
  // cycles while the /big response is still queued.
  const std::string chunk(2048, 'a');
  for (int k = 0; k < 3; ++k) {
    // The server may already have reset the connection; sends after
    // that are allowed to fail.
    (void)::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  std::string raw;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);

  std::size_t responses_413 = 0;
  for (std::size_t at = raw.find("HTTP/1.1 413");
       at != std::string::npos; at = raw.find("HTTP/1.1 413", at + 1)) {
    ++responses_413;
  }
  // The /big response comes first; the oversized head earns one 413 at
  // most (the tail can be cut short by the connection reset, never
  // duplicated).
  EXPECT_EQ(raw.rfind("HTTP/1.1 200", 0), 0u);
  EXPECT_LE(responses_413, 1u);
  server.stop();
}

/// Send `raw` on a fresh loopback connection and return every byte the
/// server answers before it closes. The client half-closes once the
/// answer starts or a short grace period passes, so a keep-alive answer
/// or an unfinished head ends in a close instead of a hang. A `split`
/// inside `raw` sends it in two writes a millisecond apart, so the
/// server reads the head in two parts.
std::string send_raw(std::uint16_t port, const std::string& raw,
                     std::size_t split = std::string::npos) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  timeval timeout{5, 0};  // a server that neither answers nor closes
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  const int no_delay = 1;  // each write leaves as its own segment
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &no_delay, sizeof(no_delay));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                      sizeof(address)),
            0);
  split = std::min(split, raw.size());
  const auto send_part = [&](std::size_t from, std::size_t to) {
    if (from == to) return;
    EXPECT_EQ(::send(fd, raw.data() + from, to - from, MSG_NOSIGNAL),
              static_cast<ssize_t>(to - from));
  };
  send_part(0, split);
  if (split < raw.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    send_part(split, raw.size());
  }
  pollfd readable{fd, POLLIN, 0};
  ::poll(&readable, 1, 30);
  ::shutdown(fd, SHUT_WR);
  std::string answer;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got < 0 && errno == EAGAIN) {
      ADD_FAILURE() << "no answer and no close for:\n" << raw;
      break;
    }
    if (got <= 0) break;
    answer.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return answer;
}

/// A ConstantServer over one tenant, "edge", on a 6-node synthetic
/// cloud, bootstrapped and serving.
struct EdgeServer {
  EdgeServer() {
    cloud::SyntheticCloudConfig cloud_config;
    cloud_config.cluster_size = 6;
    cloud_config.datacenter_racks = 3;
    cloud_config.seed = 5;
    cloud_ = std::make_unique<cloud::SyntheticCloud>(cloud_config);

    online::TenantConfig tenant;
    tenant.name = "edge";
    tenant.provider = cloud_.get();
    tenant.window_capacity = 4;
    tenant.snapshot_interval = 600.0;
    tenant.operation_gap = 300.0;
    tenant.scheduler.base_interval = 1500.0;
    tenant.seed = 21;
    service_.add_tenant(tenant);

    server_ = std::make_unique<ConstantServer>(service_);
    service_.run(8);  // bootstrap + refreshes publish into the store
    server_->start();
  }

  std::unique_ptr<cloud::SyntheticCloud> cloud_;
  online::ConstantFinderService service_;
  std::unique_ptr<ConstantServer> server_;
};

class ServingEndToEnd : public ::testing::Test, protected EdgeServer {};

/// Every response in `answer` (a stream can hold two heads' answers) has
/// a status a malformed head may earn: 200, 400, 404, 405 or 413.
void expect_allowed_statuses(const std::string& answer,
                             const std::string& sent) {
  EXPECT_EQ(answer.rfind("HTTP/1.1 ", 0), 0u) << answer;
  for (std::size_t at = answer.find("HTTP/1.1 "); at != std::string::npos;
       at = answer.find("HTTP/1.1 ", at + 1)) {
    const std::string status = answer.substr(at + 9, 3);
    EXPECT_TRUE(status == "200" || status == "400" || status == "404" ||
                status == "405" || status == "413")
        << status << " for:\n" << sent;
  }
}

/// Send 4 batches of 40 heads, `make_head(rng, batch, k)`, each on its
/// own connection: each gets allowed statuses or a close, and the
/// server answers /healthz after every batch. Returns the number of
/// heads that got an answer.
template <typename MakeHead>
std::size_t fuzz_heads(std::uint16_t port, Rng& rng, MakeHead&& make_head) {
  std::size_t answered = 0, closed = 0;
  for (int batch = 0; batch < 4; ++batch) {
    for (int k = 0; k < 40; ++k) {
      const std::string head = make_head(rng, batch, k);
      const std::string answer = send_raw(port, head);
      if (answer.empty()) {
        ++closed;
        continue;
      }
      ++answered;
      expect_allowed_statuses(answer, head);
    }
    const ClientResponse health = http_request(port, "GET", "/healthz");
    EXPECT_EQ(health.status, 200);
    EXPECT_EQ(health.body, "ok\n");
  }
  EXPECT_EQ(answered + closed, 160u);
  return answered;
}

TEST_F(ServingEndToEnd, HealthAndMetricsContentType) {
  ClientResponse health = http_request(server_->port(), "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  // The Prometheus endpoint must declare the exposition format version.
  ClientResponse metrics = http_request(server_->port(), "GET", "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_EQ(metrics.headers["content-type"],
            "text/plain; version=0.0.4");
  EXPECT_NE(metrics.body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.body.find("netconst_serving_snapshots_published"),
            std::string::npos);

  ClientResponse telemetry =
      http_request(server_->port(), "GET", "/telemetry");
  EXPECT_EQ(telemetry.status, 200);
  EXPECT_EQ(telemetry.headers["content-type"], "application/json");
  EXPECT_EQ(telemetry.body.front(), '{');
}

TEST_F(ServingEndToEnd, TenantsAndSnapshot) {
  ClientResponse tenants = http_request(server_->port(), "GET", "/tenants");
  EXPECT_EQ(tenants.status, 200);
  EXPECT_NE(tenants.body.find("\"name\":\"edge\""), std::string::npos);

  ClientResponse snapshot =
      http_request(server_->port(), "GET", "/snapshot?tenant=edge");
  EXPECT_EQ(snapshot.status, 200);
  EXPECT_NE(snapshot.body.find("\"version\":"), std::string::npos);
  EXPECT_NE(snapshot.body.find("\"cluster_size\":6"), std::string::npos);
  EXPECT_EQ(snapshot.body.find("\"links\""), std::string::npos);

  ClientResponse links = http_request(
      server_->port(), "GET", "/snapshot?tenant=edge&include=links");
  EXPECT_EQ(links.status, 200);
  EXPECT_NE(links.body.find("\"links\":["), std::string::npos);
  EXPECT_NE(links.body.find("\"alpha\":"), std::string::npos);

  EXPECT_EQ(http_request(server_->port(), "GET", "/snapshot").status, 400);
  EXPECT_EQ(
      http_request(server_->port(), "GET", "/snapshot?tenant=ghost").status,
      404);
}

// Byte-mutated /plan request heads: every mutant gets only
// 200/400/404/405/413 responses, or a close, and the server keeps
// serving /healthz after each batch.
TEST(HttpServer, FuzzedRequestHeadsGetAnAnswerOrAClose) {
  EdgeServer edge;
  const std::string heads[] = {
      "GET /plan?tenant=edge&kind=mapping&nodes=0,1,2,3&bytes=1048576 "
      "HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
      "GET /plan?tenant=edge&kind=tree&nodes=4,0,2&root=2&bytes=65536 "
      "HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n",
  };
  Rng rng(8);
  EXPECT_GT(fuzz_heads(edge.server_->port(), rng,
                       [&](Rng& r, int batch, int k) {
                         return testing::mutate_bytes(r,
                                                      heads[(batch + k) % 2]);
                       }),
            0u);
  edge.server_->stop();
}

/// A token from `tokens`: the first, well-formed one three times in four,
/// so heads often reach the handlers; otherwise any of them.
template <std::size_t N>
std::string pick(Rng& rng, const char* const (&tokens)[N]) {
  return tokens[rng.bernoulli(0.75) ? 0
                                    : testing::random_size(rng, 0, N - 1)];
}

/// A request head built from scratch out of a small token alphabet: a
/// request line (method, path, 0-4 query pairs, version) and 0-3 header
/// lines, each part possibly empty or malformed, with CRLF, bare LF, CR
/// or no line ends.
std::string random_head(Rng& rng) {
  static const char* const kMethods[] = {"GET", "HEAD", "POST", "get", "",
                                         "GET GET"};
  static const char* const kPaths[] = {
      "/plan",  "/healthz", "/snapshot", "/tenants", "/metrics",
      "/telemetry", "/",    "",          "*",        "/plan/",
      "/pl%61n", "%",       "/%zz",      "/plan?"};
  static const char* const kKeys[] = {"tenant", "kind",    "nodes", "root",
                                      "bytes",  "include", "",      "n%00"};
  static const char* const kValues[] = {
      "edge",    "ghost",   "mapping", "tree", "0,1,2,3", "5,4",
      "0",       "0,0",     "99",      "-1",   ",",       "1048576",
      "1e6",     "18446744073709551615", "18446744073709551616",
      "links",   "",        "%",       "%2C",  "e%64ge"};
  static const char* const kVersions[] = {"HTTP/1.1", "HTTP/1.0", "HTTP/",
                                          "http/1.1", ""};
  static const char* const kSpaces[] = {" ", "  ", "\t", ""};
  static const char* const kNames[] = {"Host", "Connection", "connection",
                                       "Content-Length", "Transfer-Encoding",
                                       "", "X"};
  static const char* const kHeaderValues[] = {
      "localhost", "close", "keep-alive", "CLOSE", "0", "chunked", "",
      "\xff"};
  static const char* const kColons[] = {": ", ":", " :", ""};
  static const char* const kEnds[] = {"\r\n", "\n", "\r", ""};

  std::string head = pick(rng, kMethods) + pick(rng, kSpaces) +
                     pick(rng, kPaths);
  const std::size_t pairs = testing::random_size(rng, 0, 4);
  for (std::size_t k = 0; k < pairs; ++k) {
    head += k == 0 ? '?' : '&';
    head += pick(rng, kKeys);
    if (rng.bernoulli(0.8)) head += '=' + pick(rng, kValues);
  }
  head += pick(rng, kSpaces) + pick(rng, kVersions) + pick(rng, kEnds);
  const std::size_t lines = testing::random_size(rng, 0, 3);
  for (std::size_t k = 0; k < lines; ++k) {
    head += pick(rng, kNames) + pick(rng, kColons) +
            pick(rng, kHeaderValues) + pick(rng, kEnds);
  }
  return head + pick(rng, kEnds);
}

// Heads built from scratch (not mutants of a valid head) get the same
// contract: allowed statuses or a close, and /healthz after each batch.
TEST(HttpServer, RandomRequestHeadsGetAnAnswerOrAClose) {
  EdgeServer edge;
  Rng rng(33);
  EXPECT_GT(fuzz_heads(edge.server_->port(), rng,
                       [](Rng& r, int, int) { return random_head(r); }),
            0u);
  edge.server_->stop();
}

// A valid mapping head split across two writes at every byte boundary
// gets the answer the unsplit head gets, byte for byte.
TEST(HttpServer, SplitPlanHeadGetsTheSameAnswerAtEveryBoundary) {
  EdgeServer edge;
  const std::uint16_t port = edge.server_->port();
  const std::string head =
      "GET /plan?tenant=edge&kind=mapping&nodes=0,1,2,3&bytes=1048576 "
      "HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  const std::string whole = send_raw(port, head);
  ASSERT_EQ(whole.rfind("HTTP/1.1 200 ", 0), 0u) << whole;
  for (std::size_t split = 1; split < head.size(); ++split) {
    const std::string answer = send_raw(port, head, split);
    expect_allowed_statuses(answer, head.substr(0, split) + "|" +
                                        head.substr(split));
    EXPECT_EQ(answer, whole) << "split at " << split;
  }
  const ClientResponse health = http_request(port, "GET", "/healthz");
  EXPECT_EQ(health.status, 200);
  edge.server_->stop();
}

TEST_F(ServingEndToEnd, PlanQueriesMatchInProcessPath) {
  ClientResponse tree = http_request(
      server_->port(), "GET",
      "/plan?tenant=edge&kind=tree&nodes=4,0,2,1&root=2&bytes=1048576");
  ASSERT_EQ(tree.status, 200);
  EXPECT_EQ(tree.headers["content-type"], "application/json");

  // Byte-identical to the in-process cache path at the same version.
  EpochDomain::Reader reader(server_->epoch());
  const std::string direct = server_->plan_json(
      "edge", PlanKind::BroadcastTree, {0, 1, 2, 4}, 2, 1048576, reader);
  EXPECT_EQ(tree.body, direct);

  // Permuted node spelling: the same bytes again, served from cache.
  ClientResponse permuted = http_request(
      server_->port(), "GET",
      "/plan?tenant=edge&kind=tree&nodes=1,2,0,4&root=2&bytes=1048576");
  ASSERT_EQ(permuted.status, 200);
  EXPECT_EQ(permuted.body, tree.body);
  EXPECT_GE(server_->plans().stats().hits, 2u);

  ClientResponse mapping = http_request(
      server_->port(), "GET",
      "/plan?tenant=edge&kind=mapping&nodes=0,1,2,3");
  ASSERT_EQ(mapping.status, 200);
  EXPECT_NE(mapping.body.find("\"assignment\":["), std::string::npos);

  // Error paths.
  EXPECT_EQ(http_request(server_->port(), "GET", "/plan").status, 400);
  EXPECT_EQ(http_request(server_->port(), "GET",
                         "/plan?tenant=ghost&nodes=0,1")
                .status,
            404);
  EXPECT_EQ(http_request(server_->port(), "GET",
                         "/plan?tenant=edge&kind=warp&nodes=0,1")
                .status,
            400);
  EXPECT_EQ(http_request(server_->port(), "GET",
                         "/plan?tenant=edge&nodes=0")
                .status,
            400);
  EXPECT_EQ(http_request(server_->port(), "GET",
                         "/plan?tenant=edge&nodes=0,99")
                .status,
            400);
  EXPECT_EQ(http_request(server_->port(), "GET",
                         "/plan?tenant=edge&nodes=0,1&root=9")
                .status,
            400);
}

// Regression: destroying the server while service drivers are still
// publishing must not race — the sink detach is an atomic swap that
// waits out in-flight publishes, so no driver can touch the store (or
// its plan-cache publish hook) mid-destruction. TSan pins this.
TEST_F(ServingEndToEnd, DestroyServerWhileServiceRefreshes) {
  std::thread driver([&] { service_.run(64); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server_.reset();
  driver.join();
  EXPECT_EQ(service_.snapshot_sink(), nullptr);
}

TEST_F(ServingEndToEnd, ServesWhileRefreshing) {
  // Queries keep succeeding while the service keeps refreshing and
  // publishing new versions; the served version converges to the
  // store's latest.
  const std::uint64_t version_before =
      server_->store().version(server_->store().find("edge"));
  service_.run(8);
  const std::uint64_t version_after =
      server_->store().version(server_->store().find("edge"));
  EXPECT_GE(version_after, version_before);

  ClientResponse plan = http_request(
      server_->port(), "GET", "/plan?tenant=edge&nodes=0,1,2&root=0");
  ASSERT_EQ(plan.status, 200);
  const std::string version_field =
      "\"version\":" + std::to_string(version_after);
  EXPECT_NE(plan.body.find(version_field), std::string::npos) << plan.body;
}

}  // namespace
}  // namespace netconst::serving
