// Embedded HTTP/1.1 endpoint: a small, dependency-free (std + POSIX)
// poll(2) event loop on one background thread.
//
// Scope is deliberately narrow — the serving front end needs GET/HEAD
// with query strings, keep-alive, and exact Content-Type control; it
// does not need TLS, chunked bodies, or route templates. Handlers run
// on the server thread; they must be thread-safe against the
// application's other threads (the serving handlers only touch
// epoch-protected snapshots and thread-safe registries).
//
// Robustness rules: request heads are capped at max_request_bytes
// (oversized or malformed requests get a 4xx and the connection is
// closed), idle keep-alive connections are bounded by max_connections
// (accepts beyond it are refused), and partial writes are buffered and
// drained via POLLOUT. stop() (or destruction) wakes the loop through
// a self-pipe and joins the thread.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace netconst::serving {

struct HttpRequest {
  std::string method;  // upper-case: "GET", "HEAD"
  std::string path;    // percent-decoded, no query string
  /// Query parameters in order of appearance, percent-decoded.
  std::vector<std::pair<std::string, std::string>> query;
  /// Header fields, names lower-cased.
  std::vector<std::pair<std::string, std::string>> headers;

  /// First value of a query parameter, or `fallback`.
  const std::string& query_value(const std::string& name,
                                 const std::string& fallback) const;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  /// Loopback by default: the embedded endpoint is an operator /
  /// sidecar surface, not an internet listener.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral (read the outcome from port() after start()).
  std::uint16_t port = 0;
  std::size_t max_connections = 32;
  std::size_t max_request_bytes = 16 * 1024;
};

class HttpServer {
 public:
  using Options = HttpServerOptions;

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_refused = 0;
    std::uint64_t requests_served = 0;
    std::uint64_t bad_requests = 0;
    std::uint64_t not_found = 0;
  };

  explicit HttpServer(const Options& options = {});
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Register an exact-match route (before start()). GET and HEAD hit
  /// the same handler; HEAD responses drop the body automatically.
  void route(const std::string& path, HttpHandler handler);

  /// Bind, listen, and run the event loop on a background thread.
  /// Throws netconst::Error when the socket cannot be set up.
  void start();
  /// Idempotent and safe to call from multiple threads (one caller
  /// performs the join/cleanup, the rest wait); also called by the
  /// destructor.
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  Stats stats() const;

  /// Reason phrase for the few status codes the server emits.
  static const char* status_phrase(int status);

 private:
  struct Connection;

  void event_loop();
  void accept_connections();
  /// Returns false when the connection must be closed.
  bool service_input(Connection& connection);
  HttpResponse dispatch(const HttpRequest& request);

  Options options_;
  std::map<std::string, HttpHandler> routes_;
  /// Serializes stop() callers: without it, two threads passing the
  /// running() check would both join the thread and close the fds.
  std::mutex stop_mutex_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<Connection*> connections_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> bad_{0};
  std::atomic<std::uint64_t> not_found_{0};
};

}  // namespace netconst::serving
