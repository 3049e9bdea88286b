// Open-loop /plan load generator.
//
// Requests fall due on a fixed schedule (rate r: request k is due at
// start + k/r) whether or not earlier ones have completed, as
// independent users would send them; due requests wait in a backlog
// until a connection is free. Every request is timed from its SCHEDULED
// send time, so a stall is charged to every request queued behind it,
// and how late each one was actually sent is reported alongside.
//
// Two transports share the schedule: keep-alive HTTP/1.1 GETs over a
// few loopback connections (the untraced runs), or a callback that
// serves the request in-process on the client thread (the traced pass,
// which wraps the plan-cache call in spans).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "workload.hpp"

namespace netconst::e2e {

struct LoadResult {
  /// Requests that fell due; every one is sent and awaited.
  std::uint64_t attempted = 0;
  /// Non-200 responses, connection errors and timeouts.
  std::uint64_t failed = 0;
  /// Scheduled send -> response complete, microseconds; a failed
  /// request counts as +infinity (it misses any latency limit).
  std::vector<double> latency_us;
  /// Scheduled send -> actual send, microseconds.
  std::vector<double> late_us;
  /// Scheduled send time, seconds since the client started; parallel to
  /// latency_us.
  std::vector<double> scheduled_s;
  std::size_t backlog_max = 0;
  /// Growth of the backlog over the final third of the run, in
  /// requests (least-squares slope times the third's length).
  double backlog_growth = 0.0;
  /// Kernel thread id of the client thread.
  long tid = 0;
};

class OpenLoopClient {
 public:
  using Execute = std::function<bool(const Shape&)>;

  /// HTTP transport: keep-alive GETs over `connections` connections to
  /// 127.0.0.1:`port`.
  OpenLoopClient(const std::vector<Shape>& shapes, double rate,
                 std::uint64_t seed, std::uint16_t port,
                 std::size_t connections);
  /// In-process transport: `execute` serves each request on the client
  /// thread and returns whether it succeeded.
  OpenLoopClient(const std::vector<Shape>& shapes, double rate,
                 std::uint64_t seed, Execute execute);
  ~OpenLoopClient();

  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  void start();
  /// Stop scheduling, wait for every request already due, join.
  LoadResult stop();

 private:
  struct Pending {
    Clock::time_point scheduled;
    std::size_t shape;
  };
  class Schedule;

  void run();
  void http_loop(Schedule& schedule);
  void inprocess_loop(Schedule& schedule);
  void record(const Pending& pending, Clock::time_point sent,
              Clock::time_point done, bool ok);

  const std::vector<Shape>& shapes_;
  double rate_;
  std::uint64_t seed_;
  std::uint16_t port_ = 0;
  std::size_t connections_ = 0;
  Execute execute_;
  std::vector<std::string> requests_;  // pre-built HTTP request bytes

  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  LoadResult result_;
  std::vector<std::pair<double, std::size_t>> backlog_samples_;
  std::thread thread_;  // last: uses every member above
};

/// One blocking GET on a fresh connection; returns the HTTP status and
/// fills `body`. Status 0 on a connection error.
int http_get(std::uint16_t port, const std::string& target, std::string& body);

}  // namespace netconst::e2e
