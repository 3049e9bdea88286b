#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <limits>

#include "support/rng.hpp"

namespace netconst::e2e {

namespace {

constexpr double kRequestTimeoutSeconds = 5.0;
constexpr double kDrainSeconds = 10.0;
constexpr auto kBacklogSamplePeriod = std::chrono::milliseconds(10);
/// With nothing outstanding, the client spins instead of sleeping once
/// the next request is due within this long, so its own wake-up latency
/// (tens of microseconds in a VM) does not make requests late.
constexpr auto kSpinWindow = std::chrono::microseconds(200);

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof(address)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int enable = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

enum class ReadState { Incomplete, Complete, Error };

/// Drain what the socket holds into `buffer` and try to cut one
/// response (head + Content-Length body) off its front.
ReadState read_response(int fd, std::string& buffer, int& status,
                        std::string& body) {
  char chunk[16384];
  for (;;) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (got > 0) {
      buffer.append(chunk, static_cast<std::size_t>(got));
      continue;
    }
    if (got == 0) return ReadState::Error;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return ReadState::Error;
  }
  const std::size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string::npos) return ReadState::Incomplete;
  if (buffer.compare(0, 9, "HTTP/1.1 ") != 0) return ReadState::Error;
  status = std::atoi(buffer.c_str() + 9);
  const std::size_t length_at = buffer.find("Content-Length: ");
  if (length_at == std::string::npos || length_at > head_end) {
    return ReadState::Error;
  }
  const std::size_t length =
      std::strtoull(buffer.c_str() + length_at + 16, nullptr, 10);
  const std::size_t total = head_end + 4 + length;
  if (buffer.size() < total) return ReadState::Incomplete;
  body.assign(buffer, head_end + 4, length);
  buffer.erase(0, total);
  return ReadState::Complete;
}

}  // namespace

int http_get(std::uint16_t port, const std::string& target,
             std::string& body) {
  const int fd = connect_loopback(port);
  if (fd < 0) return 0;
  int status = 0;
  std::string buffer;
  if (send_all(fd, "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n")) {
    for (;;) {
      pollfd poll_fd{fd, POLLIN, 0};
      if (::poll(&poll_fd, 1, 5000) <= 0) break;
      const ReadState state = read_response(fd, buffer, status, body);
      if (state != ReadState::Incomplete) {
        if (state == ReadState::Error) status = 0;
        break;
      }
    }
  }
  ::close(fd);
  return status;
}

/// Due times and shape choices of the open loop: request k is due at
/// start + k / rate and asks for a shape drawn from the seeded stream.
class OpenLoopClient::Schedule {
 public:
  Schedule(Clock::time_point start, double rate, std::size_t shapes,
           std::uint64_t seed)
      : start_(start), rate_(rate), shapes_(shapes), rng_(seed) {}

  Clock::time_point next_due() const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(admitted_) / rate_));
  }

  /// Move every request due by `now` into the backlog.
  void admit(Clock::time_point now, std::deque<Pending>& backlog) {
    const auto last = static_cast<std::int64_t>(shapes_) - 1;
    for (Clock::time_point due = next_due(); due <= now; due = next_due()) {
      backlog.push_back(
          {due, static_cast<std::size_t>(rng_.uniform_int(0, last))});
      ++admitted_;
    }
  }

 private:
  Clock::time_point start_;
  double rate_;
  std::size_t shapes_;
  Rng rng_;
  std::uint64_t admitted_ = 0;
};

OpenLoopClient::OpenLoopClient(const std::vector<Shape>& shapes, double rate,
                               std::uint64_t seed, std::uint16_t port,
                               std::size_t connections)
    : shapes_(shapes),
      rate_(rate),
      seed_(seed),
      port_(port),
      connections_(connections) {
  for (const Shape& shape : shapes_) {
    requests_.push_back("GET " + shape.target +
                        " HTTP/1.1\r\nHost: bench\r\n\r\n");
  }
}

OpenLoopClient::OpenLoopClient(const std::vector<Shape>& shapes, double rate,
                               std::uint64_t seed, Execute execute)
    : shapes_(shapes),
      rate_(rate),
      seed_(seed),
      execute_(std::move(execute)) {}

OpenLoopClient::~OpenLoopClient() {
  if (thread_.joinable()) stop();
}

void OpenLoopClient::start() {
  start_ = Clock::now();
  thread_ = std::thread([this] { run(); });
}

LoadResult OpenLoopClient::stop() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();

  // Backlog growth over the final third: least-squares slope of the
  // sampled backlog, times the third's length.
  if (!backlog_samples_.empty()) {
    const double end = backlog_samples_.back().first;
    double n = 0, st = 0, sb = 0, stt = 0, stb = 0;
    for (const auto& [t, backlog] : backlog_samples_) {
      if (t < end * 2.0 / 3.0) continue;
      const auto b = static_cast<double>(backlog);
      n += 1;
      st += t;
      sb += b;
      stt += t * t;
      stb += t * b;
    }
    const double denominator = n * stt - st * st;
    if (n >= 2 && denominator > 0) {
      result_.backlog_growth = (n * stb - st * sb) / denominator * (end / 3.0);
    }
  }
  return result_;
}

void OpenLoopClient::record(const Pending& pending, Clock::time_point sent,
                            Clock::time_point done, bool ok) {
  ++result_.attempted;
  result_.late_us.push_back(seconds_between(pending.scheduled, sent) * 1e6);
  result_.scheduled_s.push_back(seconds_between(start_, pending.scheduled));
  if (ok) {
    result_.latency_us.push_back(seconds_between(pending.scheduled, done) *
                                 1e6);
  } else {
    ++result_.failed;
    result_.latency_us.push_back(std::numeric_limits<double>::infinity());
  }
}

void OpenLoopClient::run() {
  result_.tid = current_tid();
  pin_thread(result_.tid, kClientCpu);
  // Sleeps end within ~1 us of their deadline instead of the default
  // 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  Schedule schedule(start_, rate_, shapes_.size(), seed_);
  try {
    if (execute_) {
      inprocess_loop(schedule);
    } else {
      http_loop(schedule);
    }
  } catch (const std::exception&) {
    // Count the request in flight as failed; the run is then incorrect.
    ++result_.attempted;
    ++result_.failed;
  }
}

void OpenLoopClient::inprocess_loop(Schedule& schedule) {
  std::deque<Pending> backlog;
  auto next_sample = start_;
  for (;;) {
    const Clock::time_point now = Clock::now();
    const bool stopping = stop_.load(std::memory_order_acquire);
    if (!stopping) schedule.admit(now, backlog);
    if (backlog.size() > result_.backlog_max) {
      result_.backlog_max = backlog.size();
    }
    if (now >= next_sample) {
      backlog_samples_.emplace_back(seconds_between(start_, now),
                                    backlog.size());
      next_sample += kBacklogSamplePeriod;
    }
    if (!backlog.empty()) {
      const Pending pending = backlog.front();
      backlog.pop_front();
      bool ok = false;
      try {
        ok = execute_(shapes_[pending.shape]);
      } catch (const std::exception&) {
        ok = false;
      }
      record(pending, now, Clock::now(), ok);
    } else if (stopping) {
      return;
    } else if (schedule.next_due() - now > kSpinWindow) {
      std::this_thread::sleep_until(std::min(
          schedule.next_due() - kSpinWindow, now + kBacklogSamplePeriod));
    }
  }
}

void OpenLoopClient::http_loop(Schedule& schedule) {
  struct Connection {
    int fd = -1;
    bool busy = false;
    Pending pending{};
    Clock::time_point sent;
    std::string input;
    std::string body;
  };
  std::vector<Connection> connections(connections_);
  for (Connection& c : connections) c.fd = connect_loopback(port_);
  const auto fail = [&](Connection& c, Clock::time_point now) {
    record(c.pending, c.sent, now, false);
    if (c.fd >= 0) ::close(c.fd);
    c = Connection{};
  };

  std::deque<Pending> backlog;
  std::vector<pollfd> poll_fds;
  std::vector<Connection*> polled;
  auto next_sample = start_;
  Clock::time_point stop_at{};
  bool stopping = false;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (!stopping && stop_.load(std::memory_order_acquire)) {
      stopping = true;
      stop_at = now;
    }
    if (!stopping) schedule.admit(now, backlog);
    if (backlog.size() > result_.backlog_max) {
      result_.backlog_max = backlog.size();
    }
    if (now >= next_sample) {
      backlog_samples_.emplace_back(seconds_between(start_, now),
                                    backlog.size());
      next_sample += kBacklogSamplePeriod;
    }

    bool busy = false;
    for (Connection& c : connections) {
      if (!c.busy && !backlog.empty()) {
        c.pending = backlog.front();
        backlog.pop_front();
        c.sent = Clock::now();
        c.busy = true;
        if (c.fd < 0) c.fd = connect_loopback(port_);
        if (c.fd < 0 || !send_all(c.fd, requests_[c.pending.shape])) {
          fail(c, c.sent);
          continue;
        }
      }
      if (c.busy && seconds_between(c.sent, now) > kRequestTimeoutSeconds) {
        fail(c, now);
      }
      busy = busy || c.busy;
    }
    if (stopping && backlog.empty() && !busy) break;
    if (stopping && seconds_between(stop_at, now) > kDrainSeconds) {
      for (Connection& c : connections) {
        if (c.busy) fail(c, now);
      }
      for (const Pending& pending : backlog) record(pending, now, now, false);
      break;
    }

    // The client shares its CPU with the server's event loop (kClientCpu
    // == kHttpCpu). While a response is outstanding it blocks, so the
    // server runs at once on the same CPU, until a response arrives or
    // the next request falls due. With nothing outstanding it spins once
    // the next request is due within kSpinWindow and sleeps before that.
    poll_fds.clear();
    polled.clear();
    for (Connection& c : connections) {
      if (!c.busy) continue;
      poll_fds.push_back({c.fd, POLLIN, 0});
      polled.push_back(&c);
    }
    Clock::time_point wake = now + kBacklogSamplePeriod;
    if (!stopping) {
      wake = std::min(wake, busy ? schedule.next_due()
                                 : schedule.next_due() - kSpinWindow);
    }
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    if (::ppoll(poll_fds.data(), poll_fds.size(), &timeout, nullptr) <= 0) {
      continue;
    }
    for (std::size_t k = 0; k < poll_fds.size(); ++k) {
      if (poll_fds[k].revents == 0) continue;
      Connection& c = *polled[k];
      int status = 0;
      const ReadState state = read_response(c.fd, c.input, status, c.body);
      if (state == ReadState::Incomplete) continue;
      const Clock::time_point done = Clock::now();
      if (state == ReadState::Error) {
        fail(c, done);
        continue;
      }
      record(c.pending, c.sent, done,
             status == 200 && !c.body.empty() && c.body.front() == '{');
      c.busy = false;
    }
  }
  for (Connection& c : connections) {
    if (c.fd >= 0) ::close(c.fd);
  }
}

}  // namespace netconst::e2e
