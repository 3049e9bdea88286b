#include "serving/http.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "support/error.hpp"

namespace netconst::serving {

const std::string& HttpRequest::query_value(
    const std::string& name, const std::string& fallback) const {
  for (const auto& [key, value] : query) {
    if (key == name) return value;
  }
  return fallback;
}

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string to_lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(), [](char c) {
    return static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
  });
  return text;
}

/// Percent-decode; '+' becomes a space (query-string convention).
std::string url_decode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t k = 0; k < text.size(); ++k) {
    const char c = text[k];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && k + 2 < text.size() &&
               std::isxdigit(static_cast<unsigned char>(text[k + 1])) &&
               std::isxdigit(static_cast<unsigned char>(text[k + 2]))) {
      const auto nibble = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        return h - 'A' + 10;
      };
      out.push_back(static_cast<char>(nibble(text[k + 1]) * 16 +
                                      nibble(text[k + 2])));
      k += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

struct HttpServer::Connection {
  int fd = -1;
  std::string input;   // bytes received, request head accumulating
  std::string output;  // bytes pending write
  bool close_after_write = false;
};

HttpServer::HttpServer(const Options& options) : options_(options) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::route(const std::string& path, HttpHandler handler) {
  NETCONST_CHECK(!running(), "routes must be registered before start()");
  NETCONST_CHECK(!path.empty() && path.front() == '/',
                 "route path must start with '/'");
  routes_[path] = std::move(handler);
}

const char* HttpServer::status_phrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 413:
      return "Content Too Large";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
  }
  return "Unknown";
}

void HttpServer::start() {
  NETCONST_CHECK(!running(), "server already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw Error("http: socket() failed");

  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(),
                  &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: invalid bind address " + options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: bind/listen failed on " + options_.bind_address +
                ":" + std::to_string(options_.port));
  }
  socklen_t address_len = sizeof(address);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&address),
                &address_len);
  port_ = ntohs(address.sin_port);
  set_nonblocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("http: pipe() failed");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  set_nonblocking(wake_read_fd_);

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { event_loop(); });
}

void HttpServer::stop() {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  const char wake = 'x';
  [[maybe_unused]] const auto written =
      ::write(wake_write_fd_, &wake, 1);
  if (thread_.joinable()) thread_.join();
  for (Connection* connection : connections_) {
    ::close(connection->fd);
    delete connection;
  }
  connections_.clear();
  ::close(listen_fd_);
  ::close(wake_read_fd_);
  ::close(wake_write_fd_);
  listen_fd_ = wake_read_fd_ = wake_write_fd_ = -1;
  running_.store(false, std::memory_order_release);
}

void HttpServer::accept_connections() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: poll again later
    if (connections_.size() >= options_.max_connections) {
      refused_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    set_nonblocking(fd);
    const int enable = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto* connection = new Connection;
    connection->fd = fd;
    connections_.push_back(connection);
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

HttpResponse HttpServer::dispatch(const HttpRequest& request) {
  const auto it = routes_.find(request.path);
  if (it == routes_.end()) {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    return {404, "text/plain; charset=utf-8", "not found\n"};
  }
  try {
    return it->second(request);
  } catch (const std::exception& error) {
    return {500, "text/plain; charset=utf-8",
            std::string("internal error: ") + error.what() + "\n"};
  }
}

bool HttpServer::service_input(Connection& connection) {
  // Process every complete request head in the buffer (pipelining-safe,
  // though clients here send one at a time).
  for (;;) {
    const std::size_t head_end = connection.input.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (connection.input.size() > options_.max_request_bytes) {
        bad_.fetch_add(1, std::memory_order_relaxed);
        connection.output +=
            "HTTP/1.1 413 Content Too Large\r\nContent-Length: 0\r\n"
            "Connection: close\r\n\r\n";
        connection.close_after_write = true;
        // Drop the oversized head: the connection only drains its
        // output from here on (the event loop stops reading once
        // close_after_write is set), so the bytes are dead weight.
        connection.input.clear();
      }
      return true;
    }

    // ---- Parse the request line.
    const std::string head = connection.input.substr(0, head_end);
    connection.input.erase(0, head_end + 4);
    const std::size_t line_end = head.find("\r\n");
    const std::string request_line =
        line_end == std::string::npos ? head : head.substr(0, line_end);
    const std::size_t method_end = request_line.find(' ');
    const std::size_t target_end =
        method_end == std::string::npos
            ? std::string::npos
            : request_line.find(' ', method_end + 1);
    if (method_end == std::string::npos ||
        target_end == std::string::npos ||
        request_line.compare(target_end + 1, 5, "HTTP/") != 0) {
      bad_.fetch_add(1, std::memory_order_relaxed);
      connection.output +=
          "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
          "Connection: close\r\n\r\n";
      connection.close_after_write = true;
      return true;
    }

    HttpRequest request;
    request.method = request_line.substr(0, method_end);
    const std::string target =
        request_line.substr(method_end + 1, target_end - method_end - 1);
    const std::size_t question = target.find('?');
    request.path = url_decode(target.substr(0, question));
    if (question != std::string::npos) {
      // key=value&key=value...
      std::size_t cursor = question + 1;
      while (cursor <= target.size()) {
        std::size_t amp = target.find('&', cursor);
        if (amp == std::string::npos) amp = target.size();
        const std::string pair = target.substr(cursor, amp - cursor);
        if (!pair.empty()) {
          const std::size_t eq = pair.find('=');
          request.query.emplace_back(
              url_decode(pair.substr(0, eq)),
              eq == std::string::npos ? std::string()
                                      : url_decode(pair.substr(eq + 1)));
        }
        cursor = amp + 1;
      }
    }

    // ---- Headers (lower-cased names, trimmed values).
    std::size_t cursor = line_end == std::string::npos ? head.size()
                                                       : line_end + 2;
    bool keep_alive = true;  // HTTP/1.1 default
    while (cursor < head.size()) {
      std::size_t eol = head.find("\r\n", cursor);
      if (eol == std::string::npos) eol = head.size();
      const std::string line = head.substr(cursor, eol - cursor);
      cursor = eol + 2;
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string value = line.substr(colon + 1);
      const std::size_t first = value.find_first_not_of(" \t");
      value.erase(0, first == std::string::npos ? value.size() : first);
      request.headers.emplace_back(to_lower(line.substr(0, colon)),
                                   std::move(value));
    }
    for (const auto& [name, value] : request.headers) {
      if (name == "connection" && to_lower(value) == "close") {
        keep_alive = false;
      }
    }

    // ---- Dispatch and serialize.
    HttpResponse response;
    const bool head_only = request.method == "HEAD";
    if (request.method != "GET" && !head_only) {
      bad_.fetch_add(1, std::memory_order_relaxed);
      response = {405, "text/plain; charset=utf-8",
                  "only GET and HEAD are supported\n"};
      keep_alive = false;
    } else {
      response = dispatch(request);
    }
    served_.fetch_add(1, std::memory_order_relaxed);

    connection.output += "HTTP/1.1 " + std::to_string(response.status) +
                         ' ' + status_phrase(response.status) + "\r\n";
    connection.output +=
        "Content-Type: " + response.content_type + "\r\n";
    connection.output +=
        "Content-Length: " + std::to_string(response.body.size()) +
        "\r\n";
    connection.output += keep_alive ? "Connection: keep-alive\r\n\r\n"
                                    : "Connection: close\r\n\r\n";
    if (!head_only) connection.output += response.body;
    if (!keep_alive) {
      connection.close_after_write = true;
      return true;
    }
  }
}

void HttpServer::event_loop() {
  std::vector<pollfd> poll_fds;
  while (!stopping_.load(std::memory_order_acquire)) {
    poll_fds.clear();
    poll_fds.push_back({listen_fd_, POLLIN, 0});
    poll_fds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Connection* connection : connections_) {
      short events = POLLIN;
      if (!connection->output.empty()) events |= POLLOUT;
      poll_fds.push_back({connection->fd, events, 0});
    }

    if (::poll(poll_fds.data(), poll_fds.size(), 250) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (poll_fds[1].revents != 0) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    if (poll_fds[0].revents != 0) accept_connections();

    // poll_fds only covers connections that existed when poll() was
    // called; accept_connections() may have appended new ones since, so
    // bound the walk by the polled entries, not connections_.size().
    // New connections are picked up by the next poll cycle.
    std::size_t index = 2;
    for (std::size_t k = 0;
         index < poll_fds.size() && k < connections_.size();
         ++index, ++k) {
      Connection& connection = *connections_[k];
      const short revents = poll_fds[index].revents;
      bool alive = (revents & (POLLERR | POLLNVAL)) == 0;

      // A connection marked close_after_write is drain-only: reading
      // more input could queue further responses (e.g. a second 413 for
      // the same oversized head) that the peer must never see.
      if (alive && !connection.close_after_write &&
          (revents & (POLLIN | POLLHUP)) != 0) {
        char buffer[4096];
        for (;;) {
          const ssize_t received =
              ::recv(connection.fd, buffer, sizeof(buffer), 0);
          if (received > 0) {
            connection.input.append(buffer,
                                    static_cast<std::size_t>(received));
            if (connection.input.size() >
                options_.max_request_bytes + sizeof(buffer)) {
              break;  // service_input answers 413 below
            }
          } else if (received == 0) {
            alive = false;  // peer closed
            break;
          } else {
            if (errno != EAGAIN && errno != EWOULDBLOCK) alive = false;
            break;
          }
        }
        if (!connection.input.empty() && !service_input(connection)) {
          alive = false;
        }
      }

      if (alive && !connection.output.empty()) {
        const ssize_t sent =
            ::send(connection.fd, connection.output.data(),
                   connection.output.size(), MSG_NOSIGNAL);
        if (sent > 0) {
          connection.output.erase(0, static_cast<std::size_t>(sent));
        } else if (sent < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          alive = false;
        }
        if (connection.output.empty() && connection.close_after_write) {
          alive = false;
        }
      }

      if (!alive) {
        ::close(connection.fd);
        delete connections_[k];
        connections_.erase(connections_.begin() +
                           static_cast<std::ptrdiff_t>(k));
        --k;
      }
    }
  }
}

HttpServer::Stats HttpServer::stats() const {
  Stats stats;
  stats.connections_accepted = accepted_.load(std::memory_order_relaxed);
  stats.connections_refused = refused_.load(std::memory_order_relaxed);
  stats.requests_served = served_.load(std::memory_order_relaxed);
  stats.bad_requests = bad_.load(std::memory_order_relaxed);
  stats.not_found = not_found_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace netconst::serving
