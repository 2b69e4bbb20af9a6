#include "net/http_admin.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/model_health.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace upskill {
namespace net {

namespace {

Status HttpErrno(const char* what) {
  return Status::IoError(StringPrintf("%s: %s", what, std::strerror(errno)));
}

const char* StatusLine(int status) {
  switch (status) {
    case 200: return "200 OK";
    case 400: return "400 Bad Request";
    case 404: return "404 Not Found";
    case 405: return "405 Method Not Allowed";
    case 503: return "503 Service Unavailable";
    default: return "500 Internal Server Error";
  }
}

}  // namespace

Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("listen address must be host:port, got " +
                                   address);
  }
  const std::string host_part = address.substr(0, colon);
  const Result<long long> parsed = ParseInt(address.substr(colon + 1));
  if (!parsed.ok() || parsed.value() < 0 || parsed.value() > 65535) {
    return Status::InvalidArgument("bad listen port in " + address);
  }
  *host = host_part.empty() ? "0.0.0.0" : host_part;
  *port = static_cast<uint16_t>(parsed.value());
  return Status::OK();
}

struct HttpAdminServer::Connection {
  int fd = -1;
  std::string in;
  std::string out;
  size_t out_offset = 0;
  bool close_when_drained = false;
};

HttpAdminServer::HttpAdminServer(HttpAdminConfig config)
    : config_(std::move(config)) {}

HttpAdminServer::~HttpAdminServer() { Stop(); }

void HttpAdminServer::Handle(const std::string& path,
                             std::function<HttpResponse()> handler) {
  handlers_[path] = std::move(handler);
}

Status HttpAdminServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  if (!loop_.ok() || !wake_.ok()) {
    return Status::IoError("epoll/eventfd setup failed");
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad admin host " + config_.host);
  }
  addr.sin_port = htons(config_.port);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return HttpErrno("socket");
  const int one = 1;
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return HttpErrno("setsockopt(SO_REUSEADDR)");
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return HttpErrno("bind");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) !=
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return HttpErrno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return HttpErrno("listen");
  }

  Status added = loop_.Add(listen_fd_, EPOLLIN, &listen_fd_);
  if (added.ok()) added = loop_.Add(wake_.fd(), EPOLLIN, &wake_);
  if (!added.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return added;
  }

  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  worker_ = std::thread([this] { Run(); });
  return Status::OK();
}

void HttpAdminServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  wake_.Signal();
  if (worker_.joinable()) worker_.join();
  for (auto& entry : connections_) {
    loop_.Remove(entry.second->fd);
    ::close(entry.second->fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  started_ = false;
}

void HttpAdminServer::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int ready = loop_.Wait(events, kMaxEvents, 500);
    for (int i = 0; i < ready; ++i) {
      void* data = events[i].data.ptr;
      if (data == &wake_) {
        wake_.Drain();
        continue;
      }
      if (data == &listen_fd_) {
        AcceptReady();
        continue;
      }
      Connection* conn = static_cast<Connection*>(data);
      bool alive = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        alive = false;
      } else {
        if (alive && (events[i].events & EPOLLIN)) alive = HandleReadable(conn);
        if (alive && (events[i].events & EPOLLOUT)) alive = FlushOutput(conn);
      }
      if (!alive) CloseConnection(conn);
    }
  }
}

void HttpAdminServer::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // EMFILE and friends: admin traffic is best-effort; drop and move on.
      return;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    if (!loop_.Add(fd, EPOLLIN, conn.get()).ok()) {
      ::close(fd);
      return;
    }
    connections_[fd] = std::move(conn);
  }
}

bool HttpAdminServer::HandleReadable(Connection* conn) {
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(conn->fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn->in.append(buffer, static_cast<size_t>(n));
      if (conn->in.size() > config_.max_request_bytes) {
        conn->out = "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n"
                    "Connection: close\r\n\r\n";
        conn->out_offset = 0;
        conn->close_when_drained = true;
        return FlushOutput(conn);
      }
      continue;
    }
    if (n == 0) return false;  // peer closed
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  if (!conn->close_when_drained && !ProcessRequest(conn)) return false;
  return FlushOutput(conn);
}

bool HttpAdminServer::ProcessRequest(Connection* conn) {
  const size_t head_end = conn->in.find("\r\n\r\n");
  if (head_end == std::string::npos) return true;  // need more bytes

  const size_t line_end = conn->in.find("\r\n");
  const std::string request_line = conn->in.substr(0, line_end);
  conn->in.clear();  // Connection: close — one request per connection.

  HttpResponse response;
  bool head = false;
  const size_t method_end = request_line.find(' ');
  const size_t path_end = request_line.rfind(' ');
  if (method_end == std::string::npos || path_end == method_end) {
    response.status = 400;
    response.body = "bad request line\n";
  } else {
    const std::string method = request_line.substr(0, method_end);
    head = method == "HEAD";
    std::string path =
        request_line.substr(method_end + 1, path_end - method_end - 1);
    const size_t query = path.find('?');
    if (query != std::string::npos) path.resize(query);
    if (method != "GET" && method != "HEAD") {
      response.status = 405;
      response.body = "only GET is served here\n";
    } else {
      const auto it = handlers_.find(path);
      if (it == handlers_.end()) {
        response.status = 404;
        response.body = "unknown path " + path + "\n";
        for (const auto& entry : handlers_) {
          response.body += "  " + entry.first + "\n";
        }
      } else {
        response = it->second();
      }
    }
  }

  // HEAD advertises the length the GET body would have, without the body.
  conn->out = StringPrintf(
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      StatusLine(response.status), response.content_type.c_str(),
      response.body.size());
  if (!head) conn->out += response.body;
  conn->out_offset = 0;
  conn->close_when_drained = true;
  return true;
}

bool HttpAdminServer::FlushOutput(Connection* conn) {
  while (conn->out_offset < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_offset,
               conn->out.size() - conn->out_offset, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_offset += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      loop_.Modify(conn->fd, EPOLLIN | EPOLLOUT, conn);
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (conn->close_when_drained) return false;
  loop_.Modify(conn->fd, EPOLLIN, conn);
  return true;
}

void HttpAdminServer::CloseConnection(Connection* conn) {
  loop_.Remove(conn->fd);
  ::close(conn->fd);
  connections_.erase(conn->fd);
}

void InstallAdminEndpoints(HttpAdminServer* http, serve::Server* server,
                           std::function<Status()> health) {
  http->Handle("/metrics", [] {
    obs::ModelHealth::Global().Sample();
    HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::RenderPrometheus(obs::MetricsRegistry::Global());
    return response;
  });

  http->Handle("/healthz", [health = std::move(health)] {
    HttpResponse response;
    const Status status = health ? health() : Status::OK();
    if (status.ok()) {
      response.body = "ok\n";
    } else {
      response.status = 503;
      response.body = status.ToString() + "\n";
    }
    return response;
  });

  const auto start = std::chrono::steady_clock::now();
  http->Handle("/statusz", [server, start] {
    obs::ModelHealth::Global().Sample();
    const std::shared_ptr<const serve::ServingModel> model = server->model();
    const double uptime = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    HttpResponse response;
    std::string& body = response.body;
    body += "upskill serve status\n";
    body += StringPrintf("compiler: %s\n", __VERSION__);
    body += StringPrintf("uptime_seconds: %.1f\n", uptime);
    body += StringPrintf("snapshot_version: %d\n",
                         static_cast<int>(serve::kSnapshotVersion));
    body += StringPrintf("snapshot_age_seconds: %.1f\n",
                         obs::ModelHealth::Global().SnapshotAgeSeconds());
    body += StringPrintf("levels: %d\nitems: %d\n", model->num_levels(),
                         model->num_items());
    body += StringPrintf(
        "backend: %s\n",
        server->backend() != nullptr ? server->backend()->name() : "none");
    body += StringPrintf("quantized: %s\n",
                         server->quantized() ? "true" : "false");
    body += StringPrintf("sessions: %zu\n", server->num_sessions());
    body += StringPrintf("requests: %llu\n",
                         static_cast<unsigned long long>(
                             server->requests_served()));
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    body += StringPrintf("trace_dropped: %llu\n",
                         static_cast<unsigned long long>(recorder.dropped()));
    if (recorder.enabled()) {
      const obs::TraceStats stats = recorder.Stats();
      body += StringPrintf(
          "flight_recorder: capacity=%zu recorded=%llu ring=%zu "
          "errors_retained=%llu sheds_retained=%llu slowest=%zu "
          "sampled_out=%llu\n",
          stats.capacity, static_cast<unsigned long long>(stats.recorded),
          stats.ring_size,
          static_cast<unsigned long long>(stats.errors_retained),
          static_cast<unsigned long long>(stats.sheds_retained),
          stats.slowest_size,
          static_cast<unsigned long long>(stats.sampled_out));
    } else {
      body += "flight_recorder: disabled\n";
    }
    const std::string quantiles = server->LatencyQuantilesText();
    if (!quantiles.empty()) {
      body += "latency_quantiles_seconds:\n";
      body += quantiles;
    }
    return response;
  });

  http->Handle("/tracez", [] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = obs::RenderChromeTrace(obs::TraceRecorder::Global());
    return response;
  });
}

}  // namespace net
}  // namespace upskill
