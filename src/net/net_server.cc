#include "net/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "net/epoll_loop.h"

namespace upskill {
namespace net {

namespace {

using Kind = serve::ServeRequest::Kind;

Status Errno(const char* what) {
  return Status::IoError(StringPrintf("%s: %s", what, std::strerror(errno)));
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Only the data-plane kinds are sheddable; admin commands must get
/// through an overloaded server (see NetServerConfig::deadline_seconds).
bool IsSheddable(Kind kind) {
  switch (kind) {
    case Kind::kObserve:
    case Kind::kLevel:
    case Kind::kRecommend:
    case Kind::kDifficulty:
      return true;
    default:
      return false;
  }
}

/// Mean-cost refresh cadence for the shedding estimate (reducing the
/// histogram stripes on every request would defeat the striping).
constexpr uint64_t kShedRefreshPeriod = 4096;

/// Pending-reply ceiling per connection: a client that pipelines requests
/// but never reads the replies is closed once its output passes this.
constexpr size_t kMaxOutputBufferBytes = 8u << 20;

}  // namespace

struct NetServer::Connection {
  Connection(int fd, serve::Server* server) : fd(fd), text(server) {}

  int fd = -1;
  enum class Mode : uint8_t { kUnknown, kText, kBinary };
  Mode mode = Mode::kUnknown;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// Close once `out` drains (quit, EOF, or fatal protocol error).
  bool want_close = false;
  bool writable_armed = false;
  /// The text protocol's state (an open `batch <N>`), in text mode.
  serve::LineProtocol text;
};

struct NetServer::Worker {
  int index = 0;
  int listen_fd = -1;
  /// Reserved fd slot (open on /dev/null) released under EMFILE/ENFILE
  /// so the pending connection can be accepted and closed instead of
  /// level-triggered epoll re-reporting it in a busy loop.
  int spare_fd = -1;
  EpollLoop loop;
  WakeupFd wake;
  std::thread thread;
  std::unordered_set<Connection*> connections;
  /// Start of the current event-loop drain; the shedding budget is
  /// measured against it.
  std::chrono::steady_clock::time_point drain_start;
  double mean_cost[serve::kNumServeRequestKinds] = {};
  uint64_t executed_since_refresh = kShedRefreshPeriod;  // refresh on first
};

NetServer::NetServer(serve::Server* server, exec::Backend* swap_backend,
                     NetServerConfig config)
    : server_(server),
      swap_backend_(swap_backend),
      config_(std::move(config)),
      accepted_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_connections_accepted_total")),
      rejected_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_connections_rejected_total")),
      active_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "upskill_net_active_connections")),
      shed_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_shed_total")),
      bytes_in_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_bytes_read_total")),
      bytes_out_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_bytes_written_total")),
      decode_errors_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_frame_decode_errors_total")),
      requests_binary_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_requests_total", "proto=\"binary\"")),
      requests_text_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_requests_total", "proto=\"text\"")) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  const int num_workers = config_.num_workers < 1 ? 1 : config_.num_workers;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host " + config_.host);
  }

  // One SO_REUSEPORT listener per worker, all on the same address: the
  // kernel hashes incoming connections across them, so accepts (like
  // request processing) never funnel through a single thread. The first
  // bind resolves an ephemeral port request; the rest join it.
  std::vector<int> listeners;
  Status error = Status::OK();
  for (int i = 0; i < num_workers && error.ok(); ++i) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      error = Errno("socket");
      break;
    }
    listeners.push_back(fd);
    const int one = 1;
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0 ||
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
      error = Errno("setsockopt(SO_REUSEPORT)");
      break;
    }
    addr.sin_port = htons(i == 0 ? config_.port : port_);
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      error = Errno("bind");
      break;
    }
    if (i == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
        error = Errno("getsockname");
        break;
      }
      port_ = ntohs(bound.sin_port);
    }
    if (::listen(fd, 1024) != 0) error = Errno("listen");
  }
  if (!error.ok()) {
    for (const int fd : listeners) ::close(fd);
    port_ = 0;
    return error;
  }

  stop_.store(false, std::memory_order_relaxed);
  workers_.clear();
  for (int i = 0; i < num_workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    worker->listen_fd = listeners[static_cast<size_t>(i)];
    worker->spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (!worker->loop.ok() || !worker->wake.ok()) {
      error = Status::IoError("epoll/eventfd setup failed");
    } else {
      Status added =
          worker->loop.Add(worker->listen_fd, EPOLLIN, worker.get());
      if (added.ok()) {
        added = worker->loop.Add(worker->wake.fd(), EPOLLIN, &worker->wake);
      }
      if (!added.ok()) error = added;
    }
    workers_.push_back(std::move(worker));
    if (!error.ok()) break;
  }
  if (!error.ok()) {
    for (auto& worker : workers_) {
      if (worker->listen_fd >= 0) ::close(worker->listen_fd);
      if (worker->spare_fd >= 0) ::close(worker->spare_fd);
    }
    // Listeners bound above but not yet handed to a worker.
    for (size_t j = workers_.size(); j < listeners.size(); ++j) {
      ::close(listeners[j]);
    }
    workers_.clear();
    port_ = 0;
    return error;
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { RunWorker(w); });
  }
  started_ = true;
  return Status::OK();
}

void NetServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_) worker->wake.Signal();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  started_ = false;
}

void NetServer::RunWorker(Worker* worker) {
  epoll_event events[128];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = worker->loop.Wait(events, 128, -1);
    if (n < 0) break;
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == worker) {
        AcceptReady(worker);
        continue;
      }
      if (ptr == &worker->wake) {
        worker->wake.Drain();
        continue;
      }
      Connection* conn = static_cast<Connection*>(ptr);
      if (events[i].events & (EPOLLERR | EPOLLHUP)) {
        CloseConnection(worker, conn);
        continue;
      }
      bool alive = true;
      if (events[i].events & EPOLLIN) alive = HandleReadable(worker, conn);
      if (alive && (events[i].events & EPOLLOUT)) {
        alive = FlushOutput(worker, conn);
      }
      if (alive && conn->want_close && conn->out_sent == conn->out.size()) {
        alive = false;
      }
      if (!alive) CloseConnection(worker, conn);
    }
  }
  // Drain on exit: the worker thread owns these objects exclusively.
  while (!worker->connections.empty()) {
    CloseConnection(worker, *worker->connections.begin());
  }
  if (worker->listen_fd >= 0) {
    ::close(worker->listen_fd);
    worker->listen_fd = -1;
  }
  if (worker->spare_fd >= 0) {
    ::close(worker->spare_fd);
    worker->spare_fd = -1;
  }
}

void NetServer::AcceptReady(Worker* worker) {
  while (true) {
    const int fd = ::accept4(worker->listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if ((errno == EMFILE || errno == ENFILE) && worker->spare_fd >= 0) {
        // Out of fd slots: level-triggered epoll would re-report the
        // pending connection forever and spin the worker. Release the
        // reserved slot, accept just to close, then re-reserve.
        ::close(worker->spare_fd);
        worker->spare_fd = -1;
        const int drained = ::accept4(worker->listen_fd, nullptr, nullptr,
                                      SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (drained >= 0) {
          rejected_.Increment();
          ::close(drained);
        }
        worker->spare_fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
        continue;
      }
      return;  // EAGAIN or transient accept failure: epoll will re-report
    }
    if (active_.fetch_add(1, std::memory_order_relaxed) >=
        config_.max_connections) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      rejected_.Increment();
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection* conn = new Connection(fd, server_);
    if (!worker->loop.Add(fd, EPOLLIN, conn).ok()) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      delete conn;
      continue;
    }
    worker->connections.insert(conn);
    accepted_.Increment();
    active_gauge_.Add(1.0);
  }
}

void NetServer::CloseConnection(Worker* worker, Connection* conn) {
  worker->loop.Remove(conn->fd);
  ::close(conn->fd);
  worker->connections.erase(conn);
  delete conn;
  active_.fetch_sub(1, std::memory_order_relaxed);
  active_gauge_.Add(-1.0);
}

bool NetServer::HandleReadable(Worker* worker, Connection* conn) {
  char chunk[64 * 1024];
  bool saw_eof = false;
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->in.append(chunk, static_cast<size_t>(n));
      bytes_in_.Increment(static_cast<uint64_t>(n));
      // Bound one drain's buffering; level-triggered epoll re-reports
      // whatever the socket still holds.
      if (conn->in.size() >= (16u << 20)) break;
      continue;
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // connection reset or worse
  }
  worker->drain_start = std::chrono::steady_clock::now();
  ProcessBuffer(worker, conn);
  if (saw_eof) {
    // End of input, as stdio's getline sees it: a last line without its
    // newline is still a line, then the protocol closes (answering a
    // batch the input cut short) — unless a protocol error or `quit`
    // already ended the connection.
    if (conn->mode == Connection::Mode::kText && !conn->want_close) {
      if (!conn->in.empty()) {
        conn->in += '\n';
        ProcessBuffer(worker, conn);
      }
      if (!conn->want_close) {
        requests_text_.Increment(conn->text.Close(&conn->out));
      }
    }
    conn->want_close = true;
  }
  if (!FlushOutput(worker, conn)) return false;
  if (conn->want_close && conn->out_sent == conn->out.size()) return false;
  return true;
}

bool NetServer::FlushOutput(Worker* worker, Connection* conn) {
  while (conn->out_sent < conn->out.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->out.data() + conn->out_sent,
               conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_sent += static_cast<size_t>(n);
      bytes_out_.Increment(static_cast<uint64_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn->writable_armed) {
        conn->writable_armed = true;
        worker->loop.Modify(conn->fd, EPOLLIN | EPOLLOUT, conn);
      }
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  conn->out.clear();
  conn->out_sent = 0;
  if (conn->writable_armed) {
    conn->writable_armed = false;
    worker->loop.Modify(conn->fd, EPOLLIN, conn);
  }
  return true;
}

bool NetServer::ProcessBuffer(Worker* worker, Connection* conn) {
  size_t offset = 0;
  while (offset < conn->in.size() && !conn->want_close) {
    // A slow consumer with a deep pipeline: stop producing responses it
    // is not reading and drop the connection.
    if (conn->out.size() - conn->out_sent > kMaxOutputBufferBytes) {
      conn->want_close = true;
      break;
    }
    if (conn->mode == Connection::Mode::kUnknown) {
      conn->mode =
          static_cast<uint8_t>(conn->in[offset]) == kRequestMagic
              ? Connection::Mode::kBinary
              : Connection::Mode::kText;
    }
    if (conn->mode == Connection::Mode::kBinary) {
      DecodedRequest decoded;
      std::string error;
      const DecodeStatus status = DecodeRequest(
          conn->in.data() + offset, conn->in.size() - offset,
          kDefaultMaxPayloadBytes, &decoded, &error);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError) {
        decode_errors_.Increment();
        EncodeErrorResponse(
            Status::InvalidArgument("bad frame: " + error), &conn->out);
        conn->want_close = true;
        offset = conn->in.size();  // the stream is unframeable from here
        break;
      }
      offset += decoded.frame_bytes;
      requests_binary_.Increment();
      EncodeResponse(Respond(worker, decoded.request), decoded.request.kind,
                     &conn->out);
      if (decoded.request.kind == Kind::kQuit) conn->want_close = true;
    } else {
      const size_t newline = conn->in.find('\n', offset);
      if (newline == std::string::npos) {
        // An unterminated line longer than any sane request is the text
        // mode's analogue of an oversized frame.
        if (conn->in.size() - offset > kDefaultMaxPayloadBytes) {
          decode_errors_.Increment();
          conn->out += serve::FormatErrorResponse(
              Status::InvalidArgument("request line exceeds limit"));
          conn->out += '\n';
          conn->want_close = true;
          offset = conn->in.size();
        }
        break;
      }
      const std::string line = conn->in.substr(offset, newline - offset);
      offset = newline + 1;
      requests_text_.Increment(conn->text.Feed(
          line, &conn->out, [this, worker](const serve::ServeRequest& request) {
            return Respond(worker, request);
          }));
      if (conn->text.quit()) conn->want_close = true;
    }
  }
  conn->in.erase(0, offset);
  return !conn->want_close;
}

serve::ServeResponse NetServer::Respond(Worker* worker,
                                        const serve::ServeRequest& request) {
  if (config_.deadline_seconds > 0.0 && IsSheddable(request.kind)) {
    if (++worker->executed_since_refresh >= kShedRefreshPeriod) {
      worker->executed_since_refresh = 0;
      for (int i = 0; i < serve::kNumServeRequestKinds; ++i) {
        const Kind kind = static_cast<Kind>(i);
        if (IsSheddable(kind)) {
          worker->mean_cost[i] = server_->MeanLatencySeconds(kind);
        }
      }
    }
    const double projected =
        SecondsSince(worker->drain_start) +
        worker->mean_cost[static_cast<size_t>(request.kind)];
    if (projected > config_.deadline_seconds) {
      shed_.Increment();
      return server_->Shed(request.kind, config_.deadline_seconds);
    }
  }
  return server_->Handle(request, swap_backend_);
}

}  // namespace net
}  // namespace upskill
