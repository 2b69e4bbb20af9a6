#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <thread>
#include <unordered_set>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace upskill {
namespace net {

namespace {

Status Errno(const char* what) {
  return Status::IoError(StringPrintf("%s: %s", what, std::strerror(errno)));
}

/// Bound on one read drain's buffering; level-triggered epoll re-reports
/// whatever the socket still holds.
constexpr size_t kMaxDrainBytes = 16u << 20;

int AcceptOne(int listen_fd) {
  return ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
}

int ReserveSpareFd() { return ::open("/dev/null", O_RDONLY | O_CLOEXEC); }

void Count(obs::Counter* counter, size_t delta) {
  if (counter != nullptr) counter->Increment(delta);
}

void AddActive(obs::Gauge* gauge, double delta) {
  if (gauge != nullptr) gauge->Add(delta);
}

}  // namespace

struct TcpServer::Connection {
  Connection(int fd, std::unique_ptr<TcpProtocol> protocol)
      : fd(fd), protocol(std::move(protocol)) {}

  const int fd;
  const std::unique_ptr<TcpProtocol> protocol;
  TcpStreams streams;
  /// Close once `out` drains: the protocol asked to, or the peer is done.
  bool closing = false;
  /// The write side is shut: `out` drained while closing, and the loop
  /// discards input until the peer's EOF.
  bool write_shut = false;
  /// The epoll interest: EPOLLIN until EOF, EPOLLOUT while replies wait.
  uint32_t events = EPOLLIN;
};

/// One worker's listener, epoll instance, eventfd wakeup (for Stop) and
/// connections. After Start only the worker's thread touches them.
struct TcpServer::Worker {
  Worker()
      : epoll_fd(::epoll_create1(EPOLL_CLOEXEC)),
        wake_fd(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {}
  ~Worker() {
    for (const int fd : {listen_fd, spare_fd, wake_fd, epoll_fd}) {
      if (fd >= 0) ::close(fd);
    }
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  Status Watch(int op, int fd, uint32_t events, void* data) const {
    epoll_event event{};
    event.events = events;
    event.data.ptr = data;
    if (::epoll_ctl(epoll_fd, op, fd, &event) != 0) return Errno("epoll_ctl");
    return Status::OK();
  }

  /// Binds a listener on `addr` (SO_REUSEPORT, so every worker joins the
  /// same port), reserves the spare fd and registers the listener and
  /// the wakeup with epoll.
  Status Listen(const sockaddr_in& addr) {
    if (epoll_fd < 0 || wake_fd < 0) {
      return Status::IoError("epoll/eventfd setup failed");
    }
    listen_fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (listen_fd < 0) return Errno("socket");
    const int one = 1;
    if (::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one)) != 0 ||
        ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEPORT, &one,
                     sizeof(one)) != 0) {
      return Errno("setsockopt(SO_REUSEPORT)");
    }
    if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      return Errno("bind");
    }
    if (::listen(listen_fd, 1024) != 0) return Errno("listen");
    spare_fd = ReserveSpareFd();
    Status added = Watch(EPOLL_CTL_ADD, listen_fd, EPOLLIN, this);
    if (added.ok()) added = Watch(EPOLL_CTL_ADD, wake_fd, EPOLLIN, &wake_fd);
    return added;
  }

  void Wake() const {
    const uint64_t one = 1;
    // A full eventfd counter still wakes the reader; ignore short writes.
    [[maybe_unused]] const ssize_t n = ::write(wake_fd, &one, sizeof(one));
  }

  void DrainWake() const {
    uint64_t value = 0;
    while (::read(wake_fd, &value, sizeof(value)) > 0) {
    }
  }

  int index = 0;
  int epoll_fd;
  int wake_fd;
  int listen_fd = -1;
  /// A reserved fd slot (open on /dev/null); see AcceptReady.
  int spare_fd = -1;
  std::thread thread;
  std::unordered_set<Connection*> connections;
};

TcpServer::TcpServer(TcpServerConfig config, ProtocolFactory factory,
                     TcpCounters counters)
    : config_(std::move(config)),
      factory_(std::move(factory)),
      counters_(counters) {}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (started_) return Status::FailedPrecondition("already started");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen host " + config_.host);
  }
  addr.sin_port = htons(config_.port);

  // One SO_REUSEPORT listener per worker, all on the same address: the
  // kernel hashes incoming connections across them, so accepts (like
  // request processing) never funnel through a single thread. The first
  // bind resolves an ephemeral port request; the rest join it. On any
  // failure the workers built so far close their fds as they go.
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < std::max(1, config_.num_workers); ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    const Status listening = worker->Listen(addr);
    if (!listening.ok()) return listening;
    if (i == 0) {
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(worker->listen_fd, reinterpret_cast<sockaddr*>(&bound),
                        &len) != 0) {
        return Errno("getsockname");
      }
      addr.sin_port = bound.sin_port;
    }
    workers.push_back(std::move(worker));
  }

  port_ = ntohs(addr.sin_port);
  stop_.store(false, std::memory_order_relaxed);
  workers_ = std::move(workers);
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { RunWorker(w); });
  }
  started_ = true;
  return Status::OK();
}

void TcpServer::Stop() {
  if (!started_) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& worker : workers_) worker->Wake();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  workers_.clear();
  started_ = false;
}

void TcpServer::RunWorker(Worker* worker) {
  epoll_event events[128];
  while (!stop_.load(std::memory_order_relaxed)) {
    const int n = ::epoll_wait(worker->epoll_fd, events, 128, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* ptr = events[i].data.ptr;
      if (ptr == worker) {
        AcceptReady(worker);
        continue;
      }
      if (ptr == &worker->wake_fd) {
        worker->DrainWake();
        continue;
      }
      Connection* conn = static_cast<Connection*>(ptr);
      const uint32_t ready = events[i].events;
      // Once the write side is shut, the peer's EOF arrives as a hangup;
      // the input before it is still read (and discarded) first.
      bool alive = (ready & EPOLLERR) == 0 &&
                   ((ready & EPOLLHUP) == 0 || conn->write_shut);
      if (alive && (ready & (EPOLLIN | EPOLLHUP))) {
        alive = HandleReadable(worker, conn);
      }
      if (alive && (ready & EPOLLOUT)) alive = Flush(worker, conn);
      if (!alive) CloseConnection(worker, conn);
    }
  }
  // Drain on exit: the worker thread owns these objects exclusively.
  while (!worker->connections.empty()) {
    CloseConnection(worker, *worker->connections.begin());
  }
}

void TcpServer::AcceptReady(Worker* worker) {
  while (true) {
    const int fd = AcceptOne(worker->listen_fd);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of fd slots. accept4 claims a slot before it looks at the
        // queue, so it fails like this whether or not a connection is
        // pending, and the level-triggered listener keeps reporting a
        // pending one. Release the reserved slot, accept one connection
        // just to close it, re-reserve, and go back to epoll: it reports
        // the listener again while connections are pending, and the
        // worker serves its other connections in between.
        if (worker->spare_fd >= 0) ::close(worker->spare_fd);
        const int drained = AcceptOne(worker->listen_fd);
        if (drained >= 0) {
          Count(counters_.rejected, 1);
          ::close(drained);
        }
        worker->spare_fd = ReserveSpareFd();
      }
      return;  // EAGAIN or transient accept failure: epoll re-reports
    }
    if (active_.fetch_add(1, std::memory_order_relaxed) >=
        config_.max_connections) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      Count(counters_.rejected, 1);
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection* conn = new Connection(fd, factory_(worker->index));
    if (!worker->Watch(EPOLL_CTL_ADD, fd, EPOLLIN, conn).ok()) {
      active_.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      delete conn;
      continue;
    }
    worker->connections.insert(conn);
    Count(counters_.accepted, 1);
    AddActive(counters_.active, 1.0);
  }
}

void TcpServer::CloseConnection(Worker* worker, Connection* conn) {
  // Deregister explicitly: a forked child holding the fd would keep the
  // registration alive past close.
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  worker->connections.erase(conn);
  delete conn;
  active_.fetch_sub(1, std::memory_order_relaxed);
  AddActive(counters_.active, -1.0);
}

bool TcpServer::HandleReadable(Worker* worker, Connection* conn) {
  TcpStreams& streams = conn->streams;
  char chunk[64 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      streams.in.append(chunk, static_cast<size_t>(n));
      Count(counters_.bytes_read, static_cast<size_t>(n));
      if (streams.in.size() >= kMaxDrainBytes) break;
      continue;
    }
    if (n == 0) {
      streams.eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;  // connection reset or worse
  }
  if (conn->closing) {
    streams.in.clear();  // nothing more is answered
  } else {
    conn->closing = conn->protocol->Consume(&streams) || streams.eof;
  }
  return Flush(worker, conn);
}

bool TcpServer::Flush(Worker* worker, Connection* conn) {
  TcpStreams& streams = conn->streams;
  while (streams.out_sent < streams.out.size()) {
    const ssize_t n = ::send(conn->fd, streams.out.data() + streams.out_sent,
                             streams.out.size() - streams.out_sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      streams.out_sent += static_cast<size_t>(n);
      Count(counters_.bytes_written, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return false;
  }
  const bool drained = streams.out_sent == streams.out.size();
  if (drained) {
    if (conn->closing) {
      // Closing a socket whose peer's input is still unread makes the
      // kernel answer with RST and drop the replies it has not sent yet.
      // So shut the write side, which sends FIN after the replies, and
      // close at the peer's EOF (HandleReadable discards what comes
      // before it).
      if (streams.eof) return false;
      if (!conn->write_shut) {
        if (::shutdown(conn->fd, SHUT_WR) != 0) return false;
        conn->write_shut = true;
      }
    }
    streams.out.clear();
    streams.out_sent = 0;
  }
  // Writes go straight to the socket; EPOLLOUT is armed only while a
  // short write left replies behind. After EOF there is nothing to read,
  // and a level-triggered EPOLLIN would re-report the EOF forever.
  const uint32_t events = (streams.eof ? 0u : uint32_t{EPOLLIN}) |
                          (drained ? 0u : uint32_t{EPOLLOUT});
  if (events != conn->events) {
    conn->events = events;
    worker->Watch(EPOLL_CTL_MOD, conn->fd, events, conn);
  }
  return true;
}

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

}  // namespace net
}  // namespace upskill
