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
#include "obs/trace.h"

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

}  // namespace

struct NetServer::Connection {
  int fd = -1;
  enum class Mode : uint8_t { kUnknown, kText, kBinary };
  Mode mode = Mode::kUnknown;
  std::string in;
  std::string out;
  size_t out_sent = 0;
  /// Close once `out` drains (quit, EOF, or fatal protocol error).
  bool want_close = false;
  bool writable_armed = false;
  /// Text `batch <N>` directive in progress: lines collected so far and
  /// the stdio loop's parse bookkeeping (response order == request order,
  /// parse errors interleaved in place).
  long long batch_total = 0;
  long long batch_seen = 0;
  std::vector<serve::ServeRequest> batch_requests;
  std::vector<std::string> batch_errors;
  std::vector<int> batch_index;
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
  /// Per-core request sequence, the span store's sampling clock
  /// (RecordRequest): worker-private, so bumping it touches no shared
  /// cache line on the hot path.
  uint64_t trace_seq = 0;
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
          "upskill_net_requests_total", "proto=\"text\"")) {
  // The per-kind serve instruments: same (name, labels) as the ones
  // Server registers, so the registry hands back the same objects and
  // both front ends share one latency/error surface.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::HistogramOptions latency_options;
  latency_options.min_bound = 1e-7;
  for (int i = 0; i < serve::kNumServeRequestKinds; ++i) {
    const std::string labels = StringPrintf(
        "kind=\"%s\"", serve::ServeRequestKindName(static_cast<Kind>(i)));
    latency_[static_cast<size_t>(i)] = &registry.GetHistogram(
        "upskill_serve_request_latency_seconds", labels, latency_options);
    kind_requests_[static_cast<size_t>(i)] =
        &registry.GetCounter("upskill_serve_requests_total", labels);
    kind_errors_[static_cast<size_t>(i)] =
        &registry.GetCounter("upskill_serve_request_errors_total", labels);
  }
}

NetServer::~NetServer() { Stop(); }

Status ParseListenAddress(const std::string& address,
                          NetServerConfig* config) {
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos) {
    return Status::InvalidArgument("listen address must be host:port, got " +
                                   address);
  }
  const std::string host = address.substr(0, colon);
  const Result<long long> port = ParseInt(address.substr(colon + 1));
  if (!port.ok() || port.value() < 0 || port.value() > 65535) {
    return Status::InvalidArgument("bad listen port in " + address);
  }
  config->host = host.empty() ? "0.0.0.0" : host;
  config->port = static_cast<uint16_t>(port.value());
  return Status::OK();
}

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
    Connection* conn = new Connection();
    conn->fd = fd;
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
    // EOF mid-batch: the stdio loop executes whatever was collected and
    // emits every declared slot; do the same before closing (unless the
    // connection is already dying from a protocol error).
    if (!conn->want_close && conn->batch_total > 0) FinishBatch(conn);
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
    if (conn->out.size() - conn->out_sent > config_.max_output_buffer_bytes) {
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
          config_.max_payload_bytes, &decoded, &error);
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
      ExecuteBinary(worker, conn, decoded.request);
    } else {
      const size_t newline = conn->in.find('\n', offset);
      if (newline == std::string::npos) {
        // An unterminated line longer than any sane request is the text
        // mode's analogue of an oversized frame.
        if (conn->in.size() - offset > config_.max_payload_bytes) {
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
      ExecuteTextLine(worker, conn, line);
    }
  }
  conn->in.erase(0, offset);
  return !conn->want_close;
}

bool NetServer::ShouldShed(Worker* worker, Kind kind) {
  if (config_.deadline_seconds <= 0.0 || !IsSheddable(kind)) return false;
  if (++worker->executed_since_refresh >= kShedRefreshPeriod) {
    worker->executed_since_refresh = 0;
    for (int i = 0; i < serve::kNumServeRequestKinds; ++i) {
      if (!IsSheddable(static_cast<Kind>(i))) continue;
      const obs::Histogram* histogram = latency_[static_cast<size_t>(i)];
      const uint64_t count = histogram->Count();
      worker->mean_cost[i] =
          count == 0 ? 0.0 : histogram->Sum() / static_cast<double>(count);
    }
  }
  const double projected = SecondsSince(worker->drain_start) +
                           worker->mean_cost[static_cast<size_t>(kind)];
  return projected > config_.deadline_seconds;
}

void NetServer::ExecuteBinary(Worker* worker, Connection* conn,
                              const serve::ServeRequest& request) {
  const size_t kind = static_cast<size_t>(request.kind);
  requests_binary_.Increment();
  kind_requests_[kind]->Increment();
  server_->NoteRequestServed();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool tracing = recorder.enabled();
  if (ShouldShed(worker, request.kind)) {
    shed_.Increment();
    kind_errors_[kind]->Increment();
    if (tracing) {
      const auto now = std::chrono::steady_clock::now();
      recorder.RecordRequest(worker->trace_seq++, static_cast<int>(kind),
                             serve::ServeRequestKindSpanName(request.kind),
                             now, now, /*error=*/true, /*shed=*/true);
    }
    EncodeErrorResponse(
        Status::Unavailable(StringPrintf("shed deadline=%.6fs",
                                         config_.deadline_seconds)),
        &conn->out);
    return;
  }
  const bool timed = obs::MetricsEnabled() || tracing;
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  bool is_error = false;
  switch (request.kind) {
    case Kind::kObserve: {
      const Result<serve::SessionLevel> result = server_->Observe(
          request.user, request.item, request.time, request.has_time);
      if (result.ok()) {
        EncodeLevelResponse(result.value(), &conn->out);
      } else {
        EncodeErrorResponse(result.status(), &conn->out);
        is_error = true;
      }
      break;
    }
    case Kind::kLevel: {
      const Result<serve::SessionLevel> result =
          server_->CurrentLevel(request.user);
      if (result.ok()) {
        EncodeLevelResponse(result.value(), &conn->out);
      } else {
        EncodeErrorResponse(result.status(), &conn->out);
        is_error = true;
      }
      break;
    }
    case Kind::kRecommend: {
      UpskillRecommendationOptions options;
      options.max_results = request.top_k;
      options.stretch = request.stretch;
      const Result<std::vector<UpskillRecommendation>> picks =
          server_->Recommend(request.user, options);
      if (picks.ok()) {
        EncodeRecommendResponse(picks.value(), &conn->out);
      } else {
        EncodeErrorResponse(picks.status(), &conn->out);
        is_error = true;
      }
      break;
    }
    case Kind::kDifficulty: {
      const Result<double> difficulty = server_->ItemDifficulty(request.item);
      if (difficulty.ok()) {
        EncodeDifficultyResponse(difficulty.value(), &conn->out);
      } else {
        EncodeErrorResponse(difficulty.status(), &conn->out);
        is_error = true;
      }
      break;
    }
    case Kind::kSwap: {
      const Status swapped =
          server_->SwapSnapshotFile(request.path, swap_backend_);
      if (swapped.ok()) {
        const std::shared_ptr<const serve::ServingModel> model =
            server_->model();
        EncodeSwapResponse(model->num_levels(), model->num_items(),
                           &conn->out);
      } else {
        EncodeErrorResponse(swapped, &conn->out);
        is_error = true;
      }
      break;
    }
    case Kind::kStats:
      EncodeTextResponse(server_->StatsText(), &conn->out);
      break;
    case Kind::kEvict: {
      const uint64_t evicted = server_->EvictIdleSessions(request.time);
      EncodeEvictResponse(evicted, server_->num_sessions(), &conn->out);
      break;
    }
    case Kind::kReset:
      server_->ResetSessions();
      EncodeEmptyResponse(&conn->out);
      break;
    case Kind::kQuit:
      EncodeEmptyResponse(&conn->out);
      conn->want_close = true;
      break;
  }
  if (is_error) kind_errors_[kind]->Increment();
  if (timed) {
    const auto end = std::chrono::steady_clock::now();
    latency_[kind]->Observe(
        std::chrono::duration<double>(end - start).count());
    if (tracing) {
      recorder.RecordRequest(worker->trace_seq++, static_cast<int>(kind),
                             serve::ServeRequestKindSpanName(request.kind),
                             start, end, is_error, /*shed=*/false);
    }
  }
}

void NetServer::ExecuteTextLine(Worker* worker, Connection* conn,
                                const std::string& line) {
  // Mirrors the stdio serve loop in examples/upskill_cli.cpp line for
  // line, so text responses over TCP are byte-identical to stdio (the
  // equivalence tests hold both against each other).
  if (conn->batch_total > 0) {
    const long long i = conn->batch_seen++;
    const Result<serve::ServeRequest> request =
        serve::ParseServeRequest(line);
    if (request.ok()) {
      conn->batch_index[static_cast<size_t>(i)] =
          static_cast<int>(conn->batch_requests.size());
      conn->batch_requests.push_back(request.value());
    } else {
      conn->batch_errors[static_cast<size_t>(i)] =
          serve::FormatErrorResponse(request.status());
    }
    if (conn->batch_seen < conn->batch_total) return;
    FinishBatch(conn);
    return;
  }
  if (StripWhitespace(line).empty()) return;
  const std::vector<std::string> head =
      Split(std::string(StripWhitespace(line)), ' ');
  if (head.size() == 2 && head[0] == "batch") {
    const Result<long long> count = ParseInt(head[1]);
    if (!count.ok() || count.value() < 0) {
      conn->out += serve::FormatErrorResponse(
          Status::InvalidArgument("batch expects: batch <N>"));
      conn->out += '\n';
      return;
    }
    if (static_cast<unsigned long long>(count.value()) >
        config_.max_batch_requests) {
      // The directive preallocates per-line slots, so an unauthenticated
      // peer must not get to pick the allocation size.
      conn->out += serve::FormatErrorResponse(Status::InvalidArgument(
          StringPrintf("batch count exceeds limit %zu",
                       config_.max_batch_requests)));
      conn->out += '\n';
      return;
    }
    conn->batch_total = count.value();
    conn->batch_seen = 0;
    conn->batch_requests.clear();
    conn->batch_errors.assign(static_cast<size_t>(count.value()), "");
    conn->batch_index.assign(static_cast<size_t>(count.value()), -1);
    return;  // batch 0: nothing to collect, nothing emitted (same as stdio)
  }
  const Result<serve::ServeRequest> request = serve::ParseServeRequest(line);
  if (!request.ok()) {
    conn->out += serve::FormatErrorResponse(request.status());
    conn->out += '\n';
    return;
  }
  requests_text_.Increment();
  if (ShouldShed(worker, request.value().kind)) {
    shed_.Increment();
    kind_requests_[static_cast<size_t>(request.value().kind)]->Increment();
    kind_errors_[static_cast<size_t>(request.value().kind)]->Increment();
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    if (recorder.enabled()) {
      const auto now = std::chrono::steady_clock::now();
      recorder.RecordRequest(
          worker->trace_seq++, static_cast<int>(request.value().kind),
          serve::ServeRequestKindSpanName(request.value().kind), now, now,
          /*error=*/true, /*shed=*/true);
    }
    conn->out += serve::FormatErrorResponse(Status::Unavailable(
        StringPrintf("shed deadline=%.6fs", config_.deadline_seconds)));
    conn->out += '\n';
    return;
  }
  conn->out += server_->Execute(request.value());
  conn->out += '\n';
  if (request.value().kind == Kind::kQuit) conn->want_close = true;
}

void NetServer::FinishBatch(Connection* conn) {
  // Stdio emits one line per declared slot even when EOF cut the batch
  // short (never-received slots render as empty lines), so a partial
  // batch still produces batch_total responses.
  requests_text_.Increment(
      static_cast<uint64_t>(conn->batch_requests.size()));
  const std::vector<std::string> responses =
      server_->ExecuteBatch(conn->batch_requests, nullptr);
  for (size_t j = 0; j < conn->batch_index.size(); ++j) {
    conn->out += conn->batch_index[j] >= 0
                     ? responses[static_cast<size_t>(conn->batch_index[j])]
                     : conn->batch_errors[j];
    conn->out += '\n';
  }
  conn->batch_total = 0;
  conn->batch_seen = 0;
  conn->batch_requests.clear();
  conn->batch_errors.clear();
  conn->batch_index.clear();
}

}  // namespace net
}  // namespace upskill
