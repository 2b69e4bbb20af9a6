#ifndef UPSKILL_NET_HTTP_ADMIN_H_
#define UPSKILL_NET_HTTP_ADMIN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "common/status.h"
#include "net/epoll_loop.h"

namespace upskill {

namespace serve {
class Server;
}

namespace net {

struct HttpAdminConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  uint16_t port = 0;
  /// Admin requests are tiny GETs; anything larger than this before the
  /// blank line is a 400 and the connection closes.
  size_t max_request_bytes = 8192;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal HTTP/1.1 GET server for the admin plane: one worker thread
/// with its own EpollLoop, Connection: close semantics (every response
/// carries Content-Length and the server closes after the write drains),
/// path handlers registered before Start. Deliberately not a general web
/// server — no keep-alive, no chunked bodies, no methods beyond GET/HEAD
/// — because its only clients are scrapers and operators with curl, and
/// the data plane must not share a port (a melted-down data port cannot
/// take the scrape path down with it, and vice versa).
class HttpAdminServer {
 public:
  explicit HttpAdminServer(HttpAdminConfig config);
  ~HttpAdminServer();
  HttpAdminServer(const HttpAdminServer&) = delete;
  HttpAdminServer& operator=(const HttpAdminServer&) = delete;

  /// Registers `handler` for exact path `path` (query strings are
  /// stripped before matching). Must be called before Start.
  void Handle(const std::string& path, std::function<HttpResponse()> handler);

  Status Start();
  /// Closes the listener and every connection, joins the worker.
  /// Idempotent.
  void Stop();

  /// Actual bound port (after Start with config.port == 0).
  uint16_t port() const { return port_; }

 private:
  struct Connection;

  void Run();
  void AcceptReady();
  bool HandleReadable(Connection* conn);
  bool FlushOutput(Connection* conn);
  void CloseConnection(Connection* conn);
  /// Parses one request head out of conn->in and stages the response;
  /// false when the connection must close without a response.
  bool ProcessRequest(Connection* conn);

  const HttpAdminConfig config_;
  std::map<std::string, std::function<HttpResponse()>> handlers_;

  EpollLoop loop_;
  WakeupFd wake_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{true};
  bool started_ = false;
  std::thread worker_;
  std::map<int, std::unique_ptr<Connection>> connections_;
};

/// Wires the standard admin surface onto `http`:
///   /metrics  Prometheus text exposition (model-health sampled first)
///   /healthz  "ok", or 503 with the error while `health` (optional)
///             reports one, e.g. a sticky ingest-log failure
///   /statusz  human-readable status: build info, snapshot version/age,
///             backend, sessions, uptime, per-kind latency quantiles,
///             trace drops, span-store occupancy
///   /tracez   the global span store as Chrome-tracing JSON (empty
///             `traceEvents` until the store is enabled)
/// `server` must outlive `http`.
void InstallAdminEndpoints(HttpAdminServer* http, serve::Server* server,
                           std::function<Status()> health = {});

/// Parses "host:port" ( ":9000" = all interfaces, port 0 = ephemeral):
/// the address grammar of `serve --listen`, `--admin-listen` and `client`.
Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_NET_HTTP_ADMIN_H_
