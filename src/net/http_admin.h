#ifndef UPSKILL_NET_HTTP_ADMIN_H_
#define UPSKILL_NET_HTTP_ADMIN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "common/status.h"
#include "net/tcp_server.h"

namespace upskill {

namespace serve {
class Server;
}

namespace net {

struct HttpAdminConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  uint16_t port = 0;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Minimal HTTP/1.1 GET server for the admin plane: the HTTP protocol on
/// its own instance of the shared connection loop (net/tcp_server.h),
/// with one worker thread. Connection: close semantics (every response
/// carries Content-Length and the server closes after the write drains),
/// path handlers registered before Start; a request head over 8192 bytes
/// is a 400. Deliberately not a general web server — no keep-alive, no
/// chunked bodies, no methods beyond GET/HEAD — because its only clients
/// are scrapers and operators with curl, and the data plane must not
/// share a port (a melted-down data port cannot take the scrape path
/// down with it, and vice versa).
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
  uint16_t port() const { return tcp_.port(); }

 private:
  class Connection;

  /// Answers one request line ("GET /path HTTP/1.1"); sets `*head` for
  /// a HEAD request.
  HttpResponse Respond(const std::string& request_line, bool* head) const;

  std::map<std::string, std::function<HttpResponse()>> handlers_;
  TcpServer tcp_;
};

/// Wires the standard admin surface onto `http`:
///   /metrics  Prometheus text exposition (`server`'s model gauges
///             sampled first)
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

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_NET_HTTP_ADMIN_H_
