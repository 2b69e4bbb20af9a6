#ifndef UPSKILL_NET_NET_SERVER_H_
#define UPSKILL_NET_NET_SERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/tcp_server.h"
#include "obs/metrics.h"
#include "serve/server.h"

namespace upskill {
namespace net {

struct NetServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  uint16_t port = 0;
  /// Worker threads, each with its own SO_REUSEPORT acceptor and epoll
  /// loop (the kernel spreads incoming connections across them). A
  /// connection is serviced by exactly one worker for its whole life, so
  /// the only cross-worker state on the hot path is the striped
  /// SessionStore inside serve::Server.
  int num_workers = 1;
  /// Accept ceiling across all workers; connections beyond it are closed
  /// immediately (counted in upskill_net_connections_rejected_total).
  int max_connections = 4096;
  /// Request-deadline budget for load shedding, in seconds; 0 disables.
  /// Within one event-loop drain, a data-plane request whose estimated
  /// completion (time already spent in the drain + the per-kind mean
  /// latency from the upskill_serve_request_latency_seconds histograms)
  /// would exceed the budget is rejected with ERR Unavailable ("shed ..."),
  /// never queued. Admin commands (swap/stats/evict/reset/quit) are
  /// exempt so operators keep control of an overloaded server.
  double deadline_seconds = 0.0;
};

/// The epoll TCP front end over a serve::Server. Both wire formats share
/// the port: a connection's first byte selects binary framing (0xF5, see
/// net/frame.h) or the newline text protocol. Every request runs through
/// Server::Handle (or Server::Shed); a text connection feeds its lines to
/// the same serve::LineProtocol as the stdio `serve` loop, so its replies
/// are byte-identical to stdio, and a binary one encodes the typed
/// response straight into the connection's output buffer.
/// Fixed limits: a frame or unterminated line over kDefaultMaxPayloadBytes
/// is answered as an error and closes the connection, as does more than
/// 8 MiB of unread replies; `batch <N>` stops at serve::kMaxBatchRequests.
class NetServer {
 public:
  /// `server` must outlive this object. `swap_backend` (optional) runs
  /// the snapshot rebuild/requantization of `swap` requests; null defers
  /// to the server's installed backend.
  NetServer(serve::Server* server, exec::Backend* swap_backend,
            NetServerConfig config);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds the per-worker listeners and starts the worker threads.
  Status Start();
  /// Stops accepting, closes every connection, joins workers. Idempotent.
  void Stop();

  /// Actual bound port (after Start with config.port == 0).
  uint16_t port() const { return tcp_.port(); }
  int num_workers() const { return tcp_.num_workers(); }
  /// Live connection count across all workers.
  int active_connections() const { return tcp_.active_connections(); }

 private:
  class Connection;
  struct WorkerState;

  /// Server::Handle, or Server::Shed when the deadline budget says the
  /// request cannot make it (see NetServerConfig::deadline_seconds).
  serve::ServeResponse Respond(WorkerState* worker,
                               const serve::ServeRequest& request);

  serve::Server* const server_;
  exec::Backend* const swap_backend_;
  const NetServerConfig config_;

  // upskill_net_* instruments the protocol counts, registered once at
  // construction; the transport's own go to the loop as TcpCounters.
  obs::Counter& shed_;
  obs::Counter& decode_errors_;
  obs::Counter& requests_binary_;
  obs::Counter& requests_text_;

  /// One shed estimate per worker, indexed by the loop's worker index.
  std::vector<WorkerState> workers_;
  TcpServer tcp_;
};

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_NET_NET_SERVER_H_
