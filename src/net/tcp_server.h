#ifndef UPSKILL_NET_TCP_SERVER_H_
#define UPSKILL_NET_TCP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace upskill {

namespace obs {
class Counter;
class Gauge;
}  // namespace obs

namespace net {

/// Replies a connection may leave unread before its protocol stops
/// answering: a client that pipelines requests but never reads the
/// replies is closed instead of ballooning the heap.
inline constexpr size_t kMaxUnsentBytes = 8u << 20;

/// One connection's byte streams, as its protocol sees them.
struct TcpStreams {
  /// Received bytes the protocol has not consumed yet.
  std::string in;
  /// Replies; the first `out_sent` bytes are already on the wire.
  std::string out;
  size_t out_sent = 0;
  /// The peer has finished sending: nothing will follow `in`.
  bool eof = false;

  /// More than kMaxUnsentBytes of replies wait unread. The protocol
  /// checks this between requests and, once it holds, answers no more
  /// and asks to close.
  bool backlogged() const { return out.size() - out_sent > kMaxUnsentBytes; }
};

/// The protocol of one connection. The loop knows bytes only; frames,
/// lines and HTTP live behind this call.
class TcpProtocol {
 public:
  TcpProtocol() = default;
  virtual ~TcpProtocol() = default;
  TcpProtocol(const TcpProtocol&) = delete;
  TcpProtocol& operator=(const TcpProtocol&) = delete;

  /// Called once per read drain, on the connection's worker thread:
  /// consumes complete requests from the front of `streams->in` and
  /// appends their replies to `streams->out`. Returns true to close the
  /// connection once `out` drains. The loop also closes after the drain
  /// that saw `eof`, and calls the protocol no more once either holds.
  /// Closing shuts the write side first and waits for the peer's EOF, so
  /// input the peer sent after the last answered request cannot reset
  /// the connection and destroy replies still in flight.
  virtual bool Consume(TcpStreams* streams) = 0;
};

struct TcpServerConfig {
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the actual one back with port().
  uint16_t port = 0;
  /// Worker threads, each with its own SO_REUSEPORT listener and epoll
  /// loop; a connection lives on the worker that accepted it.
  int num_workers = 1;
  /// Accept ceiling across all workers; connections beyond it are closed
  /// at once and counted as rejected.
  int max_connections = 4096;
};

/// Transport counters; a null one is not counted.
struct TcpCounters {
  obs::Counter* accepted = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Gauge* active = nullptr;
  obs::Counter* bytes_read = nullptr;
  obs::Counter* bytes_written = nullptr;
};

/// The TCP connection loop under every server in the process: listeners
/// and worker threads, level-triggered epoll with an eventfd wakeup,
/// accept with the connection cap and the fd-exhaustion drain, bounded
/// read drains, end of input, EPOLLOUT-armed flushes and close. Each
/// worker owns its connections outright, so a protocol runs on one
/// thread and needs no locking of its own.
class TcpServer {
 public:
  /// Makes the protocol of a connection that worker `worker` (0-based)
  /// accepted; called on that worker's thread.
  using ProtocolFactory =
      std::function<std::unique_ptr<TcpProtocol>(int worker)>;

  TcpServer(TcpServerConfig config, ProtocolFactory factory,
            TcpCounters counters = {});
  ~TcpServer();
  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds the per-worker listeners and starts the worker threads.
  Status Start();
  /// Stops accepting, closes every connection, joins workers. Idempotent.
  void Stop();

  /// Actual bound port (after Start with config.port == 0).
  uint16_t port() const { return port_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  /// Live connection count across all workers.
  int active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection;
  struct Worker;

  void RunWorker(Worker* worker);
  void AcceptReady(Worker* worker);
  /// Reads what the socket holds, hands it to the protocol, flushes;
  /// false when the connection must close now.
  bool HandleReadable(Worker* worker, Connection* conn);
  /// Writes pending replies and re-arms the epoll interest; false when
  /// the connection must close now (a failed send, or a closing
  /// connection whose replies have drained and whose peer has sent EOF).
  /// A closing connection whose peer has not shuts its write side once
  /// the replies drain, and reads on to the EOF.
  bool Flush(Worker* worker, Connection* conn);
  void CloseConnection(Worker* worker, Connection* conn);

  const TcpServerConfig config_;
  const ProtocolFactory factory_;
  const TcpCounters counters_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  bool started_ = false;
  uint16_t port_ = 0;
};

/// Parses "host:port" ( ":9000" = all interfaces, port 0 = ephemeral):
/// the address grammar of `serve --listen`, `--admin-listen` and `client`.
Status ParseHostPort(const std::string& address, std::string* host,
                     uint16_t* port);

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_NET_TCP_SERVER_H_
