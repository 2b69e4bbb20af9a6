#include "net/net_server.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "net/frame.h"

namespace upskill {
namespace net {

namespace {

using Kind = serve::ServeRequest::Kind;

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

/// A worker's shed estimate, touched only by its thread (padded so two
/// workers never write one cache line).
struct alignas(64) NetServer::WorkerState {
  /// Start of the current read drain; the shedding budget is measured
  /// against it.
  std::chrono::steady_clock::time_point drain_start;
  double mean_cost[serve::kNumServeRequestKinds] = {};
  uint64_t executed_since_refresh = kShedRefreshPeriod;  // refresh on first
};

/// The data protocol of one connection: the first byte latches binary
/// frames or text lines, and every request runs through Respond.
class NetServer::Connection final : public TcpProtocol {
 public:
  Connection(NetServer* net, WorkerState* worker)
      : net_(net), worker_(worker), text_(net->server_) {}

  bool Consume(TcpStreams* streams) override;

 private:
  /// Answers the complete frames/lines at the front of streams->in,
  /// stopping early on a fatal protocol error, `quit`, or a backlog.
  void ProcessBuffer(TcpStreams* streams);

  NetServer* const net_;
  WorkerState* const worker_;
  enum class Mode : uint8_t { kUnknown, kText, kBinary };
  Mode mode_ = Mode::kUnknown;
  /// Close once the replies drain (quit, fatal protocol error, backlog).
  bool close_ = false;
  /// The text protocol's state (an open `batch <N>`), in text mode.
  serve::LineProtocol text_;
};

NetServer::NetServer(serve::Server* server, exec::Backend* swap_backend,
                     NetServerConfig config)
    : server_(server),
      swap_backend_(swap_backend),
      config_(std::move(config)),
      shed_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_shed_total")),
      decode_errors_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_frame_decode_errors_total")),
      requests_binary_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_requests_total", "proto=\"binary\"")),
      requests_text_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_net_requests_total", "proto=\"text\"")),
      workers_(static_cast<size_t>(std::max(1, config_.num_workers))),
      tcp_(TcpServerConfig{config_.host, config_.port, config_.num_workers,
                           config_.max_connections},
           [this](int worker) -> std::unique_ptr<TcpProtocol> {
             return std::make_unique<Connection>(
                 this, &workers_[static_cast<size_t>(worker)]);
           },
           TcpCounters{
               &obs::MetricsRegistry::Global().GetCounter(
                   "upskill_net_connections_accepted_total"),
               &obs::MetricsRegistry::Global().GetCounter(
                   "upskill_net_connections_rejected_total"),
               &obs::MetricsRegistry::Global().GetGauge(
                   "upskill_net_active_connections"),
               &obs::MetricsRegistry::Global().GetCounter(
                   "upskill_net_bytes_read_total"),
               &obs::MetricsRegistry::Global().GetCounter(
                   "upskill_net_bytes_written_total")}) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() { return tcp_.Start(); }

void NetServer::Stop() { tcp_.Stop(); }

bool NetServer::Connection::Consume(TcpStreams* streams) {
  worker_->drain_start = std::chrono::steady_clock::now();
  ProcessBuffer(streams);
  if (streams->eof && mode_ == Mode::kText && !close_) {
    // End of input, as stdio's getline sees it: a last line without its
    // newline is still a line, then the protocol closes (answering a
    // batch the input cut short) — unless a protocol error or `quit`
    // already ended the connection.
    if (!streams->in.empty()) {
      streams->in += '\n';
      ProcessBuffer(streams);
    }
    if (!close_) net_->requests_text_.Increment(text_.Close(&streams->out));
  }
  return close_;
}

void NetServer::Connection::ProcessBuffer(TcpStreams* streams) {
  std::string& in = streams->in;
  std::string& out = streams->out;
  size_t offset = 0;
  while (offset < in.size() && !close_) {
    // A slow consumer with a deep pipeline: stop producing responses it
    // is not reading and drop the connection.
    if (streams->backlogged()) {
      close_ = true;
      break;
    }
    if (mode_ == Mode::kUnknown) {
      mode_ = static_cast<uint8_t>(in[offset]) == kRequestMagic
                  ? Mode::kBinary
                  : Mode::kText;
    }
    if (mode_ == Mode::kBinary) {
      DecodedRequest decoded;
      std::string error;
      const DecodeStatus status =
          DecodeRequest(in.data() + offset, in.size() - offset,
                        kDefaultMaxPayloadBytes, &decoded, &error);
      if (status == DecodeStatus::kNeedMore) break;
      if (status == DecodeStatus::kError) {
        net_->decode_errors_.Increment();
        EncodeErrorResponse(Status::InvalidArgument("bad frame: " + error),
                            &out);
        close_ = true;
        offset = in.size();  // the stream is unframeable from here
        break;
      }
      offset += decoded.frame_bytes;
      net_->requests_binary_.Increment();
      EncodeResponse(net_->Respond(worker_, decoded.request),
                     decoded.request.kind, &out);
      if (decoded.request.kind == Kind::kQuit) close_ = true;
    } else {
      const size_t newline = in.find('\n', offset);
      if (newline == std::string::npos) {
        // An unterminated line longer than any sane request is the text
        // mode's analogue of an oversized frame.
        if (in.size() - offset > kDefaultMaxPayloadBytes) {
          net_->decode_errors_.Increment();
          out += serve::FormatErrorResponse(
              Status::InvalidArgument("request line exceeds limit"));
          out += '\n';
          close_ = true;
          offset = in.size();
        }
        break;
      }
      const std::string line = in.substr(offset, newline - offset);
      offset = newline + 1;
      net_->requests_text_.Increment(text_.Feed(
          line, &out, [this](const serve::ServeRequest& request) {
            return net_->Respond(worker_, request);
          }));
      if (text_.quit()) close_ = true;
    }
  }
  in.erase(0, offset);
}

serve::ServeResponse NetServer::Respond(WorkerState* worker,
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
