// The benchmark's own load generator: one TCP connection per thread to
// the serving front end, driven closed-loop (a fixed number of requests
// in flight) or open-loop (requests sent on a fixed schedule whatever the
// replies). Every response is decoded and validated; a run of requests
// and their results can be kept so the benchmark can replay them
// in-process.

#ifndef UPSKILL_BENCH_E2E_LOADGEN_H_
#define UPSKILL_BENCH_E2E_LOADGEN_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/common.h"
#include "common/status.h"
#include "net/client.h"
#include "serve/protocol.h"

namespace upskill {
namespace e2e {

/// How one connection picks its requests. Every connection owns its own
/// users, so the order in which a user's requests reach the server, and
/// with it every response, is fixed by the seed.
struct StreamConfig {
  enum class Pick { kZipf, kUniform, kRoundRobin };
  std::vector<std::string> users;
  Pick pick = Pick::kUniform;
  /// Item ids by true difficulty level. As in the paper's generative
  /// story, user i works at level 1 + i % levels and observes items from
  /// that level's pool, so session levels settle instead of drifting and
  /// the request mix's cost stays steady through a run.
  std::shared_ptr<const std::vector<std::vector<ItemId>>> item_pools;
  /// Share of recommend(top 10) requests; a recommend drawn for a user the
  /// connection has not observed yet is sent as an observe instead.
  double recommend_share = 0.1;
  /// Observes carry a timestamp that increases by one per request, so
  /// every user's times are monotone (the ingest log needs them).
  bool timed = false;
  int64_t first_time = 0;
  uint64_t seed = 1;
};

class RequestStream {
 public:
  explicit RequestStream(StreamConfig config);
  void Next(serve::ServeRequest* request);

 private:
  uint64_t NextRandom();
  double NextUnit() {
    return static_cast<double>(NextRandom() >> 11) * 0x1.0p-53;
  }

  StreamConfig config_;
  uint64_t state_;
  uint64_t counter_ = 0;
  int64_t time_;
  std::vector<double> zipf_cdf_;
  std::vector<uint8_t> observed_;
};

struct LoadStats {
  uint64_t sent = 0;
  uint64_t completed = 0;
  /// Error responses, invalid payloads and requests never answered.
  uint64_t failed = 0;
  uint64_t send_calls = 0;
  uint64_t recv_calls = 0;
  uint64_t backlog_max = 0;
  /// Per completed request while recording: closed loop from the send
  /// call, open loop from the time the request was due.
  LatencyHistogram latency_us;
  /// Open loop: how late each request was sent.
  LatencyHistogram late_us;
  /// CPU time of the generator thread (RUSAGE_THREAD).
  double cpu_seconds = 0.0;
  std::string first_error;

  void Fail(const std::string& what);
};

class LoadConnection {
 public:
  /// `text` selects the newline protocol, otherwise binary frames.
  /// Responses are checked against `num_levels`.
  LoadConnection(bool text, int num_levels);
  LoadConnection(const LoadConnection&) = delete;
  LoadConnection& operator=(const LoadConnection&) = delete;

  Status Connect(uint16_t port);

  /// Keeps the next `limit` requests and their results. Call between
  /// runs, with nothing in flight.
  void Record(size_t limit);

  /// Keeps `depth` requests in flight; stops sending at `deadline` or
  /// after `max_requests`, then waits for every response.
  void RunClosed(RequestStream* stream, int depth, Clock::time_point deadline,
                 uint64_t max_requests, bool record, LoadStats* stats);

  /// Sends `rate` requests per second on a uniform schedule until
  /// `deadline`, then waits (at most one second) for every response.
  void RunOpen(RequestStream* stream, double rate, Clock::time_point deadline,
               LoadStats* stats);

  bool text() const { return text_; }
  const std::vector<serve::ServeRequest>& recorded_requests() const {
    return recorded_requests_;
  }
  /// Observe level or recommend pick count per recorded request; -1 for a
  /// failed one.
  const std::vector<int>& recorded_results() const {
    return recorded_results_;
  }

 private:
  struct InFlight {
    serve::ServeRequest::Kind kind;
    int64_t stamp_ns;
  };

  void Queue(const serve::ServeRequest& request, int64_t stamp_ns);
  bool Send(bool block, LoadStats* stats);
  /// One recv (all available bytes when `block` is false), then decodes
  /// every complete response. False when the connection broke.
  bool Receive(bool block, bool record, LoadStats* stats);
  /// Decodes the oldest in-flight response from rx_; false when more
  /// bytes are needed, and sets `broken` on a malformed stream.
  bool DecodeOne(LoadStats* stats, int* result, bool* broken);
  void FailInFlight(LoadStats* stats, const std::string& why);

  const bool text_;
  const int num_levels_;
  size_t record_limit_ = 0;
  net::NetClient client_;
  std::string tx_;
  size_t tx_off_ = 0;
  std::string rx_;
  size_t rx_off_ = 0;
  std::vector<char> chunk_;
  std::deque<InFlight> in_flight_;
  std::vector<serve::ServeRequest> recorded_requests_;
  std::vector<int> recorded_results_;
};

}  // namespace e2e
}  // namespace upskill

#endif  // UPSKILL_BENCH_E2E_LOADGEN_H_
