#ifndef UPSKILL_SERVE_SERVER_H_
#define UPSKILL_SERVE_SERVER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/backend.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/quantized_model.h"
#include "serve/serving_model.h"
#include "serve/session_store.h"

namespace upskill {
namespace serve {

/// Level and observation count reported by Observe / CurrentLevel.
struct SessionLevel {
  int level = 0;
  uint64_t actions = 0;
};

/// The online serving front end: an immutable ServingModel (swappable at
/// runtime) plus the sharded SessionStore. Every method is thread-safe;
/// requests for distinct users proceed in parallel, and a snapshot swap
/// never blocks readers — in-flight requests finish against the view they
/// started with.
class Server {
 public:
  /// `quantized` switches session state to the int16 fixed-point forward
  /// DP (serve/quantized_model.h): each observation touches S int16
  /// lanes instead of S doubles, at the cost of bounded level-inference
  /// error (tests hold it to ±1 level and ≥ 99.9% top-1 recommendation
  /// agreement). Recommendation rankings and difficulties always come
  /// from the double view — only level inference is quantized.
  Server(std::shared_ptr<const ServingModel> model, int num_shards = 64,
         bool quantized = false);
  ~Server();

  /// Current model view (atomically readable while swaps happen).
  std::shared_ptr<const ServingModel> model() const;

  bool quantized() const { return quantized_; }

  /// Folds one observed action into `user`'s session: O(S) forward DP
  /// step, then reports the session's new level. Creates the session on
  /// first observation. Rejects out-of-range items and timestamps that go
  /// backwards within the session.
  Result<SessionLevel> Observe(const std::string& user, ItemId item,
                               int64_t time, bool has_time);

  /// Installs a callback fired after every *successful* Observe with the
  /// user, item, and the effective timestamp the session recorded (the
  /// request's time, or the session's previous time when the request
  /// carried none). The ingest front end uses this to tee observations
  /// into the append-only store log (store/ingest_log.h) — the write path
  /// of the continuous-learning loop. The hook runs outside the session
  /// shard lock, on the request thread; it must be internally thread-safe
  /// and should be fast (the ingest writer batches in memory). Install
  /// before serving traffic; swapping hooks mid-flight is not
  /// synchronized.
  using ObserveHook =
      std::function<void(const std::string& user, ItemId item, int64_t time)>;
  void SetObserveHook(ObserveHook hook) { observe_hook_ = std::move(hook); }

  /// Level of an existing session; fails for users never observed.
  Result<SessionLevel> CurrentLevel(const std::string& user) const;

  /// Difficulty-windowed recommendations at the session's current level
  /// (see ServingModel::Recommend). A user at the top level gets an empty
  /// list. Unlike the batch RecommendForUpskilling, the session does not
  /// carry item history, so already-tried items are not excluded.
  Result<std::vector<UpskillRecommendation>> Recommend(
      const std::string& user,
      const UpskillRecommendationOptions& options) const;

  Result<double> ItemDifficulty(ItemId item) const;

  /// Zero-downtime model swap: readers that already grabbed the old view
  /// finish on it; new requests see `next`. Sessions carry their forward
  /// columns across the swap (levels stay monotone; the column simply
  /// continues under the new scores) unless the level count S changed, in
  /// which case every session is reset. In quantized mode the new view is
  /// requantized first (through `backend`, resolved as below) and
  /// published together with the double view; session accumulator columns
  /// carry over under the same rule, because accumulator units are
  /// model-independent.
  void SwapSnapshot(std::shared_ptr<const ServingModel> next,
                    exec::Backend* backend = nullptr);

  /// LoadSnapshot + ServingModel::FromSnapshot + SwapSnapshot.
  Status SwapSnapshotFile(const std::string& path,
                          exec::Backend* backend = nullptr);

  /// Installs an execution backend for the server's parallel work
  /// (requantization on swap, snapshot rebuilds, batch fan-out). Each of
  /// those calls runs on its `backend` argument, else on the installed
  /// backend, else serially. Null uninstalls.
  void SetBackend(std::shared_ptr<exec::Backend> backend) {
    backend_ = std::move(backend);
  }
  exec::Backend* backend() const { return backend_.get(); }

  size_t num_sessions() const { return sessions_.size(); }
  void ResetSessions() { sessions_.Clear(); }
  /// Drops sessions whose last observation predates `min_last_time`
  /// (SessionStore::EvictIdleSessions); returns the eviction count.
  size_t EvictIdleSessions(int64_t min_last_time) {
    return sessions_.EvictIdleSessions(min_last_time);
  }
  /// Requests answered by Handle or Shed, whatever the wire format
  /// (`requests=` in `stats`, `requests:` in /statusz). Lines that fail to
  /// parse never become requests and are not counted.
  uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }

  /// Per-kind latency quantiles for kinds that have traffic, one
  /// "  <kind>: p50=<s> p90=<s> p99=<s> count=<n>\n" row per kind.
  /// Empty when nothing has been recorded (e.g. metrics disabled).
  std::string LatencyQuantilesText() const;
  /// The same quantiles as " <kind>_p50=<s> <kind>_p90=<s> <kind>_p99=<s>"
  /// fields appended to the stats summary line (kinds with traffic only).
  std::string LatencyQuantilesInline() const;

  /// Mean latency of `kind` requests so far, from its
  /// `upskill_serve_request_latency_seconds` histogram; 0 without samples.
  /// The TCP front end's shedding estimate reads it.
  double MeanLatencySeconds(ServeRequest::Kind kind) const;

  /// Executes one request: the serving protocol's only dispatcher, for
  /// every front end and wire format. Counts it in `requests_served()`
  /// and the per-kind `upskill_serve_requests_total` (failures also in
  /// `upskill_serve_request_errors_total`), times its execution into the
  /// per-kind `upskill_serve_request_latency_seconds`, and records it in
  /// the enabled span store, sampled on `requests_served()`. `backend`
  /// runs a `swap` (resolved as for SwapSnapshotFile).
  ServeResponse Handle(const ServeRequest& request,
                       exec::Backend* backend = nullptr);

  /// Rejects a `kind` request for load shedding instead of executing it:
  /// counted like Handle (as an error) and recorded as a shed, answered
  /// `Unavailable` with the message `shed deadline=<deadline_seconds>s`.
  ServeResponse Shed(ServeRequest::Kind kind, double deadline_seconds);

  /// Handle, rendered as text (RenderServeResponse).
  std::string Execute(const ServeRequest& request);

  /// Executes a batch, responses in request order, fanning out over
  /// `backend` (resolved as for SwapSnapshot). Every response is the one
  /// the requests would get one by one, in order: a swap, stats, evict or
  /// reset runs alone, after every request before it and before every
  /// request after it, and between two of them a user's requests run in
  /// request order on one task while other users' run concurrently. A
  /// backend with at most one worker runs the whole batch in request
  /// order; on a pool, different users' requests (and so their observe
  /// hook calls) interleave.
  std::vector<std::string> ExecuteBatch(std::span<const ServeRequest> requests,
                                        exec::Backend* backend = nullptr);

 private:
  /// Telemetry handles for one request kind, registered at construction
  /// so the per-request path never touches the registry mutex.
  struct KindInstruments {
    obs::Histogram* latency = nullptr;
    obs::Counter* requests = nullptr;
    obs::Counter* errors = nullptr;
  };

  /// The `stats` reply body: the "ok sessions=..." summary line
  /// (including trace_dropped and per-kind latency quantiles) followed
  /// by the Prometheus exposition of the process registry,
  /// "# EOF"-terminated, with no trailing newline (the transport appends
  /// it).
  std::string StatsText() const;

  /// Both views, read under one lock acquisition so a concurrent swap can
  /// never hand out a double view paired with a stale quantized one.
  /// `quantized` is null unless the server runs in quantized mode.
  struct ModelViews {
    std::shared_ptr<const ServingModel> model;
    std::shared_ptr<const QuantizedModel> quantized;
  };
  ModelViews Views() const;

  /// Resolves the backend for one parallel entry point: the argument
  /// first, then the installed backend, then serial.
  exec::Backend* ResolveExecBackend(exec::Backend* backend) const;

  const bool quantized_;
  std::shared_ptr<exec::Backend> backend_;
  mutable std::mutex model_mutex_;
  std::shared_ptr<const ServingModel> model_;
  std::shared_ptr<const QuantizedModel> qmodel_;
  SessionStore sessions_;
  ObserveHook observe_hook_;
  std::atomic<uint64_t> requests_{0};
  std::array<KindInstruments, kNumServeRequestKinds> instruments_;
  obs::Counter& snapshot_swaps_;
  /// ModelHealth sampler registration (session level distribution);
  /// deregistered in the destructor.
  uint64_t health_sampler_token_ = 0;
};

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_SERVER_H_
