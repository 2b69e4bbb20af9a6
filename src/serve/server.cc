#include "serve/server.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <utility>

#include "common/string_util.h"
#include "core/dp.h"
#include "obs/exposition.h"
#include "obs/model_health.h"
#include "obs/trace.h"
#include "serve/snapshot.h"
#include "simd/kernels.h"

namespace upskill {
namespace serve {

Server::Server(std::shared_ptr<const ServingModel> model, int num_shards,
               bool quantized)
    : quantized_(quantized),
      model_(std::move(model)),
      qmodel_(quantized ? QuantizedModel::FromServingModel(*model_) : nullptr),
      sessions_(num_shards),
      snapshot_swaps_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_serve_snapshot_swaps_total")) {
  // Register the per-kind instruments up front: the request path then
  // only touches lock-free instrument updates, never the registry mutex.
  // Request latencies start at a 100ns bucket (requests are O(S) DP
  // steps, often sub-microsecond).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::HistogramOptions latency_options;
  latency_options.min_bound = 1e-7;
  for (int i = 0; i < kNumServeRequestKinds; ++i) {
    const std::string labels = StringPrintf(
        "kind=\"%s\"", ServeRequestKindName(static_cast<ServeRequest::Kind>(i)));
    instruments_[static_cast<size_t>(i)] = KindInstruments{
        &registry.GetHistogram("upskill_serve_request_latency_seconds", labels,
                               latency_options),
        &registry.GetCounter("upskill_serve_requests_total", labels),
        &registry.GetCounter("upskill_serve_request_errors_total", labels)};
  }
  // Model-health wiring: the initial snapshot is an install too, and the
  // session level distribution is sampled from the store at scrape time.
  obs::ModelHealth& health = obs::ModelHealth::Global();
  health.NoteSnapshotInstalled("", static_cast<int>(kSnapshotVersion),
                               model_->num_levels(), model_->num_items());
  health_sampler_token_ = health.AddSampler([this] {
    obs::ModelHealth::Global().SetSessionLevelCounts(
        sessions_.LevelCounts(this->model()->num_levels()));
  });
}

Server::~Server() {
  obs::ModelHealth::Global().RemoveSampler(health_sampler_token_);
}

std::shared_ptr<const ServingModel> Server::model() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return model_;
}

Server::ModelViews Server::Views() const {
  std::lock_guard<std::mutex> lock(model_mutex_);
  return ModelViews{model_, qmodel_};
}

Result<SessionLevel> Server::Observe(const std::string& user, ItemId item,
                                     int64_t time, bool has_time) {
  const ModelViews views = Views();
  const ServingModel& model = *views.model;
  if (item < 0 || item >= model.num_items()) {
    return Status::OutOfRange(StringPrintf("item %d", item));
  }
  const TransitionWeights* transitions = model.transitions();
  const std::span<const double> log_initial =
      transitions == nullptr
          ? std::span<const double>{}
          : std::span<const double>(transitions->log_initial);
  const double log_stay =
      transitions == nullptr ? 0.0 : transitions->log_stay;
  const double log_up = transitions == nullptr ? 0.0 : transitions->log_up;
  const ForgettingConfig& forgetting = model.forgetting();
  const size_t levels = static_cast<size_t>(model.num_levels());
  const QuantizedModel* qmodel = views.quantized.get();

  Status error = Status::OK();
  SessionLevel result;
  int64_t effective_time = 0;
  sessions_.WithSession(user, [&](SessionState& session) {
    // A swap that changed S resets the store, but a racing observe can
    // still carry a stale-width column into this shard; restart it.
    const size_t width =
        qmodel != nullptr ? session.qcolumn.size() : session.column.size();
    if (session.actions > 0 && width != levels) {
      session = SessionState{};
    }
    const int64_t t = has_time ? time : session.last_time;
    if (session.actions > 0 && t < session.last_time) {
      error = Status::InvalidArgument(StringPrintf(
          "time %lld goes backwards (session is at %lld)",
          static_cast<long long>(t),
          static_cast<long long>(session.last_time)));
      return;
    }
    const bool allow_down = session.actions > 0 &&
                            forgetting.OpensDownEdge(t - session.last_time);
    if (qmodel != nullptr) {
      const std::span<const int16_t> qrow = qmodel->ItemRow(item);
      const int16_t mult = qmodel->ItemMult(item);
      if (session.actions == 0) {
        session.qcolumn.resize(levels);
        session.qnext_column.resize(levels);
        const std::span<const int16_t> q_initial = qmodel->q_initial();
        simd::QuantizedForwardInit(
            qrow.data(), mult,
            q_initial.empty() ? nullptr : q_initial.data(), levels,
            session.qcolumn.data());
      } else {
        simd::QuantizedForwardStep(
            session.qcolumn.data(), qrow.data(), mult, qmodel->q_stay(),
            qmodel->q_up(), allow_down, qmodel->q_down(), levels,
            session.qnext_column.data());
        std::swap(session.qcolumn, session.qnext_column);
      }
      session.level =
          simd::QuantizedForwardLevel(session.qcolumn.data(), levels);
    } else {
      if (session.actions == 0) {
        session.column.resize(levels);
        session.next_column.resize(levels);
        MonotoneForwardStart(model.ItemRow(item), log_initial,
                             session.column);
      } else {
        MonotoneForwardStep(session.column, model.ItemRow(item), log_stay,
                            log_up, allow_down, model.log_down(),
                            session.next_column);
        std::swap(session.column, session.next_column);
      }
      session.level = MonotoneForwardLevel(session.column);
    }
    session.last_time = t;
    ++session.actions;
    result.level = session.level;
    result.actions = session.actions;
    effective_time = t;
  });
  if (!error.ok()) return error;
  // Tee the accepted observation to the ingest hook outside the shard
  // lock, with the time the session actually recorded.
  if (observe_hook_) observe_hook_(user, item, effective_time);
  return result;
}

Result<SessionLevel> Server::CurrentLevel(const std::string& user) const {
  SessionState session;
  if (!sessions_.Lookup(user, &session) || session.actions == 0) {
    return Status::NotFound("no observed actions for user " + user);
  }
  return SessionLevel{session.level, session.actions};
}

Result<std::vector<UpskillRecommendation>> Server::Recommend(
    const std::string& user,
    const UpskillRecommendationOptions& options) const {
  SessionState session;
  if (!sessions_.Lookup(user, &session) || session.actions == 0) {
    return Status::NotFound("no observed actions for user " + user);
  }
  const std::shared_ptr<const ServingModel> model = this->model();
  // A swap that changed S may have raced the lookup; the copied level is
  // still a valid 1-based level under the *old* S, so clamp it.
  const int level = std::min(session.level, model->num_levels());
  Result<std::vector<UpskillRecommendation>> picks =
      model->Recommend(level, options);
  if (picks.ok()) {
    obs::ModelHealth::Global().NoteRecommendation(picks.value().size());
  }
  return picks;
}

Result<double> Server::ItemDifficulty(ItemId item) const {
  const std::shared_ptr<const ServingModel> model = this->model();
  if (item < 0 || item >= model->num_items()) {
    return Status::OutOfRange(StringPrintf("item %d", item));
  }
  return model->difficulty()[static_cast<size_t>(item)];
}

exec::Backend* Server::ResolveExecBackend(exec::Backend* backend) const {
  if (backend != nullptr) return backend;
  if (backend_ != nullptr) return backend_.get();
  return exec::Backend::Serial();
}

void Server::SwapSnapshot(std::shared_ptr<const ServingModel> next,
                          exec::Backend* backend) {
  backend = ResolveExecBackend(backend);
  // Requantize outside the lock (it is the expensive part of the swap);
  // the two views are then published atomically together.
  std::shared_ptr<const QuantizedModel> qnext =
      quantized_ ? QuantizedModel::FromServingModel(*next, backend) : nullptr;
  bool reset = false;
  {
    std::lock_guard<std::mutex> lock(model_mutex_);
    reset = next->num_levels() != model_->num_levels();
    model_ = std::move(next);
    qmodel_ = std::move(qnext);
  }
  if (reset) sessions_.Clear();
  snapshot_swaps_.Increment();
  const std::shared_ptr<const ServingModel> installed = this->model();
  obs::ModelHealth::Global().NoteSnapshotInstalled(
      "", static_cast<int>(kSnapshotVersion), installed->num_levels(),
      installed->num_items());
}

Status Server::SwapSnapshotFile(const std::string& path,
                                exec::Backend* backend) {
  backend = ResolveExecBackend(backend);
  Result<std::shared_ptr<const ServingModel>> next =
      ServingModel::FromSnapshotFile(path, backend);
  if (!next.ok()) return next.status();
  SwapSnapshot(std::move(next).value(), backend);
  obs::ModelHealth::Global().NoteSnapshotPath(path);
  return Status::OK();
}

ServeResponse Server::Handle(const ServeRequest& request,
                             exec::Backend* backend) {
  // The served-requests counter doubles as the span store's sampling
  // clock (RecordRequest below), so the steady-state trace decision
  // costs no extra shared-counter traffic.
  const uint64_t seq = requests_.fetch_add(1, std::memory_order_relaxed);
  const KindInstruments& instruments =
      instruments_[static_cast<size_t>(request.kind)];
  instruments.requests->Increment();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  const bool tracing = recorder.enabled();
  const bool timed = tracing || obs::MetricsEnabled();
  const auto start = timed ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
  ServeResponse response;
  Status status;
  switch (request.kind) {
    case ServeRequest::Kind::kObserve:
    case ServeRequest::Kind::kLevel: {
      const Result<SessionLevel> level =
          request.kind == ServeRequest::Kind::kObserve
              ? Observe(request.user, request.item, request.time,
                        request.has_time)
              : CurrentLevel(request.user);
      if (level.ok()) {
        response.level = level.value().level;
        response.actions = level.value().actions;
      } else {
        status = level.status();
      }
      break;
    }
    case ServeRequest::Kind::kRecommend: {
      UpskillRecommendationOptions options;
      options.max_results = request.top_k;
      options.stretch = request.stretch;
      Result<std::vector<UpskillRecommendation>> picks =
          Recommend(request.user, options);
      status = picks.status();
      if (status.ok()) response.picks = std::move(picks).value();
      break;
    }
    case ServeRequest::Kind::kDifficulty: {
      const Result<double> difficulty = ItemDifficulty(request.item);
      status = difficulty.status();
      if (status.ok()) response.difficulty = difficulty.value();
      break;
    }
    case ServeRequest::Kind::kSwap:
      status = SwapSnapshotFile(request.path, backend);
      if (status.ok()) {
        const std::shared_ptr<const ServingModel> model = this->model();
        response.levels = model->num_levels();
        response.items = model->num_items();
      }
      break;
    case ServeRequest::Kind::kStats:
      response.text = StatsText();
      break;
    case ServeRequest::Kind::kEvict:
      response.evicted = EvictIdleSessions(request.time);
      response.sessions = num_sessions();
      break;
    case ServeRequest::Kind::kReset:
      ResetSessions();
      break;
    case ServeRequest::Kind::kQuit:
      break;
  }
  if (!status.ok()) {
    response.status_code = status.code();
    response.message = status.message();
    instruments.errors->Increment();
  }
  if (timed) {
    const auto end = std::chrono::steady_clock::now();
    instruments.latency->Observe(
        std::chrono::duration<double>(end - start).count());
    if (tracing) {
      recorder.RecordRequest(seq, static_cast<int>(request.kind),
                             ServeRequestKindSpanName(request.kind), start,
                             end, !status.ok(), /*shed=*/false);
    }
  }
  return response;
}

ServeResponse Server::Shed(ServeRequest::Kind kind, double deadline_seconds) {
  const uint64_t seq = requests_.fetch_add(1, std::memory_order_relaxed);
  const KindInstruments& instruments = instruments_[static_cast<size_t>(kind)];
  instruments.requests->Increment();
  instruments.errors->Increment();
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (recorder.enabled()) {
    const auto now = std::chrono::steady_clock::now();
    recorder.RecordRequest(seq, static_cast<int>(kind),
                           ServeRequestKindSpanName(kind), now, now,
                           /*error=*/true, /*shed=*/true);
  }
  ServeResponse response;
  response.status_code = StatusCode::kUnavailable;
  response.message = StringPrintf("shed deadline=%.6fs", deadline_seconds);
  return response;
}

std::string Server::Execute(const ServeRequest& request) {
  return RenderServeResponse(Handle(request), request.kind);
}

double Server::MeanLatencySeconds(ServeRequest::Kind kind) const {
  const obs::Histogram* histogram =
      instruments_[static_cast<size_t>(kind)].latency;
  const uint64_t count = histogram->Count();
  return count == 0 ? 0.0 : histogram->Sum() / static_cast<double>(count);
}

std::string Server::LatencyQuantilesText() const {
  std::string out;
  for (int i = 0; i < kNumServeRequestKinds; ++i) {
    const obs::Histogram* histogram = instruments_[static_cast<size_t>(i)].latency;
    const uint64_t count = histogram->Count();
    if (count == 0) continue;
    out += StringPrintf(
        "  %s: p50=%.3g p90=%.3g p99=%.3g count=%llu\n",
        ServeRequestKindName(static_cast<ServeRequest::Kind>(i)),
        histogram->Quantile(0.5), histogram->Quantile(0.9),
        histogram->Quantile(0.99), static_cast<unsigned long long>(count));
  }
  return out;
}

std::string Server::LatencyQuantilesInline() const {
  std::string out;
  for (int i = 0; i < kNumServeRequestKinds; ++i) {
    const obs::Histogram* histogram = instruments_[static_cast<size_t>(i)].latency;
    if (histogram->Count() == 0) continue;
    const char* kind = ServeRequestKindName(static_cast<ServeRequest::Kind>(i));
    out += StringPrintf(" %s_p50=%.3g %s_p90=%.3g %s_p99=%.3g", kind,
                        histogram->Quantile(0.5), kind,
                        histogram->Quantile(0.9), kind,
                        histogram->Quantile(0.99));
  }
  return out;
}

std::string Server::StatsText() const {
  obs::ModelHealth::Global().Sample();
  const std::shared_ptr<const ServingModel> model = this->model();
  // Summary line first (stable machine-parseable header; new fields are
  // only ever appended at the end of the line), then the Prometheus
  // exposition of the whole process registry. The "# EOF" terminator
  // doubles as the protocol's end-of-response marker for this one
  // multi-line response.
  std::string response = StringPrintf(
      "ok sessions=%zu shards=%d levels=%d items=%d requests=%llu "
      "trace_dropped=%llu",
      num_sessions(), sessions_.num_shards(), model->num_levels(),
      model->num_items(),
      static_cast<unsigned long long>(requests_served()),
      static_cast<unsigned long long>(obs::TraceRecorder::Global().dropped()));
  response += LatencyQuantilesInline();
  response += '\n';
  response += obs::RenderPrometheus(obs::MetricsRegistry::Global());
  // The transport layer appends the final newline.
  while (!response.empty() && response.back() == '\n') response.pop_back();
  return response;
}

namespace {

// Requests that change or report server-wide state: the installed
// snapshot, the session store, the request counters.
bool IsServerWide(ServeRequest::Kind kind) {
  using Kind = ServeRequest::Kind;
  return kind == Kind::kSwap || kind == Kind::kStats ||
         kind == Kind::kEvict || kind == Kind::kReset;
}

}  // namespace

std::vector<std::string> Server::ExecuteBatch(
    std::span<const ServeRequest> requests, exec::Backend* backend) {
  backend = ResolveExecBackend(backend);
  const size_t n = requests.size();
  // A server-wide request runs alone, after the requests before it and
  // before the ones after it. The requests between two of them are
  // counting-sorted into groups of whole session-store shards (a request
  // without a user goes by its index), one `Run` shard per group: a
  // user's requests run in request order on one task, and no two tasks
  // share a shard lock. A backend with at most one worker runs loops
  // inline (exec/backend.h), so it takes one group: request order.
  const size_t max_groups =
      backend->concurrency() <= 2 ? 1
                                  : static_cast<size_t>(sessions_.num_shards());
  std::vector<std::string> responses(n);
  std::vector<uint32_t> group(n, 0);
  std::vector<size_t> order(n);
  for (size_t begin = 0; begin < n;) {
    size_t end = begin;
    while (end < n && !IsServerWide(requests[end].kind)) ++end;
    const size_t groups = std::bit_floor(std::min(end - begin, max_groups));
    if (groups > 1) {
      backend->RunIndices(begin, end, [&](size_t i) {
        const std::string& user = requests[i].user;
        group[i] = static_cast<uint32_t>(
            (user.empty() ? i : sessions_.ShardIndex(user)) & (groups - 1));
      });
    }
    std::vector<size_t> starts(groups + 1, 0);
    for (size_t i = begin; i < end; ++i) ++starts[group[i] + 1];
    std::partial_sum(starts.begin(), starts.end(), starts.begin());
    std::vector<size_t> next(starts.begin(), starts.end() - 1);
    for (size_t i = begin; i < end; ++i) order[next[group[i]]++] = i;
    backend->Run(static_cast<int>(groups), [&](int g) {
      const size_t first = starts[static_cast<size_t>(g)];
      const size_t last = starts[static_cast<size_t>(g) + 1];
      for (size_t k = first; k < last; ++k) {
        responses[order[k]] = Execute(requests[order[k]]);
      }
    });
    if (end < n) responses[end] = Execute(requests[end]);
    begin = end + 1;
  }
  return responses;
}

}  // namespace serve
}  // namespace upskill
