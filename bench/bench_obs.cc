// Observability-overhead benchmarks (google-benchmark): what request
// tracing into the global span store (obs::TraceRecorder) costs on the
// serving hot path. BM_RequestTraceOverhead runs the same
// observe/recommend mix through Server::Execute with the store disabled
// (arg 0), enabled with 1-in-16 request thinning (arg 1), and enabled
// recording every request (arg 2). The acceptance bar — <= 2% overhead
// for the thinning configuration — is read from the *Paired benches
// below, which resolve the few-ns delta that separate mode-vs-mode runs
// bury in run-to-run drift; each paired toggle is Disable() /
// Enable(4096, 16), so the traced side also pays for refilling the
// store's slowest-per-kind tables after every Enable. BM_FlightRecorderRecord
// isolates the raw cost of a request the store keeps (RecordRequest on
// the cadence), and BM_FlightRecorderContended measures it under 8
// recording threads sharing the store's one mutex.

#include <benchmark/benchmark.h>
#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"

namespace upskill {
namespace obs {
namespace {

constexpr int kNumItems = 500;

// Trained serving model shared by every benchmark in this binary.
std::shared_ptr<const serve::ServingModel> BenchServingModel() {
  static const std::shared_ptr<const serve::ServingModel> model = [] {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 200;
    data_config.num_items = kNumItems;
    data_config.mean_sequence_length = 30.0;
    data_config.seed = 20260808;
    auto data = datagen::GenerateSynthetic(data_config);
    const Dataset& dataset = data.value().dataset;
    SkillModelConfig config;
    config.num_levels = 5;
    config.min_init_actions = 15;
    config.max_iterations = 6;
    auto trained = Trainer(config).Train(dataset);
    const SkillAssignments assignments =
        AssignSkills(dataset, trained.value().model);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset.items(), trained.value().model, DifficultyPrior::kEmpirical,
        assignments);
    auto snapshot = serve::MakeSnapshot(trained.value().model, dataset.items(),
                                        difficulty.value());
    return serve::ServingModel::FromSnapshot(snapshot.value()).value();
  }();
  return model;
}

// The request mix of the serve-throughput bar: 90% observe, 10%
// recommend, over a rotating set of users. Observes carry no timestamp
// on purpose: the benches replay this fixed batch for thousands of
// laps against persistent sessions, and explicit times would go
// backwards on lap 2 and turn 90% of the traffic into errors — which
// the recorder admits unconditionally (tail sampling), silently
// benchmarking the error slow path instead of the steady state. With
// no timestamp the session carries its own time forward and every lap
// is the non-error hot path.
std::vector<serve::ServeRequest> BenchRequests(size_t count) {
  std::vector<serve::ServeRequest> requests;
  requests.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::ServeRequest request;
    if (i % 10 == 9) {
      request.kind = serve::ServeRequest::Kind::kRecommend;
      request.top_k = 5;
    } else {
      request.kind = serve::ServeRequest::Kind::kObserve;
      request.item = static_cast<ItemId>(i % kNumItems);
    }
    request.user = "bench_user_" + std::to_string(i % 64);
    requests.push_back(request);
  }
  return requests;
}

// Arg 0: store disabled. Arg 1: enabled, sample_every=16 (the serve
// CLI default). Arg 2: enabled, recording every request.
void BM_RequestTraceOverhead(benchmark::State& state) {
  const auto serving = BenchServingModel();
  serve::Server server(serving);
  TraceRecorder& recorder = TraceRecorder::Global();
  if (state.range(0) > 0) {
    recorder.Enable(4096, state.range(0) == 1 ? 16 : 1);
  } else {
    recorder.Disable();
  }
  const std::vector<serve::ServeRequest> requests = BenchRequests(1024);
  size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Execute(requests[index]));
    index = (index + 1) & 1023;
  }
  state.SetItemsProcessed(state.iterations());
  if (recorder.enabled()) {
    const TraceStats stats = recorder.Stats();
    state.counters["recorded"] = static_cast<double>(stats.recorded);
    state.counters["sampled_out"] = static_cast<double>(stats.sampled_out);
  }
  recorder.Disable();
}
// Repetitions with median reporting: the per-request delta being
// measured (a few ns on a sub-microsecond request) is below
// single-run noise.
BENCHMARK(BM_RequestTraceOverhead)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("mode")
    ->Repetitions(9)
    ->ReportAggregatesOnly(true);

// Paired-difference measurement of the same overhead. Separate
// mode-vs-mode runs (above) put minutes between the two sides, so
// thermal/frequency drift (~10% run-to-run on a shared box) swamps the
// tens-of-ns delta, and even two server objects in one binary disagree
// by a couple of percent from heap-placement luck. So: ONE server, with
// the store enabled and disabled between batches, in the palindromic
// order off,on,on,off per iteration — identical code, identical heap
// state, and linear drift cancels exactly in the off/on sums.
// `overhead_pct` is the acceptance-bar readout: the thinned
// (sample_every=16) overhead on the serve hot path.
void BM_RequestTraceOverheadPaired(benchmark::State& state) {
  const auto serving = BenchServingModel();
  serve::Server server(serving);
  TraceRecorder& recorder = TraceRecorder::Global();
  const std::vector<serve::ServeRequest> requests = BenchRequests(1024);
  const auto run = [&requests, &server]() {
    const auto start = std::chrono::steady_clock::now();
    for (const auto& request : requests) {
      benchmark::DoNotOptimize(server.Execute(request));
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  uint64_t errors_retained = 0;
  for (auto _ : state) {
    recorder.Disable();
    plain_ns += static_cast<double>(run());
    recorder.Enable(4096, 16);
    traced_ns += static_cast<double>(run());
    traced_ns += static_cast<double>(run());
    errors_retained += recorder.Stats().errors_retained;
    recorder.Disable();
    plain_ns += static_cast<double>(run());
  }
  state.SetItemsProcessed(state.iterations() * 4 *
                          static_cast<int64_t>(requests.size()));
  const double per_request =
      static_cast<double>(state.iterations()) * 2.0 * requests.size();
  if (per_request > 0) {
    state.counters["plain_ns"] = plain_ns / per_request;
    state.counters["traced_ns"] = traced_ns / per_request;
    state.counters["overhead_pct"] =
        100.0 * (traced_ns - plain_ns) / plain_ns;
  }
  // Errors bypass sampling and take the admitted slow path; any
  // nonzero count here means the bench is measuring the wrong thing.
  state.counters["errors_retained"] = static_cast<double>(errors_retained);
}
// 15 repetitions: each rep constructs a fresh server, and heap/page
// placement moves the measured delta by a point or two; the median
// over many placements is the stable readout.
BENCHMARK(BM_RequestTraceOverheadPaired)
    ->Repetitions(15)
    ->ReportAggregatesOnly(true);

// The same paired enable/disable measurement over the shipped serving
// stack: the epoll TCP front end on a real loopback socket, binary
// protocol, pipelined waves (bench_net's serving setup). This is the
// deployment-relevant overhead number. Pipelining amortizes syscalls
// hard enough that a binary-protocol request costs only ~370ns — it
// skips Execute's response rendering — so the store's few ns per
// request are the tightest point against the ≤2% bar. Toggling the
// store between drained waves is safe: the worker is idle in
// epoll_wait, and the store's settings are atomics or mutex-guarded.
bool RunObsBinaryWave(int fd, const std::string& bytes, size_t responses) {
  size_t sent = 0;
  size_t seen = 0;
  std::string rx;
  size_t rx_off = 0;
  char chunk[256 * 1024];
  while (seen < responses) {
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        sent += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    rx.append(chunk, static_cast<size_t>(n));
    while (rx.size() - rx_off >= net::kFrameHeaderBytes) {
      uint32_t payload = 0;
      std::memcpy(&payload, rx.data() + rx_off + 2, sizeof(payload));
      const size_t frame = net::kFrameHeaderBytes + payload;
      if (rx.size() - rx_off < frame) break;
      rx_off += frame;
      ++seen;
    }
    if (rx_off == rx.size()) {
      rx.clear();
      rx_off = 0;
    }
  }
  return true;
}

void BM_NetTraceOverheadPaired(benchmark::State& state) {
  serve::Server server(BenchServingModel());
  net::NetServerConfig config;
  config.num_workers = 1;
  net::NetServer net(&server, nullptr, config);
  if (!net.Start().ok()) {
    state.SkipWithError("net server failed to start");
    return;
  }
  net::NetClient client;
  if (!client.Connect("127.0.0.1", net.port()).ok()) {
    state.SkipWithError("client connect failed");
    return;
  }
  TraceRecorder& recorder = TraceRecorder::Global();
  const std::vector<serve::ServeRequest> requests = BenchRequests(2048);
  std::string wave;
  for (const auto& request : requests) net::EncodeRequest(request, &wave);
  const auto run = [&]() {
    const auto start = std::chrono::steady_clock::now();
    if (!RunObsBinaryWave(client.fd(), wave, requests.size())) {
      state.SkipWithError("wave failed");
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  };
  run();  // warm-up: creates sessions, faults buffers
  double plain_ns = 0.0;
  double traced_ns = 0.0;
  uint64_t errors_retained = 0;
  for (auto _ : state) {
    recorder.Disable();
    plain_ns += static_cast<double>(run());
    recorder.Enable(4096, 16);
    traced_ns += static_cast<double>(run());
    traced_ns += static_cast<double>(run());
    errors_retained += recorder.Stats().errors_retained;
    recorder.Disable();
    plain_ns += static_cast<double>(run());
  }
  state.SetItemsProcessed(state.iterations() * 4 *
                          static_cast<int64_t>(requests.size()));
  const double per_request =
      static_cast<double>(state.iterations()) * 2.0 * requests.size();
  if (per_request > 0) {
    state.counters["plain_ns"] = plain_ns / per_request;
    state.counters["traced_ns"] = traced_ns / per_request;
    state.counters["overhead_pct"] =
        100.0 * (traced_ns - plain_ns) / plain_ns;
  }
  // Nonzero means the wave replay produced errors and the bench
  // measured the always-admitted error path, not the sampled one.
  state.counters["errors_retained"] = static_cast<double>(errors_retained);
  client.Close();
  net.Stop();
}
BENCHMARK(BM_NetTraceOverheadPaired)
    ->Repetitions(15)
    ->ReportAggregatesOnly(true);

// Raw cost of a request the store keeps: every request is on the
// cadence, so each one materializes its event and takes the mutex.
void BM_FlightRecorderRecord(benchmark::State& state) {
  TraceRecorder recorder;
  recorder.Enable(4096, 1);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::microseconds(3);
  uint64_t seq = 0;
  for (auto _ : state) {
    recorder.RecordRequest(seq++, 0, "serve/observe", start, end, false,
                           false);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlightRecorderRecord);

// The same under 8 concurrent threads, each with its own sequence (as
// the TCP workers have), all sharing the store's one mutex.
void BM_FlightRecorderContended(benchmark::State& state) {
  static TraceRecorder* recorder = nullptr;
  if (state.thread_index() == 0) {
    recorder = new TraceRecorder;
    recorder->Enable(8192, 1);
  }
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::microseconds(3);
  uint64_t seq = 0;
  for (auto _ : state) {
    recorder->RecordRequest(seq++,
                            state.thread_index() % TraceRecorder::kMaxKinds,
                            "serve/observe", start, end, false, false);
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete recorder;
    recorder = nullptr;
  }
}
BENCHMARK(BM_FlightRecorderContended)->Threads(8)->UseRealTime();

}  // namespace
}  // namespace obs
}  // namespace upskill

BENCHMARK_MAIN();
