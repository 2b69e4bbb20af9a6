#include "exec/backend.h"

#include <algorithm>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace upskill {
namespace exec {

void Backend::Run(int num_shards, const std::function<void(int shard)>& body) {
  // Degenerate plans (an empty mapped store, a default-constructed
  // ShardPlan) must not reach any implementation.
  if (num_shards <= 0) return;
  const bool tracing = obs::TraceRecorder::Global().enabled();
  const bool metrics = obs::MetricsEnabled();
  if (!tracing && !metrics) {
    RunShards(num_shards, body);
    return;
  }
  // Instrumented dispatch: one span per shard (visible as "exec/shard"
  // rows in the Chrome trace) and, from the same clock reads, the
  // slowest-shard/mean ratio plus a per-backend latency histogram. Each
  // shard writes only its own slot, so the timing array needs no
  // synchronization beyond the backend's completion latch. Scheduling is
  // unchanged: the body runs exactly as in the uninstrumented path, so
  // outputs cannot differ.
  std::vector<double> shard_seconds(static_cast<size_t>(num_shards), 0.0);
  RunShards(num_shards, [&](int shard) {
    obs::Span span("exec/shard", shard);
    body(shard);
    shard_seconds[static_cast<size_t>(shard)] = span.StopSeconds();
  });
  if (metrics) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    obs::Histogram& latency = registry.GetHistogram(
        "upskill_exec_shard_seconds",
        std::string("backend=\"") + name() + "\"");
    double slowest = 0.0;
    double total = 0.0;
    for (double seconds : shard_seconds) {
      latency.Observe(seconds);
      slowest = seconds > slowest ? seconds : slowest;
      total += seconds;
    }
    const double mean = total / static_cast<double>(num_shards);
    registry.GetGauge("upskill_exec_shard_imbalance_ratio")
        .Set(mean > 0.0 ? slowest / mean : 1.0);
  }
}

void Backend::RunIndices(size_t begin, size_t end,
                         const std::function<void(size_t index)>& body) {
  if (begin >= end) return;
  RunIndexLoop(begin, end, body);
}

SerialBackend* SerialBackend::Get() {
  static SerialBackend instance;
  return &instance;
}

void SerialBackend::RunShards(int num_shards,
                              const std::function<void(int shard)>& body) {
  for (int shard = 0; shard < num_shards; ++shard) body(shard);
}

void SerialBackend::RunIndexLoop(size_t begin, size_t end,
                                 const std::function<void(size_t index)>& body) {
  for (size_t i = begin; i < end; ++i) body(i);
}

ThreadPoolBackend::ThreadPoolBackend(int num_threads)
    : pool_(std::max(1, num_threads)) {}

void ThreadPoolBackend::RunShards(int num_shards,
                                  const std::function<void(int shard)>& body) {
  // ParallelFor's chunk size collapses to one index per chunk whenever
  // num_shards <= 8 * threads (the common case by construction of
  // ResolveShardCount), so shards are claimed one at a time off the
  // atomic counter — dynamic balancing with a per-call completion latch.
  ParallelFor(&pool_, 0, static_cast<size_t>(num_shards),
              [&body](size_t shard) { body(static_cast<int>(shard)); });
}

void ThreadPoolBackend::RunIndexLoop(
    size_t begin, size_t end, const std::function<void(size_t index)>& body) {
  ParallelFor(&pool_, begin, end, body);
}

Result<std::shared_ptr<Backend>> CreateBackend(const std::string& name,
                                               int num_threads) {
  const bool automatic = name.empty() || name == "auto";
  if (name == "serial" || (automatic && num_threads <= 1)) {
    // The shared stateless singleton; the no-op deleter keeps ownership
    // uniform with the pooled backend.
    return std::shared_ptr<Backend>(SerialBackend::Get(), [](Backend*) {});
  }
  if (name == "pool" || automatic) {
    return std::shared_ptr<Backend>(
        std::make_shared<ThreadPoolBackend>(num_threads));
  }
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (expected serial or pool)");
}

}  // namespace exec
}  // namespace upskill
