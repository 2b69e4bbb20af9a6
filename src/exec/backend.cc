#include "exec/backend.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace upskill {
namespace exec {

namespace {

// Queue telemetry: the queue depth after every push/pop and the
// enqueue->start wait of every worker share. Shared by every backend in
// the process (the gauge is a last-write-wins observation; the histogram
// aggregates). Registered lazily so the registry exists before first use.
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().GetGauge(
      "upskill_threadpool_queue_depth");
  return gauge;
}

obs::Histogram& TaskWaitHistogram() {
  static obs::Histogram& histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "upskill_threadpool_task_wait_seconds");
  return histogram;
}

}  // namespace

// Shared state of one RunIndices call. Queue entries hold it by
// shared_ptr: a worker that picks its share up after the loop completed
// finds the range exhausted and returns without touching the body, so the
// caller may return (and destroy what the body references) as soon as
// every *chunk* — not every share — has finished.
struct Backend::Loop {
  const std::function<void(size_t)>* body = nullptr;
  size_t end = 0;
  size_t chunk_size = 1;
  size_t total_chunks = 0;
  std::atomic<size_t> next{0};
  std::atomic<size_t> completed{0};
  std::mutex mutex;
  std::condition_variable all_chunks_done;
  // Set when metrics were on at enqueue time.
  bool timed = false;
  std::chrono::steady_clock::time_point enqueued;

  // Grabs chunks off the shared counter until the range is exhausted.
  void RunChunks() {
    size_t done = 0;
    while (true) {
      const size_t chunk_begin =
          next.fetch_add(chunk_size, std::memory_order_relaxed);
      if (chunk_begin >= end) break;
      const size_t chunk_end = std::min(end, chunk_begin + chunk_size);
      for (size_t i = chunk_begin; i < chunk_end; ++i) (*body)(i);
      ++done;
    }
    if (done == 0) return;
    // Release pairs with the caller's acquire load, publishing the body's
    // writes before the caller can observe completion.
    const size_t finished =
        completed.fetch_add(done, std::memory_order_acq_rel) + done;
    if (finished == total_chunks) {
      // Taking the mutex orders the notify after the caller enters its
      // wait, so the wakeup cannot be lost.
      std::lock_guard<std::mutex> lock(mutex);
      all_chunks_done.notify_all();
    }
  }
};

Backend::Backend(int num_workers) {
  const int count = std::max(0, num_workers);
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Backend::~Backend() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

Backend* Backend::Serial() {
  static Backend serial(0);
  return &serial;
}

void Backend::WorkerLoop() {
  while (true) {
    std::shared_ptr<Loop> loop;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(
          lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutting down
      loop = std::move(queue_.front());
      queue_.pop_front();
      if (obs::MetricsEnabled()) {
        QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      }
    }
    if (loop->timed) {
      TaskWaitHistogram().Observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        loop->enqueued)
              .count());
    }
    loop->RunChunks();
  }
}

void Backend::Run(int num_shards, const std::function<void(int shard)>& body) {
  // Degenerate plans (an empty mapped store, a default-constructed
  // ShardPlan) dispatch nothing.
  if (num_shards <= 0) return;
  const size_t shards = static_cast<size_t>(num_shards);
  const bool tracing = obs::TraceRecorder::Global().enabled();
  const bool metrics = obs::MetricsEnabled();
  if (!tracing && !metrics) {
    RunIndices(0, shards,
               [&body](size_t shard) { body(static_cast<int>(shard)); });
    return;
  }
  // Instrumented dispatch: one span per shard (visible as "exec/shard"
  // rows in the Chrome trace) and, from the same clock reads, the
  // slowest-shard/mean ratio plus a per-backend latency histogram. Each
  // shard writes only its own slot, so the timing array needs no
  // synchronization beyond the loop's completion latch. Scheduling is
  // unchanged: the body runs exactly as in the uninstrumented path, so
  // outputs cannot differ.
  std::vector<double> shard_seconds(shards, 0.0);
  RunIndices(0, shards, [&](size_t shard) {
    obs::Span span("exec/shard", static_cast<int>(shard));
    body(static_cast<int>(shard));
    shard_seconds[shard] = span.StopSeconds();
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
  const size_t count = end - begin;
  const size_t workers = workers_.size();
  if (workers <= 1 || count == 1) {
    for (size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // ~8 chunks per worker keeps skewed per-chunk costs balanced while the
  // one atomic fetch_add per chunk stays amortized. With a shard count at
  // most 8 * workers (the common case by construction of
  // ResolveShardCount), shards are claimed one at a time.
  const size_t chunk = std::max<size_t>(1, count / (workers * 8));
  auto loop = std::make_shared<Loop>();
  loop->body = &body;
  loop->end = end;
  loop->chunk_size = chunk;
  loop->total_chunks = (count + chunk - 1) / chunk;
  loop->next.store(begin, std::memory_order_relaxed);
  if (obs::MetricsEnabled()) {
    loop->timed = true;
    loop->enqueued = std::chrono::steady_clock::now();
  }
  // The caller takes one share itself, so a nested loop makes progress
  // even when every worker is occupied.
  const size_t shares = std::min(workers, loop->total_chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.insert(queue_.end(), shares, loop);
    if (loop->timed) {
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    }
  }
  for (size_t t = 0; t < shares; ++t) work_available_.notify_one();
  loop->RunChunks();
  std::unique_lock<std::mutex> lock(loop->mutex);
  loop->all_chunks_done.wait(lock, [&loop] {
    return loop->completed.load(std::memory_order_acquire) ==
           loop->total_chunks;
  });
}

Result<std::shared_ptr<Backend>> CreateBackend(const std::string& name,
                                               int num_threads) {
  const bool automatic = name.empty() || name == "auto";
  if (name == "serial" || (automatic && num_threads <= 1)) {
    // The shared serial backend; the no-op deleter keeps ownership
    // uniform with a pool.
    return std::shared_ptr<Backend>(Backend::Serial(), [](Backend*) {});
  }
  if (name == "pool" || automatic) {
    return std::make_shared<Backend>(std::max(1, num_threads));
  }
  return Status::InvalidArgument("unknown backend '" + name +
                                 "' (expected serial or pool)");
}

}  // namespace exec
}  // namespace upskill
