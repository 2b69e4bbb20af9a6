#include "obs/trace.h"

#include <algorithm>
#include <unordered_set>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace upskill {
namespace obs {

namespace {

// Registered once so the metric appears in scrapes (at zero) before the
// first drop ever happens.
Counter& TraceDroppedCounter() {
  static Counter* counter =
      &MetricsRegistry::Global().GetCounter("upskill_trace_dropped_total");
  return *counter;
}

uint64_t ProcessEpochBits() {
  // Captured once per process; seconds-granularity wall time is enough
  // to keep ids from successive runs distinct.
  static const uint64_t bits = [] {
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const uint64_t seconds =
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::seconds>(now).count());
    return (seconds & 0xFFFFu) << 48;
  }();
  return bits;
}

bool ByStart(const TraceEvent& a, const TraceEvent& b) {
  return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                  : a.request_id < b.request_id;
}

}  // namespace

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{0};
  const uint64_t low =
      (next.fetch_add(1, std::memory_order_relaxed) + 1) & 0xFFFFFFFFFFFFull;
  return ProcessEpochBits() | low;
}

bool TraceRecorder::Ring::Push(const TraceEvent& event, size_t capacity) {
  const bool overwrite = events.size() >= capacity;
  if (overwrite) {
    events[head % capacity] = event;
  } else {
    events.push_back(event);
  }
  ++head;
  return overwrite;
}

std::vector<TraceEvent> TraceRecorder::Ring::Ordered() const {
  // Until the first overwrite the slots are in push order; after it the
  // oldest event sits at head % size.
  std::vector<TraceEvent> out;
  out.reserve(events.size());
  const size_t oldest = events.empty() ? 0 : head % events.size();
  out.insert(out.end(), events.begin() + oldest, events.end());
  out.insert(out.end(), events.begin(), events.begin() + oldest);
  return out;
}

void TraceRecorder::State::Clear() {
  ring.events.clear();
  ring.head = 0;
  errors.events.clear();
  errors.head = 0;
  for (std::vector<TraceEvent>& rows : slowest) rows.clear();
  offered = kept = errors_retained = sheds_retained = 0;
}

TraceRecorder::TraceRecorder() {
  for (auto& floor : floor_ns_) floor.store(-1, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::Global() {
  // Leaked on purpose, like the metrics registry: span destructors in
  // static-teardown paths must find a live recorder.
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

void TraceRecorder::Enable(size_t capacity, uint64_t sample_every) {
  std::lock_guard<std::mutex> lock(mutex_);
  state_.Clear();
  state_.capacity = std::max<size_t>(capacity, 1);
  state_.epoch = std::chrono::steady_clock::now();
  sample_every_.store(std::max<uint64_t>(sample_every, 1),
                      std::memory_order_relaxed);
  for (auto& floor : floor_ns_) floor.store(-1, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::Disable() {
  enabled_.store(false, std::memory_order_relaxed);
}

void TraceRecorder::PushLocked(const TraceEvent& event) {
  if (state_.ring.Push(event, state_.capacity)) {
    TraceDroppedCounter().Increment();
  }
}

void TraceRecorder::Record(const char* name,
                           std::chrono::steady_clock::time_point start,
                           std::chrono::steady_clock::time_point end,
                           int shard, int64_t iteration) {
  TraceEvent event;
  event.name = name;
  event.duration_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count();
  event.thread = CurrentThreadId();
  event.shard = shard;
  event.iteration = iteration;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  event.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start - state_.epoch)
                       .count();
  PushLocked(event);
}

void TraceRecorder::AdmitRequest(bool cadence, int kind, const char* name,
                                 std::chrono::steady_clock::time_point start,
                                 int64_t duration_ns, bool error, bool shed,
                                 bool slow_candidate) {
  TraceEvent event;
  event.name = name;
  event.duration_ns = duration_ns;
  event.thread = CurrentThreadId();
  event.request_id = NextRequestId();
  event.kind = kind;
  event.error = error;
  event.shed = shed;
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_.load(std::memory_order_relaxed)) return;
  event.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       start - state_.epoch)
                       .count();
  // Errors and sheds survive ring overwrite and thinning.
  if (error || shed) {
    state_.errors.Push(event, kErrorCapacity);
    if (error) ++state_.errors_retained;
    if (shed) ++state_.sheds_retained;
  }
  if (slow_candidate) InsertSlowestLocked(event);
  // The cadence event stands for its whole sampling block, so `offered`
  // counts every request although thinned ones never reach this point.
  if (cadence) {
    state_.offered += sample_every_.load(std::memory_order_relaxed);
    ++state_.kept;
    PushLocked(event);
  }
}

void TraceRecorder::InsertSlowestLocked(const TraceEvent& event) {
  std::vector<TraceEvent>& rows = state_.slowest[event.kind];
  if (rows.size() < kSlowestPerKind) {
    rows.push_back(event);
  } else {
    // Re-checked against the rows: a stale lock-free floor costs a lock
    // acquisition, never a wrong insert.
    auto fastest = std::min_element(
        rows.begin(), rows.end(), [](const TraceEvent& a, const TraceEvent& b) {
          return a.duration_ns < b.duration_ns;
        });
    if (event.duration_ns <= fastest->duration_ns) return;
    *fastest = event;
  }
  if (rows.size() == kSlowestPerKind) {
    int64_t floor = rows[0].duration_ns;
    for (const TraceEvent& row : rows) floor = std::min(floor, row.duration_ns);
    floor_ns_[event.kind].store(floor, std::memory_order_relaxed);
  }
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.ring.Ordered();
}

std::vector<TraceEvent> TraceRecorder::Retained() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = state_.errors.events;
    for (const std::vector<TraceEvent>& rows : state_.slowest) {
      out.insert(out.end(), rows.begin(), rows.end());
    }
  }
  std::sort(out.begin(), out.end(), ByStart);
  return out;
}

TraceStats TraceRecorder::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  TraceStats stats;
  stats.capacity = state_.capacity;
  stats.recorded = state_.offered;
  stats.sampled_out = state_.offered - state_.kept;
  stats.errors_retained = state_.errors_retained;
  stats.sheds_retained = state_.sheds_retained;
  stats.ring_size = state_.ring.events.size();
  for (const std::vector<TraceEvent>& rows : state_.slowest) {
    stats.slowest_size += rows.size();
  }
  return stats;
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_.ring.head - state_.ring.events.size();
}

double Span::StopSeconds() {
  if (stopped_) return elapsed_seconds_;
  stopped_ = true;
  const auto end = std::chrono::steady_clock::now();
  elapsed_seconds_ =
      std::chrono::duration<double>(end - start_).count();
  TraceRecorder& recorder = TraceRecorder::Global();
  if (recorder.enabled()) {
    recorder.Record(name_, start_, end, shard_, iteration_);
  }
  return elapsed_seconds_;
}

std::string RenderChromeTrace(const TraceRecorder& recorder) {
  const std::vector<TraceEvent> ring = recorder.Events();
  const std::vector<TraceEvent> retained = recorder.Retained();
  // A request the ring still holds renders once, from the ring.
  std::unordered_set<uint64_t> seen;
  for (const TraceEvent& event : ring) {
    if (event.request_id != 0) seen.insert(event.request_id);
  }
  std::string out;
  out.reserve((ring.size() + retained.size()) * 128 + 64);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto append = [&](const TraceEvent& event, bool is_retained) {
    if (!first) out += ',';
    first = false;
    out += StringPrintf(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f",
        event.name, event.thread,
        static_cast<double>(event.start_ns) / 1e3,
        static_cast<double>(event.duration_ns) / 1e3);
    if (event.request_id != 0) {
      out += StringPrintf(
          ",\"args\":{\"request_id\":%llu,\"kind\":%d,\"error\":%s,"
          "\"shed\":%s,\"retained\":%s}",
          static_cast<unsigned long long>(event.request_id), event.kind,
          event.error ? "true" : "false", event.shed ? "true" : "false",
          is_retained ? "true" : "false");
    } else if (event.shard >= 0 || event.iteration >= 0) {
      out += ",\"args\":{";
      if (event.shard >= 0) out += StringPrintf("\"shard\":%d", event.shard);
      if (event.iteration >= 0) {
        if (event.shard >= 0) out += ',';
        out += StringPrintf("\"iteration\":%lld",
                            static_cast<long long>(event.iteration));
      }
      out += '}';
    }
    out += '}';
  };
  for (const TraceEvent& event : retained) {
    if (seen.insert(event.request_id).second) append(event, true);
  }
  for (const TraceEvent& event : ring) append(event, false);
  out += "]}\n";
  return out;
}

}  // namespace obs
}  // namespace upskill
