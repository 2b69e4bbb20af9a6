#ifndef UPSKILL_OBS_TRACE_H_
#define UPSKILL_OBS_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace upskill {
namespace obs {

/// One completed span: a phase span (trainer phase, shard task) or a
/// served request. `name` must be a string with static storage duration
/// (call sites use literals) so recording never copies or allocates
/// per-character. Times are nanoseconds on the steady clock, relative to
/// the recorder's Enable() epoch.
struct TraceEvent {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t duration_ns = 0;
  /// Dense process-local thread id (0 = first thread that recorded).
  int thread = 0;
  /// Shard index for shard-scoped spans, -1 otherwise.
  int shard = -1;
  /// Training iteration for trainer-phase spans, -1 otherwise.
  int64_t iteration = -1;
  /// Request events only: the process-unique id (NextRequestId), which
  /// is 0 for phase spans, the request kind index, and the outcome.
  uint64_t request_id = 0;
  int kind = -1;
  bool error = false;
  bool shed = false;
};

/// Dense small id for the calling thread, assigned on first use. Shared
/// with nothing else; used so trace rows group by worker rather than by
/// an opaque pthread handle.
inline int CurrentThreadId() {
  static std::atomic<int> next_thread_id{0};
  thread_local const int id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// Process-unique request id: the high 16 bits derive from the process
/// epoch so ids from successive runs of the same binary don't collide in
/// aggregated traces, the low 48 bits are a monotone counter. Never zero.
uint64_t NextRequestId();

/// Point-in-time occupancy for /statusz.
struct TraceStats {
  size_t capacity = 0;        ///< ring capacity set by Enable
  /// Requests offered through RecordRequest, thinned ones included.
  uint64_t recorded = 0;
  uint64_t sampled_out = 0;   ///< requests thinned out of the ring
  uint64_t errors_retained = 0;
  uint64_t sheds_retained = 0;
  size_t ring_size = 0;       ///< events (phase and request) in the ring
  size_t slowest_size = 0;    ///< events in the slowest-per-kind tables
};

/// The process's one span store. A ring keeps the last `capacity`
/// admitted events, phase spans and requests alike; request events also
/// get tail retention that survives ring overwrite: a ring of the last
/// kErrorCapacity errors and sheds, and the kSlowestPerKind slowest
/// requests of each kind. One mutex guards all of it, so the ring is
/// exact however many threads record. (Striping the ring by a shared
/// admission ticket measured slower for one writer and only ~20% faster
/// for eight: the ticket counter is itself a shared cache line.) Memory
/// grows with use up to the largest capacity enabled; nothing is
/// allocated before Enable.
///
/// Disabled by default, and every call site checks enabled() — one
/// relaxed load — before it reads the clock. Observation-only: nothing
/// here is read back by training or serving, so outputs are bitwise
/// identical with the store on or off (tests/obs/determinism_test.cc).
class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = size_t{1} << 20;
  static constexpr size_t kErrorCapacity = 256;
  static constexpr size_t kSlowestPerKind = 8;
  /// Kinds at or above this index get no slowest table. Serve has 9.
  static constexpr int kMaxKinds = 16;

  TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Process-wide store used by obs::Span and the serve front ends.
  static TraceRecorder& Global();

  /// Clears previous events, stamps the epoch, starts recording. The
  /// ring keeps the last `capacity` events (at least 1); requests are
  /// thinned to one in `sample_every` (at least 1).
  void Enable(size_t capacity = kDefaultCapacity, uint64_t sample_every = 1);
  /// Stops recording; collected events remain readable.
  void Disable();
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a phase span. Never thinned.
  void Record(const char* name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end, int shard,
              int64_t iteration);

  /// Records a completed request. `seq` is the caller's request sequence
  /// number and the sampling clock: a request whose `seq` is a multiple
  /// of sample_every goes to the ring and accounts for its whole block in
  /// Stats().recorded. Errors, sheds and slowest-table candidates are
  /// always admitted; off the cadence they go to tail retention only.
  ///
  /// Inline on purpose: the steady state under thinning — no error or
  /// shed, under the kind's slowest-table floor, off the cadence —
  /// returns right here after a mask test and two relaxed loads, without
  /// materializing the event or taking the mutex.
  void RecordRequest(uint64_t seq, int kind, const char* name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end, bool error,
                     bool shed) {
    const int64_t duration_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count();
    // The floor is -1 until the kind's table fills, so every request is
    // a candidate while it fills; a stale floor only admits more.
    const bool slow_candidate =
        kind >= 0 && kind < kMaxKinds &&
        duration_ns > floor_ns_[kind].load(std::memory_order_relaxed);
    const uint64_t every = sample_every_.load(std::memory_order_relaxed);
    const bool cadence = (every & (every - 1)) == 0
                             ? (seq & (every - 1)) == 0
                             : seq % every == 0;
    if (!cadence && !error && !shed && !slow_candidate) return;
    AdmitRequest(cadence, kind, name, start, duration_ns, error, shed,
                 slow_candidate);
  }

  /// The ring's events, oldest first.
  std::vector<TraceEvent> Events() const;
  /// Tail-retained request events — the error/shed ring and the
  /// slowest-per-kind tables — chronological by start time. An event can
  /// also be in the ring, or in both retention tiers.
  std::vector<TraceEvent> Retained() const;
  TraceStats Stats() const;
  /// Events the ring overwrote since Enable. Also exported as the
  /// `upskill_trace_dropped_total` counter.
  uint64_t dropped() const;

 private:
  /// One fixed-capacity ring: grows by push_back, then overwrites the
  /// oldest slot.
  struct Ring {
    std::vector<TraceEvent> events;
    uint64_t head = 0;  // events ever pushed
    /// Returns true when the push overwrote an older event.
    bool Push(const TraceEvent& event, size_t capacity);
    std::vector<TraceEvent> Ordered() const;  // oldest first
  };

  /// Everything Enable resets, guarded by mutex_.
  struct State {
    size_t capacity = kDefaultCapacity;
    std::chrono::steady_clock::time_point epoch{};
    Ring ring;
    Ring errors;  // errors and sheds, kErrorCapacity
    std::array<std::vector<TraceEvent>, kMaxKinds> slowest;
    uint64_t offered = 0;  // requests, cadence blocks included
    uint64_t kept = 0;     // requests the cadence put in the ring
    uint64_t errors_retained = 0;
    uint64_t sheds_retained = 0;
    /// Empties the store but keeps its buffers: re-enabling then
    /// allocates nothing, which the paired benches' toggling measures.
    void Clear();
  };

  /// RecordRequest's continuation for every admitted request.
  void AdmitRequest(bool cadence, int kind, const char* name,
                    std::chrono::steady_clock::time_point start,
                    int64_t duration_ns, bool error, bool shed,
                    bool slow_candidate);
  void PushLocked(const TraceEvent& event);
  void InsertSlowestLocked(const TraceEvent& event);

  // The request fast path reads these lock-free; Enable and the slowest
  // tables write them under mutex_.
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> sample_every_{1};
  /// Per-kind slowest-table admission floor in ns: the table's shortest
  /// duration once full, -1 until then.
  std::array<std::atomic<int64_t>, kMaxKinds> floor_ns_;

  mutable std::mutex mutex_;
  State state_;  // guarded by mutex_
};

/// RAII phase span. Always measures (two steady-clock reads bracketing
/// the scope) and hands the elapsed seconds back through StopSeconds(),
/// so instrumented code can feed latency histograms and the trainer's
/// seconds readouts from the same clock reads; the trace event itself is
/// only recorded when the global recorder is enabled.
class Span {
 public:
  explicit Span(const char* name, int shard = -1, int64_t iteration = -1)
      : name_(name),
        shard_(shard),
        iteration_(iteration),
        start_(std::chrono::steady_clock::now()) {}

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() {
    if (!stopped_) StopSeconds();
  }

  /// Ends the span (records it if tracing is enabled) and returns the
  /// elapsed seconds. Idempotent: later calls return the first elapsed.
  double StopSeconds();

 private:
  const char* name_;
  int shard_;
  int64_t iteration_;
  std::chrono::steady_clock::time_point start_;
  bool stopped_ = false;
  double elapsed_seconds_ = 0.0;
};

/// Chrome about://tracing JSON for the recorder: one complete ("ph":"X")
/// event per span, microsecond timestamps, thread ids as tids. Phase
/// spans carry shard/iteration in args; request events carry request id,
/// kind, error, shed and `retained`. Tail-retained requests the ring no
/// longer holds come first with retained=true, each id once; then the
/// ring, oldest first. Load via chrome://tracing or Perfetto; also the
/// /tracez payload.
std::string RenderChromeTrace(const TraceRecorder& recorder);

}  // namespace obs
}  // namespace upskill

#endif  // UPSKILL_OBS_TRACE_H_
