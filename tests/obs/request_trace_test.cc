// The span store's request path: the ring keeps exactly the last
// `capacity` events however many threads record, tail retention keeps
// errors/sheds and the slowest requests per kind past ring overwrite,
// thinning by the caller's sequence number touches only the ring, the
// Chrome trace carries the request args next to phase spans and renders
// each request id once, and concurrent recorders lose nothing (the TSan
// target for the span store). Also the overflow accounting:
// upskill_trace_dropped_total moves with dropped().

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace upskill {
namespace obs {
namespace {

using Clock = std::chrono::steady_clock;

// Records request `seq` lasting `duration_ns`, starting now; tests read
// the duration back as a tag.
void RecordNs(TraceRecorder& recorder, uint64_t seq, int kind,
              const char* name, int64_t duration_ns, bool error = false,
              bool shed = false) {
  const Clock::time_point start = Clock::now();
  recorder.RecordRequest(seq, kind, name, start,
                         start + std::chrono::nanoseconds(duration_ns), error,
                         shed);
}

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

TEST(NextRequestIdTest, UniqueNonZeroAndMonotoneWithinProcess) {
  std::set<uint64_t> seen;
  uint64_t previous = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = NextRequestId();
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(seen.insert(id).second) << "duplicate id " << id;
    if (previous != 0) {
      EXPECT_GT(id, previous);
    }
    previous = id;
  }
}

TEST(SpanStoreRequestTest, RingKeepsLastKAndDropsOldest) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/4, /*sample_every=*/1);
  for (int i = 0; i < 10; ++i) {
    RecordNs(recorder, i, 0, "serve/observe", /*duration_ns=*/1000 + i);
  }
  const std::vector<TraceEvent> ring = recorder.Events();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest first, and only the last four requests survive.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i].duration_ns, static_cast<int64_t>(1006 + i));
    EXPECT_STREQ(ring[i].name, "serve/observe");
    EXPECT_EQ(ring[i].kind, 0);
    EXPECT_NE(ring[i].request_id, 0u);
  }
  const TraceStats stats = recorder.Stats();
  EXPECT_EQ(stats.capacity, 4u);
  EXPECT_EQ(stats.recorded, 10u);
  EXPECT_EQ(stats.ring_size, 4u);
  EXPECT_EQ(stats.sampled_out, 0u);
  EXPECT_EQ(recorder.dropped(), 6u);
}

// The ring holds `capacity` events at every thread count. The flight
// recorder this store replaced split its ring into 8 stripes chosen by
// thread id, so one recording thread kept capacity/8 events and four
// kept capacity/2.
TEST(SpanStoreRequestTest, RingHoldsCapacityOnEveryThreadCount) {
  constexpr size_t kCapacity = 64;
  constexpr int kPerThread = 200;
  for (const int threads : {1, 4}) {
    TraceRecorder recorder;
    recorder.Enable(kCapacity, /*sample_every=*/1);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&recorder, t] {
        for (int i = 0; i < kPerThread; ++i) {
          RecordNs(recorder, static_cast<uint64_t>(i), 0, "serve/observe",
                   /*duration_ns=*/int64_t{t} * kPerThread + i + 1);
        }
      });
    }
    for (std::thread& worker : workers) worker.join();

    const uint64_t total = static_cast<uint64_t>(threads) * kPerThread;
    const std::vector<TraceEvent> ring = recorder.Events();
    ASSERT_EQ(ring.size(), kCapacity) << "threads=" << threads;
    const TraceStats stats = recorder.Stats();
    EXPECT_EQ(stats.ring_size, kCapacity) << "threads=" << threads;
    EXPECT_EQ(stats.recorded, total);
    EXPECT_EQ(recorder.dropped(), total - kCapacity);
    // Whatever the interleaving, each thread's surviving requests are its
    // newest ones, in order: the ring dropped only the oldest.
    std::vector<std::vector<int>> kept(static_cast<size_t>(threads));
    for (const TraceEvent& event : ring) {
      const int tag = static_cast<int>(event.duration_ns - 1);
      kept[static_cast<size_t>(tag / kPerThread)].push_back(tag % kPerThread);
    }
    for (const std::vector<int>& indices : kept) {
      for (size_t k = 0; k < indices.size(); ++k) {
        EXPECT_EQ(indices[k],
                  kPerThread - static_cast<int>(indices.size()) +
                      static_cast<int>(k))
            << "threads=" << threads;
      }
    }
  }
}

TEST(SpanStoreRequestTest, CapacityAndSampleRateAreAtLeastOne) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/0, /*sample_every=*/0);
  for (int i = 0; i < 8; ++i) RecordNs(recorder, i, 0, "serve/observe", 1);
  EXPECT_EQ(recorder.Events().size(), 1u);
  const TraceStats stats = recorder.Stats();
  EXPECT_EQ(stats.capacity, 1u);
  EXPECT_EQ(stats.recorded, 8u);
  EXPECT_EQ(stats.sampled_out, 0u);
}

TEST(SpanStoreRequestTest, ErrorsAndShedsSurviveRingOverwrite) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/4, /*sample_every=*/1);
  // One error and one shed early, then enough traffic to overwrite the
  // ring many times over.
  RecordNs(recorder, 0, 0, "serve/observe", 1, /*error=*/true);
  RecordNs(recorder, 1, 1, "serve/level", 1, /*error=*/true, /*shed=*/true);
  for (int i = 0; i < 100; ++i) {
    RecordNs(recorder, 2 + i, 0, "serve/observe", 1);
  }

  for (const TraceEvent& event : recorder.Events()) EXPECT_FALSE(event.error);

  // Retained() may list an event once per retention tier; compare ids.
  std::vector<TraceEvent> errors;
  std::set<uint64_t> ids;
  for (const TraceEvent& event : recorder.Retained()) {
    if (event.error && ids.insert(event.request_id).second) {
      errors.push_back(event);
    }
  }
  ASSERT_EQ(errors.size(), 2u);
  EXPECT_FALSE(errors[0].shed);
  EXPECT_STREQ(errors[0].name, "serve/observe");
  EXPECT_TRUE(errors[1].shed);
  EXPECT_STREQ(errors[1].name, "serve/level");

  const TraceStats stats = recorder.Stats();
  EXPECT_EQ(stats.errors_retained, 2u);
  EXPECT_EQ(stats.sheds_retained, 1u);
}

TEST(SpanStoreRequestTest, SlowestPerKindSurvivesAndKeepsTrueMaxima) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/4, /*sample_every=*/1);
  // Durations 1..50us for kind 0, odd ascending then even descending:
  // the slowest table must end up holding exactly the largest ones
  // regardless of arrival order or ring overwrite.
  std::vector<int64_t> order;
  for (int64_t d = 1; d <= 50; d += 2) order.push_back(d);
  for (int64_t d = 50; d >= 2; d -= 2) order.push_back(d);
  uint64_t seq = 0;
  for (const int64_t d : order) {
    RecordNs(recorder, seq++, 0, "serve/recommend", d * 1000);
  }

  std::vector<int64_t> retained_us;
  for (const TraceEvent& event : recorder.Retained()) {
    EXPECT_EQ(event.kind, 0);
    retained_us.push_back(event.duration_ns / 1000);
  }
  std::sort(retained_us.begin(), retained_us.end());
  EXPECT_EQ(retained_us,
            (std::vector<int64_t>{43, 44, 45, 46, 47, 48, 49, 50}));
  EXPECT_EQ(recorder.Stats().slowest_size, TraceRecorder::kSlowestPerKind);

  // A kind index past kMaxKinds still reaches the ring without crashing.
  RecordNs(recorder, seq++, TraceRecorder::kMaxKinds + 3, "serve/unknown",
           1000000);
  EXPECT_STREQ(recorder.Events().back().name, "serve/unknown");
  EXPECT_EQ(recorder.Stats().slowest_size, TraceRecorder::kSlowestPerKind);
}

// The caller's sequence number is the sampling clock: seqs on the
// cadence land in the ring and account for their whole block, so
// Stats().recorded tracks the true request count although thinned
// requests never take the mutex. Tail retention ignores the cadence.
TEST(SpanStoreRequestTest, SampleEveryThinsOnlyTheRing) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/64, /*sample_every=*/4);
  for (uint64_t seq = 0; seq < 40; ++seq) {
    RecordNs(recorder, seq, 0, "serve/observe", 1);
  }
  // One error off the cadence: retained, but not in the ring.
  RecordNs(recorder, 41, 0, "serve/observe", 1, /*error=*/true);

  const TraceStats stats = recorder.Stats();
  // Seqs 0, 4, ..., 36 are cadence events; each accounts for 4 requests.
  EXPECT_EQ(stats.recorded, 40u);
  EXPECT_EQ(stats.ring_size, 10u);
  EXPECT_EQ(stats.sampled_out, 30u);
  EXPECT_EQ(stats.errors_retained, 1u);
  for (const TraceEvent& event : recorder.Events()) EXPECT_FALSE(event.error);
}

// Off-cadence errors and slowest candidates are still admitted — into
// tail retention only, never the ring, so cadence accounting stays
// exact.
TEST(SpanStoreRequestTest, RecordRequestAdmitsTailOffCadence) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/64, /*sample_every=*/8);
  RecordNs(recorder, 1, 0, "serve/observe", 1000, /*error=*/true);
  RecordNs(recorder, 2, 0, "serve/observe", 500000);  // slowest table only
  RecordNs(recorder, 8, 0, "serve/observe", 1000);    // cadence: the ring

  const TraceStats stats = recorder.Stats();
  EXPECT_EQ(stats.errors_retained, 1u);
  EXPECT_EQ(stats.ring_size, 1u);  // only the cadence event
  EXPECT_EQ(stats.recorded, 8u);   // one block accounted
  bool saw_error = false;
  bool saw_slow = false;
  for (const TraceEvent& event : recorder.Retained()) {
    if (event.error) saw_error = true;
    if (event.duration_ns == 500000) saw_slow = true;
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(saw_slow);
}

// One renderer for both kinds of event: a phase span keeps its shard
// arg, request events carry request id, kind, error, shed and retained,
// retained requests the ring lost come first, and a request held by
// both the ring and tail retention renders once, from the ring.
TEST(SpanStoreRequestTest, ChromeTraceCarriesRequestArgsAndRendersEachIdOnce) {
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/2, /*sample_every=*/1);
  RecordNs(recorder, 0, 1, "serve/level", 4000, /*error=*/true,
           /*shed=*/true);
  const Clock::time_point start = Clock::now();
  recorder.Record("exec/shard", start, start + std::chrono::microseconds(1),
                  /*shard=*/3, /*iteration=*/-1);
  RecordNs(recorder, 1, 2, "serve/recommend", 123000);
  // The ring now holds exec/shard and the recommend; the level request
  // lives on in the error ring and its kind's slowest table.

  const std::string json = RenderChromeTrace(recorder);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_EQ(CountOf(json, "\"ph\":\"X\""), 3u);
  const size_t level = json.find("\"name\":\"serve/level\"");
  const size_t shard = json.find("\"name\":\"exec/shard\"");
  const size_t recommend = json.find("\"name\":\"serve/recommend\"");
  ASSERT_NE(level, std::string::npos);
  ASSERT_NE(shard, std::string::npos);
  ASSERT_NE(recommend, std::string::npos);
  EXPECT_LT(level, shard);
  EXPECT_LT(shard, recommend);
  EXPECT_NE(json.find("\"kind\":1,\"error\":true,\"shed\":true,"
                      "\"retained\":true",
                      level),
            std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"shard\":3}", shard), std::string::npos);
  EXPECT_NE(json.find("\"kind\":2,\"error\":false,\"shed\":false,"
                      "\"retained\":false",
                      recommend),
            std::string::npos);
  EXPECT_EQ(CountOf(json, "\"request_id\":"), 2u);
}

// 8 threads recording concurrently: totals are exact, every surviving
// event is intact (no torn name / id), and readers can snapshot
// mid-flight. Doubles as the race detector under UPSKILL_SANITIZE=thread.
TEST(SpanStoreRequestTest, ConcurrentRecordersLoseNothing) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  TraceRecorder recorder;
  recorder.Enable(/*capacity=*/1024, /*sample_every=*/1);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        RecordNs(recorder, static_cast<uint64_t>(i),
                 t % TraceRecorder::kMaxKinds, "serve/observe",
                 /*duration_ns=*/1000 * (1 + i % 7),
                 /*error=*/(i % 997) == 0);
      }
    });
  }
  // Interleaved reads while writers run.
  for (int i = 0; i < 20; ++i) {
    EXPECT_LE(recorder.Stats().recorded,
              static_cast<uint64_t>(kThreads * kPerThread));
    (void)recorder.Events();
    (void)recorder.Retained();
    (void)RenderChromeTrace(recorder);
  }
  for (std::thread& thread : threads) thread.join();

  const TraceStats stats = recorder.Stats();
  EXPECT_EQ(stats.recorded, static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(stats.ring_size, 1024u);
  EXPECT_EQ(stats.errors_retained,
            static_cast<uint64_t>(kThreads * ((kPerThread + 996) / 997)));
  for (const TraceEvent& event : recorder.Events()) {
    EXPECT_STREQ(event.name, "serve/observe");
    EXPECT_NE(event.request_id, 0u);
    EXPECT_GE(event.duration_ns, 1000);
  }
}

// Overflowing the ring keeps the newest spans and bumps both the
// store's own dropped() counter and the exported
// upskill_trace_dropped_total metric by the number overwritten.
TEST(TraceDroppedTest, OverflowCountsDropsInMetricAndRecorder) {
  TraceRecorder& recorder = TraceRecorder::Global();
  Counter& dropped_total =
      MetricsRegistry::Global().GetCounter("upskill_trace_dropped_total");

  recorder.Enable(/*capacity=*/4);
  const uint64_t metric_before = dropped_total.Value();
  for (int i = 0; i < 10; ++i) {
    Span span("obs_test/overflow", /*shard=*/-1, /*iteration=*/i);
  }
  recorder.Disable();

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].iteration, static_cast<int64_t>(6 + i));
  }
  EXPECT_EQ(recorder.dropped(), 6u);
  EXPECT_EQ(dropped_total.Value() - metric_before, 6u);

  // Enable() starts a fresh run: dropped() resets, the cumulative
  // process-level counter does not.
  recorder.Enable();
  recorder.Disable();
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(dropped_total.Value() - metric_before, 6u);
}

}  // namespace
}  // namespace obs
}  // namespace upskill
