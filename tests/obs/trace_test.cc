// TraceRecorder + Span, phase spans: spans only record while the store
// is enabled, events carry the shard/iteration tags, the Chrome-trace
// JSON is well formed (and empty for a store never enabled), and a real
// training run emits one span per trainer phase per iteration (the
// contract behind `train --trace-out`). Request events are covered by
// request_trace_test.cc.

#include "obs/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "obs/metrics.h"

namespace upskill {
namespace obs {
namespace {

// Every test in this binary shares the global recorder; leave it disabled
// and empty on exit.
class RecorderGuard {
 public:
  ~RecorderGuard() { TraceRecorder::Global().Disable(); }
};

size_t CountSpans(const std::vector<TraceEvent>& events, const char* name) {
  size_t count = 0;
  for (const TraceEvent& event : events) {
    if (std::string(event.name) == name) ++count;
  }
  return count;
}

TEST(TraceRecorderTest, DisabledRecorderCollectsNothing) {
  RecorderGuard guard;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Disable();
  { Span span("obs_test/ignored"); }
  EXPECT_TRUE(recorder.Events().empty());
}

TEST(TraceRecorderTest, SpanRecordsNameTagsAndNonNegativeTimes) {
  RecorderGuard guard;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  {
    Span span("obs_test/phase", /*shard=*/3, /*iteration=*/7);
    const double first = span.StopSeconds();
    EXPECT_GE(first, 0.0);
    // Idempotent: a second stop neither re-records nor re-times.
    EXPECT_EQ(span.StopSeconds(), first);
  }
  { Span span("obs_test/untagged"); }
  { Span span("obs_test/shard", /*shard=*/5); }
  recorder.Disable();

  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "obs_test/phase");
  EXPECT_EQ(events[0].shard, 3);
  EXPECT_EQ(events[0].iteration, 7);
  EXPECT_GE(events[0].start_ns, 0);
  EXPECT_GE(events[0].duration_ns, 0);
  EXPECT_GE(events[0].thread, 0);
  EXPECT_EQ(events[0].request_id, 0u);  // a phase span, not a request
  EXPECT_STREQ(events[1].name, "obs_test/untagged");
  EXPECT_EQ(events[1].shard, -1);
  EXPECT_EQ(events[2].shard, 5);
}

TEST(TraceRecorderTest, EnableClearsPreviousEvents) {
  RecorderGuard guard;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  { Span span("obs_test/old"); }
  recorder.Enable();  // restart: previous run's spans are gone
  { Span span("obs_test/new"); }
  recorder.Disable();
  const std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "obs_test/new");
}

TEST(TraceRecorderTest, ThreadsGetDistinctDenseIds) {
  const int here = CurrentThreadId();
  EXPECT_GE(here, 0);
  int other = -1;
  std::thread thread([&other] { other = CurrentThreadId(); });
  thread.join();
  EXPECT_GE(other, 0);
  EXPECT_NE(here, other);
  // Stable per thread.
  EXPECT_EQ(CurrentThreadId(), here);
}

TEST(ChromeTraceTest, StoreNeverEnabledRendersEmptyTrace) {
  const TraceRecorder recorder;
  EXPECT_EQ(RenderChromeTrace(recorder), "{\"traceEvents\":[]}\n");
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(ChromeTraceTest, RendersCompleteEventsWithArgs) {
  RecorderGuard guard;
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  { Span span("obs_test/render", /*shard=*/2, /*iteration=*/4); }
  recorder.Disable();
  const std::string json = RenderChromeTrace(recorder);
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"obs_test/render\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos);
  EXPECT_NE(json.find("\"iteration\":4"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

// The tentpole contract: a training run under an enabled recorder emits
// one "train/<phase>" span per iteration (update may be skipped on the
// final, converged iteration — that is the trainer's long-standing
// control flow) plus exactly one init span.
TEST(ChromeTraceTest, TrainingEmitsPhaseSpansPerIteration) {
  RecorderGuard guard;
  datagen::SyntheticConfig data_config;
  data_config.num_users = 60;
  data_config.num_items = 80;
  data_config.mean_sequence_length = 15.0;
  data_config.seed = 20260807;
  const auto data = datagen::GenerateSynthetic(data_config);
  ASSERT_TRUE(data.ok());

  SkillModelConfig config;
  config.num_levels = 3;
  config.max_iterations = 5;
  config.min_init_actions = 5;

  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Enable();
  const auto result = Trainer(config).Train(data.value().dataset);
  recorder.Disable();
  ASSERT_TRUE(result.ok());
  const size_t iterations = static_cast<size_t>(result.value().iterations);
  ASSERT_GE(iterations, 1u);

  const std::vector<TraceEvent> events = recorder.Events();
  EXPECT_EQ(CountSpans(events, "train/init"), 1u);
  EXPECT_EQ(CountSpans(events, "train/cache"), iterations);
  EXPECT_EQ(CountSpans(events, "train/assignment"), iterations);
  const size_t updates = CountSpans(events, "train/update");
  EXPECT_GE(updates, iterations - 1);
  EXPECT_LE(updates, iterations);
  // Phase spans are iteration-tagged so the trace groups cleanly.
  for (const TraceEvent& event : events) {
    if (std::string(event.name) == "train/cache") {
      EXPECT_GE(event.iteration, 0);
      EXPECT_LT(event.iteration, static_cast<int64_t>(iterations));
    }
  }
}

}  // namespace
}  // namespace obs
}  // namespace upskill
