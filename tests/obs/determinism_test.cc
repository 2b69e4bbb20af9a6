// Telemetry must be observation-only: training with metrics and tracing
// enabled produces bitwise-identical models, assignments, and objectives
// to training with both disabled, including under a multi-threaded pool.
// Runs under UPSKILL_SANITIZE=thread as a race detector for the
// instrumented Backend::Run paths.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/difficulty.h"
#include "core/online_trainer.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"

namespace upskill {
namespace {

datagen::GeneratedData MakeData() {
  datagen::SyntheticConfig config;
  config.num_users = 100;
  config.num_items = 90;
  config.mean_sequence_length = 18.0;
  config.seed = 20260808;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

SkillModelConfig MakeConfig(int threads) {
  SkillModelConfig config;
  config.num_levels = 4;
  config.max_iterations = 6;
  config.min_init_actions = 8;
  config.parallel.num_threads = threads;
  config.parallel.users = threads > 1;
  config.parallel.levels = threads > 1;
  config.parallel.features = threads > 1;
  return config;
}

// Every component's parameter vector, in (feature, level) order; bitwise
// equality of these vectors means the fitted model is bitwise identical.
std::vector<std::vector<double>> ModelParams(const SkillModel& model) {
  std::vector<std::vector<double>> params;
  for (int f = 0; f < model.num_features(); ++f) {
    for (int s = 1; s <= model.num_levels(); ++s) {
      params.push_back(model.component(f, s).Parameters());
    }
  }
  return params;
}

TEST(ObsDeterminismTest, MetricsAndTracingDoNotPerturbTraining) {
  const datagen::GeneratedData data = MakeData();
  for (const int threads : {1, 8}) {
    const SkillModelConfig config = MakeConfig(threads);

    // Baseline: all telemetry off.
    obs::SetMetricsEnabled(false);
    obs::TraceRecorder::Global().Disable();
    const auto baseline = Trainer(config).Train(data.dataset);
    ASSERT_TRUE(baseline.ok());

    // Instrumented: metrics on, recorder capturing every span.
    obs::SetMetricsEnabled(true);
    obs::TraceRecorder::Global().Enable();
    const auto instrumented = Trainer(config).Train(data.dataset);
    obs::TraceRecorder::Global().Disable();
    ASSERT_TRUE(instrumented.ok());
    EXPECT_FALSE(obs::TraceRecorder::Global().Events().empty());

    EXPECT_EQ(baseline.value().iterations, instrumented.value().iterations)
        << "threads=" << threads;
    // Bitwise, not approximate: telemetry may not reorder a single
    // floating-point operation.
    EXPECT_EQ(baseline.value().final_log_likelihood,
              instrumented.value().final_log_likelihood)
        << "threads=" << threads;
    EXPECT_EQ(ModelParams(baseline.value().model),
              ModelParams(instrumented.value().model))
        << "threads=" << threads;
    EXPECT_EQ(baseline.value().assignments, instrumented.value().assignments)
        << "threads=" << threads;
  }
}

// The phase-seconds readout (TrainResult) must stay populated whether or
// not the registry is recording: the Span clock runs regardless.
TEST(ObsDeterminismTest, PhaseSecondsPopulatedWithMetricsDisabled) {
  const datagen::GeneratedData data = MakeData();
  obs::SetMetricsEnabled(false);
  const auto result = Trainer(MakeConfig(1)).Train(data.dataset);
  obs::SetMetricsEnabled(true);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().init_seconds, 0.0);
  EXPECT_GT(result.value().assignment_seconds, 0.0);
  EXPECT_GT(result.value().update_seconds, 0.0);
  EXPECT_GT(result.value().cache_seconds, 0.0);
}

// `base` plus appended actions on two users and one new user — a
// deterministic "current" dataset for an online refresh.
Dataset GrowDataset(const Dataset& base) {
  Dataset out(base.items());
  for (UserId u = 0; u < base.num_users(); ++u) {
    out.AddUser(base.user_name(u));
    for (const Action& a : base.sequence(u)) {
      EXPECT_TRUE(out.AddAction(u, a.time, a.item, a.rating).ok());
    }
  }
  const int num_items = base.items().num_items();
  for (UserId u : {UserId{0}, UserId{5}}) {
    const auto seq = base.sequence(u);
    const int64_t start = seq.empty() ? 0 : seq.back().time + 1;
    for (int k = 0; k < 6; ++k) {
      EXPECT_TRUE(out.AddAction(u, start + k, (u * 11 + k) % num_items).ok());
    }
  }
  const UserId fresh = out.AddUser("det_newcomer");
  for (int k = 0; k < 10; ++k) {
    EXPECT_TRUE(out.AddAction(fresh, 1000 + k, (k * 3) % num_items).ok());
  }
  return out;
}

// The refresh's param-delta gauge must be a pure readout: computing it
// (metrics on) cannot change a single bit of the refreshed model vs not
// computing it (metrics off).
TEST(ObsDeterminismTest, RefreshTelemetryDoesNotPerturbOnlineTraining) {
  const datagen::GeneratedData data = MakeData();
  const Dataset grown = GrowDataset(data.dataset);
  SkillModelConfig config = MakeConfig(1);
  config.transitions = TransitionModel::kNone;

  obs::SetMetricsEnabled(false);
  OnlineTrainer baseline(config);
  ASSERT_TRUE(baseline.TrainFullReplay(data.dataset).ok());
  const auto baseline_stats = baseline.Refresh(data.dataset, grown);
  ASSERT_TRUE(baseline_stats.ok()) << baseline_stats.status().ToString();
  // Disabled metrics: the delta is not computed at all.
  EXPECT_EQ(baseline_stats.value().param_delta_l2, 0.0);

  obs::SetMetricsEnabled(true);
  OnlineTrainer instrumented(config);
  ASSERT_TRUE(instrumented.TrainFullReplay(data.dataset).ok());
  const auto instrumented_stats = instrumented.Refresh(data.dataset, grown);
  ASSERT_TRUE(instrumented_stats.ok());
  EXPECT_GT(instrumented_stats.value().dirty_users, 0u);
  EXPECT_GE(instrumented_stats.value().param_delta_l2, 0.0);

  EXPECT_EQ(baseline_stats.value().dirty_users,
            instrumented_stats.value().dirty_users);
  EXPECT_EQ(ModelParams(baseline.model()), ModelParams(instrumented.model()));
  EXPECT_EQ(baseline.assignments(), instrumented.assignments());
}

// Enabling the global span store under a serving stack must be bitwise
// invisible in every response byte (the store is written to, never read
// from, on the request path).
TEST(ObsDeterminismTest, FlightRecorderDoesNotPerturbServing) {
  const datagen::GeneratedData data = MakeData();
  SkillModelConfig config = MakeConfig(1);
  const auto trained = Trainer(config).Train(data.dataset);
  ASSERT_TRUE(trained.ok());
  const SkillAssignments assignments =
      AssignSkills(data.dataset, trained.value().model);
  const auto difficulty = EstimateDifficultyByGeneration(
      data.dataset.items(), trained.value().model, DifficultyPrior::kEmpirical,
      assignments);
  ASSERT_TRUE(difficulty.ok());
  const auto snapshot = serve::MakeSnapshot(
      trained.value().model, data.dataset.items(), difficulty.value());
  ASSERT_TRUE(snapshot.ok());
  const auto serving = serve::ServingModel::FromSnapshot(snapshot.value());
  ASSERT_TRUE(serving.ok());

  const std::vector<std::string> lines = {
      "observe det_u 5 100",  "observe det_u 9 200", "level det_u",
      "recommend det_u 5",    "difficulty 9",        "difficulty 1000000",
      "recommend unknown_u 3", "evict 50",           "level det_u",
  };

  const auto run = [&](serve::Server& server) {
    std::vector<std::string> responses;
    for (const std::string& line : lines) {
      const auto request = serve::ParseServeRequest(line);
      EXPECT_TRUE(request.ok()) << line;
      responses.push_back(server.Execute(request.value()));
    }
    return responses;
  };

  serve::Server plain(serving.value());
  const std::vector<std::string> expected = run(plain);

  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  recorder.Enable(/*capacity=*/8, /*sample_every=*/1);  // overwrites too
  serve::Server recorded(serving.value());
  EXPECT_EQ(run(recorded), expected);
  recorder.Disable();
  EXPECT_EQ(recorder.Stats().recorded, lines.size());

  // And with telemetry fully dark, the fast path answers identically.
  obs::SetMetricsEnabled(false);
  serve::Server dark(serving.value());
  EXPECT_EQ(run(dark), expected);
  obs::SetMetricsEnabled(true);
}

}  // namespace
}  // namespace upskill
