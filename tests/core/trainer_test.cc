#include "core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "datagen/synthetic.h"
#include "dist/poisson.h"
#include "eval/metrics.h"
#include "exec/backend.h"

namespace upskill {
namespace {

// Small synthetic dataset with clearly separated levels.
datagen::GeneratedData MakeData(int num_users = 200, int num_items = 500,
                                uint64_t seed = 99) {
  datagen::SyntheticConfig config;
  config.num_users = num_users;
  config.num_items = num_items;
  config.mean_sequence_length = 30.0;
  config.seed = seed;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(SegmentUniformlyTest, SplitsEvenly) {
  EXPECT_EQ(SegmentUniformly(6, 3), (std::vector<int>{1, 1, 2, 2, 3, 3}));
  EXPECT_EQ(SegmentUniformly(3, 3), (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(SegmentUniformly(1, 3), (std::vector<int>{1}));
  // Shorter than S: climbs one level per action instead of skipping.
  EXPECT_EQ(SegmentUniformly(2, 5), (std::vector<int>{1, 2}));
  EXPECT_TRUE(SegmentUniformly(0, 3).empty());
}

TEST(SegmentUniformlyTest, AlwaysMonotoneInRange) {
  for (size_t len = 1; len <= 40; ++len) {
    for (int s = 1; s <= 7; ++s) {
      const std::vector<int> levels = SegmentUniformly(len, s);
      EXPECT_TRUE(AssignmentsAreMonotone({levels}, s))
          << "len=" << len << " s=" << s;
    }
  }
}

TEST(InitializeAssignmentsTest, OnlyLongSequencesParticipate) {
  const datagen::GeneratedData data = MakeData(50, 100);
  const SkillAssignments init =
      InitializeAssignments(data.dataset, 5, /*min_init_actions=*/40);
  bool any_long = false;
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    const size_t len = data.dataset.sequence(u).size();
    const auto& levels = init[static_cast<size_t>(u)];
    if (len >= 40) {
      EXPECT_EQ(levels.size(), len);
      any_long = true;
    } else {
      EXPECT_TRUE(levels.empty());
    }
  }
  EXPECT_TRUE(any_long);
}

TEST(InitializeAssignmentsTest, FallsBackWhenNobodyQualifies) {
  const datagen::GeneratedData data = MakeData(20, 100);
  const SkillAssignments init =
      InitializeAssignments(data.dataset, 5, /*min_init_actions=*/100000);
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    EXPECT_EQ(init[static_cast<size_t>(u)].size(),
              data.dataset.sequence(u).size());
  }
}

TEST(FitParametersTest, FitsPerLevelMle) {
  // Two users, two levels; Poisson feature values differ by level.
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  for (double v : {2.0, 2.0, 8.0, 8.0}) {
    const double row[] = {v};
    ASSERT_TRUE(items.AddItem(row).ok());
  }
  Dataset dataset(std::move(items));
  const UserId u = dataset.AddUser();
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(dataset.AddAction(u, n, static_cast<ItemId>(n)).ok());
  }
  SkillModelConfig config;
  config.num_levels = 2;
  auto model = SkillModel::Create(dataset.schema(), config);
  ASSERT_TRUE(model.ok());
  const SkillAssignments assignments = {{1, 1, 2, 2}};
  FitParameters(dataset, assignments, &model.value());
  EXPECT_DOUBLE_EQ(
      static_cast<const Poisson&>(model.value().component(0, 1)).rate(), 2.0);
  EXPECT_DOUBLE_EQ(
      static_cast<const Poisson&>(model.value().component(0, 2)).rate(), 8.0);
}

TEST(FitParametersTest, ParallelModesMatchSequential) {
  const datagen::GeneratedData data = MakeData(60, 200);
  SkillModelConfig config;
  config.num_levels = 5;
  const SkillAssignments init = InitializeAssignments(data.dataset, 5, 10);

  auto fit = [&](ParallelOptions parallel, exec::Backend* backend) {
    auto model = SkillModel::Create(data.dataset.schema(), config);
    EXPECT_TRUE(model.ok());
    FitParameters(data.dataset, init, &model.value(), backend, parallel);
    return std::move(model).value();
  };

  const SkillModel sequential = fit({}, nullptr);
  exec::Backend pool(4);
  for (const auto& [levels, features] :
       {std::pair{true, false}, {false, true}, {true, true}}) {
    ParallelOptions parallel;
    parallel.num_threads = 4;
    parallel.levels = levels;
    parallel.features = features;
    const SkillModel threaded = fit(parallel, &pool);
    for (int f = 0; f < sequential.num_features(); ++f) {
      for (int s = 1; s <= 5; ++s) {
        EXPECT_EQ(threaded.component(f, s).Parameters(),
                  sequential.component(f, s).Parameters())
            << "f=" << f << " s=" << s;
      }
    }
  }
}

TEST(TrainerTest, RejectsEmptyDataset) {
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("x").ok());
  Dataset dataset((ItemTable(std::move(schema))));
  Trainer trainer(SkillModelConfig{});
  EXPECT_FALSE(trainer.Train(dataset).ok());
}

// With no assignment pass, users below min_init_actions would come back
// with empty paths that every consumer of TrainResult rejects.
TEST(TrainerTest, RejectsNonPositiveMaxIterations) {
  const datagen::GeneratedData data = MakeData(30, 100);
  for (const int max_iterations : {0, -1}) {
    SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 40;
    config.max_iterations = max_iterations;
    const auto result = Trainer(config).Train(data.dataset);
    ASSERT_FALSE(result.ok()) << "max_iterations=" << max_iterations;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("max_iterations"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(TrainerTest, LogLikelihoodTraceIsNonDecreasing) {
  const datagen::GeneratedData data = MakeData();
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  config.max_iterations = 30;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().log_likelihood_trace;
  ASSERT_GE(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    // Coordinate ascent: allow only floating-point slack.
    EXPECT_GE(trace[i], trace[i - 1] - 1e-6 * std::abs(trace[i - 1]))
        << "iteration " << i;
  }
  // Every pass solves every user's DP.
  EXPECT_EQ(result.value().reassigned_users,
            static_cast<size_t>(data.dataset.num_users()) *
                static_cast<size_t>(result.value().iterations));
}

TEST(TrainerTest, AssignmentsAreAlwaysMonotone) {
  const datagen::GeneratedData data = MakeData();
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(AssignmentsAreMonotone(result.value().assignments, 5));
  // Every user has exactly one level per action.
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    EXPECT_EQ(result.value().assignments[static_cast<size_t>(u)].size(),
              data.dataset.sequence(u).size());
  }
}

TEST(TrainerTest, RecoversPlantedSkillLevels) {
  const datagen::GeneratedData data = MakeData(400, 1000, 1234);
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());

  std::vector<double> estimated;
  std::vector<double> truth;
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    const auto& est = result.value().assignments[static_cast<size_t>(u)];
    const auto& ref = data.truth.skill[static_cast<size_t>(u)];
    ASSERT_EQ(est.size(), ref.size());
    for (size_t n = 0; n < est.size(); ++n) {
      estimated.push_back(est[n]);
      truth.push_back(ref[n]);
    }
  }
  const double r = eval::PearsonCorrelation(estimated, truth);
  EXPECT_GT(r, 0.5) << "skill recovery too weak (r=" << r << ")";
}

TEST(TrainerTest, ParallelTrainingMatchesSequential) {
  const datagen::GeneratedData data = MakeData(100, 300);
  SkillModelConfig sequential_config;
  sequential_config.num_levels = 5;
  sequential_config.min_init_actions = 20;
  sequential_config.max_iterations = 10;
  SkillModelConfig parallel_config = sequential_config;
  parallel_config.parallel.num_threads = 4;
  parallel_config.parallel.users = true;
  parallel_config.parallel.levels = true;
  parallel_config.parallel.features = true;

  const auto sequential = Trainer(sequential_config).Train(data.dataset);
  const auto parallel = Trainer(parallel_config).Train(data.dataset);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(sequential.value().assignments, parallel.value().assignments);
  EXPECT_NEAR(sequential.value().final_log_likelihood,
              parallel.value().final_log_likelihood, 1e-6);
}

TEST(TrainerTest, SingleLevelDegeneratesGracefully) {
  const datagen::GeneratedData data = MakeData(30, 100);
  SkillModelConfig config;
  config.num_levels = 1;
  config.min_init_actions = 10;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());
  for (const auto& seq : result.value().assignments) {
    for (int level : seq) EXPECT_EQ(level, 1);
  }
}

TEST(FitTransitionWeightsTest, CountsInitialLevelsAndUps) {
  // Two sequences: starts at 1 and 2; transitions: 3 ups, 3 stays below
  // the top, 1 stay at the top (excluded from the denominator).
  const SkillAssignments assignments = {{1, 1, 2, 2, 3, 3}, {2, 3}};
  const TransitionWeights weights =
      FitTransitionWeights(assignments, 3, /*smoothing=*/0.0);
  EXPECT_NEAR(std::exp(weights.log_initial[0]), 0.5, 1e-9);
  EXPECT_NEAR(std::exp(weights.log_initial[1]), 0.5, 1e-9);
  // ups = 3 (1->2, 2->3, 2->3); stays below top = 2 (1->1, 2->2);
  // the 3->3 stays are at the top and excluded.
  EXPECT_NEAR(std::exp(weights.log_up), 3.0 / 5.0, 1e-9);
}

TEST(FitTransitionWeightsTest, SmoothingKeepsWeightsFinite) {
  const SkillAssignments assignments = {{1, 1, 1}};
  const TransitionWeights weights =
      FitTransitionWeights(assignments, 3, /*smoothing=*/0.01);
  for (double w : weights.log_initial) EXPECT_TRUE(std::isfinite(w));
  EXPECT_TRUE(std::isfinite(weights.log_up));
  EXPECT_TRUE(std::isfinite(weights.log_stay));
}

TEST(TrainerTest, GlobalTransitionModelLearnsPlausibleParameters) {
  const datagen::GeneratedData data = MakeData(200, 500, 777);
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  config.transitions = TransitionModel::kGlobal;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(AssignmentsAreMonotone(result.value().assignments, 5));
  ASSERT_EQ(result.value().initial_distribution.size(), 5u);
  double total = 0.0;
  for (double p : result.value().initial_distribution) total += p;
  EXPECT_NEAR(total, 1.0, 1e-6);
  // The generator levels up with probability 0.1 per at-level action;
  // the learned per-action rate should be in a plausible band.
  EXPECT_GT(result.value().level_up_probability, 0.005);
  EXPECT_LT(result.value().level_up_probability, 0.5);
}

TEST(TrainerTest, TransitionModelStillRecoversSkill) {
  const datagen::GeneratedData data = MakeData(200, 500, 778);
  SkillModelConfig plain_config;
  plain_config.num_levels = 5;
  plain_config.min_init_actions = 20;
  SkillModelConfig transition_config = plain_config;
  transition_config.transitions = TransitionModel::kGlobal;

  const auto flatten = [](const SkillAssignments& assignments) {
    std::vector<double> flat;
    for (const auto& seq : assignments) {
      for (int level : seq) flat.push_back(level);
    }
    return flat;
  };
  std::vector<double> truth;
  for (const auto& seq : data.truth.skill) {
    for (int level : seq) truth.push_back(level);
  }

  const auto plain = Trainer(plain_config).Train(data.dataset);
  const auto with_transitions = Trainer(transition_config).Train(data.dataset);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(with_transitions.ok());
  const double r_plain =
      eval::PearsonCorrelation(flatten(plain.value().assignments), truth);
  const double r_transitions = eval::PearsonCorrelation(
      flatten(with_transitions.value().assignments), truth);
  EXPECT_GT(r_transitions, 0.4);
  EXPECT_GT(r_transitions, r_plain - 0.2);
}

TEST(TrainerTest, ConvergesBeforeIterationCap) {
  const datagen::GeneratedData data = MakeData(100, 300);
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  config.max_iterations = 100;
  Trainer trainer(config);
  const auto result = trainer.Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  EXPECT_LT(result.value().iterations, 100);
}

}  // namespace
}  // namespace upskill
