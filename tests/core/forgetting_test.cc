// Tests for the forgetting extension (Section VII future work): the
// down-edge DP variant and the trainer integration.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/dp.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "exec/backend.h"

namespace upskill {
namespace {

TEST(ForgettingDpTest, NoBreaksMatchesMonotoneSolver) {
  Rng rng(21);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + static_cast<size_t>(rng.NextInt(10));
    std::vector<double> lp(n * 4);
    for (double& v : lp) v = -7.0 * rng.NextDouble();
    const std::vector<uint8_t> no_breaks(n - 1, 0);
    const MonotonePath plain = SolveMonotonePath(lp, 4);
    const MonotonePath forgetting = SolveMonotonePathWithForgetting(
        lp, 4, {}, 0.0, 0.0, no_breaks, std::log(0.05));
    EXPECT_EQ(plain.levels, forgetting.levels);
    EXPECT_DOUBLE_EQ(plain.log_likelihood, forgetting.log_likelihood);
  }
}

TEST(ForgettingDpTest, DropsLevelAfterBreakWhenEvidenceDemands) {
  // Strong evidence: 3, 3, then (after a break) 2, 2.
  const std::vector<double> lp = {
      -9.0, -9.0, -0.1,
      -9.0, -9.0, -0.1,
      -9.0, -0.1, -9.0,
      -9.0, -0.1, -9.0,
  };
  const std::vector<uint8_t> breaks = {0, 1, 0};
  const MonotonePath path = SolveMonotonePathWithForgetting(
      lp, 3, {}, 0.0, 0.0, breaks, std::log(0.1));
  EXPECT_EQ(path.levels, (std::vector<int>{3, 3, 2, 2}));
}

TEST(ForgettingDpTest, NoDropWithoutBreakEvenWithEvidence) {
  const std::vector<double> lp = {
      -9.0, -9.0, -0.1,
      -9.0, -9.0, -0.1,
      -9.0, -0.1, -9.0,
      -9.0, -0.1, -9.0,
  };
  const std::vector<uint8_t> no_breaks = {0, 0, 0};
  const MonotonePath path = SolveMonotonePathWithForgetting(
      lp, 3, {}, 0.0, 0.0, no_breaks, std::log(0.1));
  // The path must stay monotone: it either eats the bad emissions at 3 or
  // never climbs; both are monotone.
  for (size_t t = 1; t < path.levels.size(); ++t) {
    EXPECT_GE(path.levels[t], path.levels[t - 1]);
  }
}

TEST(ForgettingDpTest, DownCostWeighsAgainstDrop) {
  // Mild evidence for a drop; prohibitive down cost keeps the level.
  const std::vector<double> lp = {
      -5.0, -1.0,
      -1.0, -1.4,
  };
  const std::vector<uint8_t> breaks = {1};
  const MonotonePath cheap = SolveMonotonePathWithForgetting(
      lp, 2, {}, 0.0, 0.0, breaks, std::log(0.9));
  EXPECT_EQ(cheap.levels, (std::vector<int>{2, 1}));
  const MonotonePath expensive = SolveMonotonePathWithForgetting(
      lp, 2, {}, 0.0, 0.0, breaks, -10.0);
  EXPECT_EQ(expensive.levels, (std::vector<int>{2, 2}));
}

TEST(ForgettingDpTest, CanDropMultipleTimesAcrossBreaks) {
  const std::vector<double> lp = {
      -9.0, -9.0, -0.1,
      -9.0, -0.1, -9.0,
      -0.1, -9.0, -9.0,
  };
  const std::vector<uint8_t> breaks = {1, 1};
  const MonotonePath path = SolveMonotonePathWithForgetting(
      lp, 3, {}, 0.0, 0.0, breaks, std::log(0.2));
  EXPECT_EQ(path.levels, (std::vector<int>{3, 2, 1}));
}

// Levels must never move by more than one, and only drop at break points.
void ExpectValidForgetfulPath(const std::vector<int>& levels,
                              std::span<const Action> seq,
                              int64_t gap_threshold, int num_levels) {
  for (size_t n = 0; n < levels.size(); ++n) {
    EXPECT_GE(levels[n], 1);
    EXPECT_LE(levels[n], num_levels);
    if (n == 0) continue;
    const int step = levels[n] - levels[n - 1];
    EXPECT_LE(step, 1);
    EXPECT_GE(step, -1);
    if (step < 0) {
      EXPECT_GT(seq[n].time - seq[n - 1].time, gap_threshold)
          << "drop without a long break at position " << n;
    }
  }
}

TEST(ForgettingTrainerTest, RecoversDecayBetterThanMonotoneModel) {
  datagen::SyntheticConfig gen;
  gen.num_users = 250;
  gen.num_items = 500;
  gen.mean_sequence_length = 40.0;
  gen.break_probability = 0.05;
  gen.break_gap = 1000;
  gen.forget_probability = 0.9;
  gen.seed = 4242;
  auto data = datagen::GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  SkillModelConfig monotone_config;
  monotone_config.num_levels = 5;
  monotone_config.min_init_actions = 25;
  SkillModelConfig forgetting_config = monotone_config;
  forgetting_config.forgetting.enabled = true;
  forgetting_config.forgetting.gap_threshold = 100;
  forgetting_config.forgetting.drop_probability = 0.1;

  const auto monotone = Trainer(monotone_config).Train(data.value().dataset);
  const auto forgetting =
      Trainer(forgetting_config).Train(data.value().dataset);
  ASSERT_TRUE(monotone.ok());
  ASSERT_TRUE(forgetting.ok());

  // Structural validity of forgetful paths.
  for (UserId u = 0; u < data.value().dataset.num_users(); ++u) {
    ExpectValidForgetfulPath(
        forgetting.value().assignments[static_cast<size_t>(u)],
        data.value().dataset.sequence(u), 100, 5);
  }

  // The forgetful model should fit the decaying truth at least as well.
  const auto flatten = [](const SkillAssignments& assignments) {
    std::vector<double> flat;
    for (const auto& seq : assignments) {
      for (int level : seq) flat.push_back(level);
    }
    return flat;
  };
  std::vector<double> truth;
  for (const auto& seq : data.value().truth.skill) {
    for (int level : seq) truth.push_back(level);
  }
  const double r_monotone =
      eval::PearsonCorrelation(flatten(monotone.value().assignments), truth);
  const double r_forgetting = eval::PearsonCorrelation(
      flatten(forgetting.value().assignments), truth);
  EXPECT_GT(r_forgetting, r_monotone - 0.02)
      << "forgetting model much worse on forgetful data";
  // And its likelihood should be at least as high (extra edges can only
  // help the optimal path).
  EXPECT_GE(forgetting.value().final_log_likelihood,
            monotone.value().final_log_likelihood - 1e-6);
}

TEST(ForgettingTrainerTest, DisabledForgettingKeepsMonotonicity) {
  datagen::SyntheticConfig gen;
  gen.num_users = 60;
  gen.num_items = 200;
  gen.break_probability = 0.05;
  auto data = datagen::GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 25;
  const auto result = Trainer(config).Train(data.value().dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(AssignmentsAreMonotone(result.value().assignments, 5));
}

// AssignmentEngine's forgetting passes solve from its down-edge flag
// column. One engine, driven through gap thresholds that open the edge at
// the breaks only, after every action, nowhere (forgetting off) and at the
// breaks again, gives after every pass the paths of a per-user solve whose
// flags come from the action times, and the paths and objective of a
// fresh engine; per-class passes match a fresh engine too. Serial and
// pool(4) over 7 shards alike: the pool's shard tasks write the column.
TEST(ForgettingEngineTest, FlagColumnFollowsTheGapThreshold) {
  constexpr int kLevels = 4;
  datagen::SyntheticConfig gen;
  gen.num_users = 90;
  gen.num_items = 200;
  gen.mean_sequence_length = 30.0;
  gen.break_probability = 0.1;
  gen.break_gap = 1000;
  gen.forget_probability = 0.9;
  gen.seed = 17;
  auto data = datagen::GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  const Dataset& dataset = data.value().dataset;
  SkillModelConfig config;
  config.num_levels = kLevels;
  config.min_init_actions = 20;
  config.max_iterations = 5;
  config.forgetting.enabled = true;
  config.forgetting.gap_threshold = 100;
  config.forgetting.drop_probability = 0.1;
  const auto trained = Trainer(config).Train(dataset);
  ASSERT_TRUE(trained.ok());
  const std::vector<double> cache =
      trained.value().model.ItemLogProbCache(dataset.items());

  // The per-user oracle: ids and flags staged from the records, then the
  // item solvers.
  auto solve_from_records = [&](const ForgettingConfig& forgetting) {
    SkillAssignments paths;
    DpScratch scratch;
    for (UserId u = 0; u < dataset.num_users(); ++u) {
      const std::span<const Action> seq = dataset.sequence(u);
      std::vector<int32_t> ids;
      std::vector<uint8_t> flags;
      for (size_t n = 0; n < seq.size(); ++n) {
        ids.push_back(seq[n].item);
        if (n > 0) {
          flags.push_back(seq[n].time - seq[n - 1].time >
                          forgetting.gap_threshold);
        }
      }
      if (forgetting.enabled && seq.size() > 1) {
        SolveMonotonePathItemsWithForgetting(
            cache, ids, kLevels, {}, 0.0, 0.0, flags,
            std::log(forgetting.drop_probability), scratch);
      } else {
        SolveMonotonePathItems(cache, ids, kLevels, {}, 0.0, 0.0, scratch);
      }
      paths.push_back(scratch.levels);
    }
    return paths;
  };

  std::vector<ProgressionClassWeights> classes(2);
  for (size_t c = 0; c < classes.size(); ++c) {
    const double p_up = c == 0 ? 0.05 : 0.3;
    classes[c].weights.log_up = std::log(p_up);
    classes[c].weights.log_stay = std::log(1.0 - p_up);
    classes[c].log_prior = std::log(0.5);
  }
  const struct {
    bool enabled;
    int64_t gap_threshold;
  } steps[] = {{true, 100}, {true, 0}, {false, 0}, {true, 100}};

  exec::Backend pool(4);
  const std::pair<exec::Backend*, int> runs[] = {{nullptr, 0}, {&pool, 7}};
  for (const auto& [backend, shards] : runs) {
    SCOPED_TRACE(shards);
    AssignmentEngine engine(dataset, kLevels, shards);
    AssignmentEngine classes_engine(dataset, kLevels, shards);
    SkillAssignments previous;
    for (const auto& step : steps) {
      SCOPED_TRACE(step.gap_threshold);
      SkillModelConfig step_config = config;
      step_config.forgetting.enabled = step.enabled;
      step_config.forgetting.gap_threshold = step.gap_threshold;
      const SkillModel model =
          SkillModel::Create(dataset.schema(), step_config).value();

      const AssignmentStats stats = engine.Assign(model, cache, nullptr,
                                                  backend);
      EXPECT_EQ(engine.assignments(), solve_from_records(step_config.forgetting));
      AssignmentEngine fresh(dataset, kLevels);
      EXPECT_EQ(stats.log_likelihood,
                fresh.Assign(model, cache, nullptr).log_likelihood);
      // Each threshold moves some path.
      EXPECT_NE(engine.assignments(), previous);
      previous = engine.assignments();

      const AssignmentStats class_stats =
          classes_engine.AssignWithClasses(model, cache, classes, backend);
      AssignmentEngine fresh_classes(dataset, kLevels);
      const AssignmentStats fresh_class_stats =
          fresh_classes.AssignWithClasses(model, cache, classes);
      EXPECT_EQ(classes_engine.assignments(), fresh_classes.assignments());
      EXPECT_EQ(classes_engine.user_classes(), fresh_classes.user_classes());
      EXPECT_EQ(class_stats.log_likelihood, fresh_class_stats.log_likelihood);
    }
  }
}

}  // namespace
}  // namespace upskill
