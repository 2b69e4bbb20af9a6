// Tests for TransitionModel::kPerClass — the full progression-class
// component of Yang et al. (fast vs. slow learners).

#include <gtest/gtest.h>

#include <cmath>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"

namespace upskill {
namespace {

datagen::GeneratedData MakeHeterogeneousData(uint64_t seed = 31337,
                                             double break_probability = 0.0) {
  datagen::SyntheticConfig config;
  config.break_probability = break_probability;
  config.num_users = 300;
  config.num_items = 500;
  config.mean_sequence_length = 40.0;
  config.level_up_probability = 0.04;  // slow learners
  config.fast_user_fraction = 0.4;
  config.fast_multiplier = 6.0;        // fast learners: 0.24 per action
  config.seed = seed;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

SkillModelConfig PerClassConfig(int num_classes = 2) {
  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 25;
  config.transitions = TransitionModel::kPerClass;
  config.num_progression_classes = num_classes;
  return config;
}

TEST(ProgressionClassTest, GeneratorRecordsClasses) {
  const datagen::GeneratedData data = MakeHeterogeneousData();
  ASSERT_EQ(data.truth.user_class.size(),
            static_cast<size_t>(data.dataset.num_users()));
  size_t fast = 0;
  for (int c : data.truth.user_class) fast += c == 1;
  EXPECT_NEAR(static_cast<double>(fast) / data.truth.user_class.size(), 0.4,
              0.1);
}

TEST(ProgressionClassTest, RejectsBadClassCount) {
  const datagen::GeneratedData data = MakeHeterogeneousData();
  SkillModelConfig config = PerClassConfig(0);
  EXPECT_FALSE(Trainer(config).Train(data.dataset).ok());
}

TEST(ProgressionClassTest, LearnsTwoDistinctSpeeds) {
  const datagen::GeneratedData data = MakeHeterogeneousData();
  const auto result = Trainer(PerClassConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().progression_classes.size(), 2u);
  ASSERT_EQ(result.value().user_classes.size(),
            static_cast<size_t>(data.dataset.num_users()));

  double p0 = std::exp(result.value().progression_classes[0].weights.log_up);
  double p1 = std::exp(result.value().progression_classes[1].weights.log_up);
  if (p0 > p1) std::swap(p0, p1);
  // The two learned speeds must clearly separate.
  EXPECT_LT(p0, 0.5 * p1) << "p0=" << p0 << " p1=" << p1;
  // Both classes claim a non-trivial share of users.
  int counts[2] = {0, 0};
  for (int c : result.value().user_classes) ++counts[c];
  EXPECT_GT(counts[0], data.dataset.num_users() / 10);
  EXPECT_GT(counts[1], data.dataset.num_users() / 10);
}

TEST(ProgressionClassTest, ClassLabelsCorrelateWithTruth) {
  const datagen::GeneratedData data = MakeHeterogeneousData();
  const auto result = Trainer(PerClassConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  // Identify which learned class is the fast one.
  const double p0 =
      std::exp(result.value().progression_classes[0].weights.log_up);
  const double p1 =
      std::exp(result.value().progression_classes[1].weights.log_up);
  const int fast_class = p1 > p0 ? 1 : 0;
  // Agreement between learned labels and planted classes (users with a
  // meaningful number of actions only — short sequences are ambiguous).
  size_t agree = 0;
  size_t total = 0;
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    if (data.dataset.sequence(u).size() < 20) continue;
    ++total;
    const int truth = data.truth.user_class[static_cast<size_t>(u)];
    const int learned =
        result.value().user_classes[static_cast<size_t>(u)] == fast_class
            ? 1
            : 0;
    agree += truth == learned;
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(agree) / static_cast<double>(total), 0.6)
      << agree << "/" << total;
}

TEST(ProgressionClassTest, MonotoneAssignmentsAndReasonableRecovery) {
  const datagen::GeneratedData data = MakeHeterogeneousData();
  const auto result = Trainer(PerClassConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(AssignmentsAreMonotone(result.value().assignments, 5));

  std::vector<double> estimated;
  std::vector<double> truth;
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    const auto& est = result.value().assignments[static_cast<size_t>(u)];
    const auto& ref = data.truth.skill[static_cast<size_t>(u)];
    for (size_t n = 0; n < est.size(); ++n) {
      estimated.push_back(est[n]);
      truth.push_back(ref[n]);
    }
  }
  EXPECT_GT(eval::PearsonCorrelation(estimated, truth), 0.4);
}

// One class == one global transition model up to the constant class
// prior, so the assignments should coincide: plain, and with forgetting on
// data whose users take long breaks (the per-class step must open the
// down-edge exactly where the global one does).
TEST(ProgressionClassTest, SingleClassMatchesGlobalBehaviour) {
  for (const bool forgetting : {false, true}) {
    SCOPED_TRACE(forgetting ? "forgetting" : "plain");
    const datagen::GeneratedData data =
        MakeHeterogeneousData(999, forgetting ? 0.1 : 0.0);
    SkillModelConfig per_class_config = PerClassConfig(1);
    per_class_config.forgetting.enabled = forgetting;
    per_class_config.forgetting.gap_threshold = 100;
    per_class_config.forgetting.drop_probability = 0.1;
    const auto per_class = Trainer(per_class_config).Train(data.dataset);
    ASSERT_TRUE(per_class.ok());
    SkillModelConfig global_config = per_class_config;
    global_config.transitions = TransitionModel::kGlobal;
    const auto global = Trainer(global_config).Train(data.dataset);
    ASSERT_TRUE(global.ok());
    EXPECT_EQ(per_class.value().assignments, global.value().assignments);
    if (forgetting) {
      size_t down_steps = 0;
      for (const std::vector<int>& path : global.value().assignments) {
        for (size_t n = 1; n < path.size(); ++n) {
          down_steps += path[n] < path[n - 1];
        }
      }
      EXPECT_GT(down_steps, 0u);
    }
  }
}

TEST(ProgressionClassTest, ParallelMatchesSequential) {
  const datagen::GeneratedData data = MakeHeterogeneousData(424242);
  SkillModelConfig sequential = PerClassConfig();
  sequential.max_iterations = 8;
  SkillModelConfig parallel = sequential;
  parallel.parallel.num_threads = 4;
  parallel.parallel.users = true;
  const auto a = Trainer(sequential).Train(data.dataset);
  const auto b = Trainer(parallel).Train(data.dataset);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignments, b.value().assignments);
  EXPECT_EQ(a.value().user_classes, b.value().user_classes);
}

}  // namespace
}  // namespace upskill
