#include "core/em_trainer.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/posterior.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"

namespace upskill {
namespace {

datagen::GeneratedData MakeData(int num_users = 150, int num_items = 400,
                                uint64_t seed = 555) {
  datagen::SyntheticConfig config;
  config.num_users = num_users;
  config.num_items = num_items;
  config.mean_sequence_length = 25.0;
  config.seed = seed;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

EmTrainerConfig MakeConfig(int max_iterations = 20) {
  EmTrainerConfig config;
  config.model.num_levels = 5;
  config.model.min_init_actions = 15;
  config.model.max_iterations = max_iterations;
  return config;
}

TEST(EmTrainerTest, RejectsBadInput) {
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("x").ok());
  Dataset empty((ItemTable(std::move(schema))));
  EXPECT_FALSE(EmTrainer(MakeConfig()).Train(empty).ok());

  const datagen::GeneratedData data = MakeData(10, 50);
  EmTrainerConfig config = MakeConfig();
  config.initial_level_up_probability = 0.0;
  EXPECT_FALSE(EmTrainer(config).Train(data.dataset).ok());
  config.initial_level_up_probability = 1.0;
  EXPECT_FALSE(EmTrainer(config).Train(data.dataset).ok());

  // No E-step, no likelihood: rejected like Trainer::Train does.
  for (const int max_iterations : {0, -1}) {
    const auto result =
        EmTrainer(MakeConfig(max_iterations)).Train(data.dataset);
    ASSERT_FALSE(result.ok()) << max_iterations;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }

  // The E-step lattice has no down-edge: a forgetting config is refused
  // rather than trained without forgetting.
  config = MakeConfig();
  config.model.forgetting.enabled = true;
  config.model.forgetting.gap_threshold = 10;
  const auto forgetting = EmTrainer(config).Train(data.dataset);
  ASSERT_FALSE(forgetting.ok());
  EXPECT_EQ(forgetting.status().code(), StatusCode::kInvalidArgument);
}

TEST(EmTrainerTest, MarginalLikelihoodIsNonDecreasing) {
  const datagen::GeneratedData data = MakeData();
  const auto result = EmTrainer(MakeConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().log_likelihood_trace;
  ASSERT_GE(trace.size(), 2u);
  for (size_t i = 1; i < trace.size(); ++i) {
    EXPECT_GE(trace[i], trace[i - 1] - 1e-6 * std::abs(trace[i - 1]))
        << "iteration " << i;
  }
}

TEST(EmTrainerTest, AssignmentsAreMonotone) {
  const datagen::GeneratedData data = MakeData();
  const auto result = EmTrainer(MakeConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(AssignmentsAreMonotone(result.value().assignments, 5));
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    EXPECT_EQ(result.value().assignments[static_cast<size_t>(u)].size(),
              data.dataset.sequence(u).size());
  }
}

TEST(EmTrainerTest, LearnsTransitionParameters) {
  const datagen::GeneratedData data = MakeData(250, 500);
  const auto result = EmTrainer(MakeConfig()).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  // pi is a probability distribution.
  double total = 0.0;
  for (double p : result.value().initial_distribution) {
    EXPECT_GE(p, 0.0);
    total += p;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  // p_up moved off its initial value and stayed in (0, 1).
  EXPECT_GT(result.value().level_up_probability, 0.0);
  EXPECT_LT(result.value().level_up_probability, 1.0);
  EXPECT_NE(result.value().level_up_probability, 0.1);
}

TEST(EmTrainerTest, FixedTransitionsStayFixed) {
  const datagen::GeneratedData data = MakeData(60, 200);
  EmTrainerConfig config = MakeConfig(5);
  config.learn_transitions = false;
  config.initial_level_up_probability = 0.25;
  const auto result = EmTrainer(config).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().level_up_probability, 0.25);
}

TEST(EmTrainerTest, RecoveryComparableToHardTrainer) {
  const datagen::GeneratedData data = MakeData(300, 600, 808);
  const std::vector<double> truth = [&] {
    std::vector<double> flat;
    for (const auto& seq : data.truth.skill) {
      for (int level : seq) flat.push_back(level);
    }
    return flat;
  }();
  const auto flatten = [](const SkillAssignments& assignments) {
    std::vector<double> flat;
    for (const auto& seq : assignments) {
      for (int level : seq) flat.push_back(level);
    }
    return flat;
  };

  const auto em = EmTrainer(MakeConfig(25)).Train(data.dataset);
  ASSERT_TRUE(em.ok());
  SkillModelConfig hard_config = MakeConfig().model;
  const auto hard = Trainer(hard_config).Train(data.dataset);
  ASSERT_TRUE(hard.ok());

  const double r_em =
      eval::PearsonCorrelation(flatten(em.value().assignments), truth);
  const double r_hard =
      eval::PearsonCorrelation(flatten(hard.value().assignments), truth);
  EXPECT_GT(r_em, 0.4);
  // The paper reports comparable fitting quality; allow a modest band.
  EXPECT_GT(r_em, r_hard - 0.2) << "EM dramatically worse than hard";
}

TEST(EmTrainerTest, FinalLikelihoodMatchesPosteriorMarginals) {
  // Cross-module consistency: the marginal log-likelihood the EM loop
  // reports at its final E-step must equal the sum of per-user
  // ComputeSequencePosterior marginals under the SAME parameters. Run EM
  // for exactly one extra iteration from a converged state so the trace's
  // last entry was measured with the returned parameters.
  const datagen::GeneratedData data = MakeData(60, 150, 202);
  EmTrainerConfig config = MakeConfig(100);
  config.model.relative_tolerance = 1e-7;
  const auto result = EmTrainer(config).Train(data.dataset);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.value().converged)
      << "need convergence so parameters match the last E-step";

  TransitionWeights weights;
  weights.log_initial.resize(5);
  for (int s = 0; s < 5; ++s) {
    weights.log_initial[static_cast<size_t>(s)] =
        std::log(result.value().initial_distribution[static_cast<size_t>(s)]);
  }
  weights.log_up = std::log(result.value().level_up_probability);
  weights.log_stay = std::log(1.0 - result.value().level_up_probability);

  double total = 0.0;
  for (UserId u = 0; u < data.dataset.num_users(); ++u) {
    if (data.dataset.sequence(u).empty()) continue;
    const auto posterior = ComputeSequencePosterior(
        data.dataset.items(), data.dataset.sequence(u),
        result.value().model, weights);
    ASSERT_TRUE(posterior.ok());
    total += posterior.value().log_marginal;
  }
  // The trace's final entry was computed one M-step earlier than the
  // returned parameters only if not converged; at convergence the change
  // is below tolerance, so the values agree to a loose bound.
  EXPECT_NEAR(total, result.value().final_log_likelihood,
              1e-4 * std::abs(total) + 1.0);
}

TEST(EmTrainerTest, ParallelMatchesSequential) {
  const datagen::GeneratedData data = MakeData(80, 200);
  EmTrainerConfig sequential = MakeConfig(6);
  EmTrainerConfig parallel = sequential;
  parallel.model.parallel.num_threads = 4;
  parallel.model.parallel.users = true;
  const auto a = EmTrainer(sequential).Train(data.dataset);
  const auto b = EmTrainer(parallel).Train(data.dataset);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().assignments, b.value().assignments);
  EXPECT_NEAR(a.value().final_log_likelihood,
              b.value().final_log_likelihood, 1e-6);
}

}  // namespace
}  // namespace upskill
