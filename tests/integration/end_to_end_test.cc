// End-to-end integration tests: generate -> filter -> train -> assign ->
// estimate difficulty -> evaluate, exercising the same pipeline the bench
// harnesses use.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>

#include "baselines/uniform_model.h"
#include "core/difficulty.h"
#include "core/inference.h"
#include "core/trainer.h"
#include "data/io.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"

namespace upskill {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig config;
    config.num_users = 300;
    config.num_items = 500;
    config.mean_sequence_length = 30.0;
    config.seed = 4321;
    auto data = datagen::GenerateSynthetic(config);
    ASSERT_TRUE(data.ok());
    data_ = std::make_unique<datagen::GeneratedData>(std::move(data).value());

    SkillModelConfig model_config;
    model_config.num_levels = 5;
    model_config.min_init_actions = 20;
    Trainer trainer(model_config);
    auto trained = trainer.Train(data_->dataset);
    ASSERT_TRUE(trained.ok());
    trained_ = std::make_unique<TrainResult>(std::move(trained).value());
  }

  std::vector<double> FlattenTruth() const {
    std::vector<double> truth;
    for (const auto& seq : data_->truth.skill) {
      for (int level : seq) truth.push_back(level);
    }
    return truth;
  }

  std::vector<double> FlattenEstimates() const {
    std::vector<double> estimates;
    for (const auto& seq : trained_->assignments) {
      for (int level : seq) estimates.push_back(level);
    }
    return estimates;
  }

  std::unique_ptr<datagen::GeneratedData> data_;
  std::unique_ptr<TrainResult> trained_;
};

TEST_F(EndToEndTest, MultiFacetedBeatsUniformBaselineOnSkill) {
  const std::vector<double> truth = FlattenTruth();
  const std::vector<double> multi = FlattenEstimates();

  SkillModelConfig config;
  config.num_levels = 5;
  const auto uniform = TrainUniformBaseline(data_->dataset, config);
  ASSERT_TRUE(uniform.ok());
  std::vector<double> uniform_flat;
  for (const auto& seq : uniform.value().assignments) {
    for (int level : seq) uniform_flat.push_back(level);
  }

  const double r_multi = eval::PearsonCorrelation(multi, truth);
  const double r_uniform = eval::PearsonCorrelation(uniform_flat, truth);
  EXPECT_GT(r_multi, r_uniform) << "multi=" << r_multi
                                << " uniform=" << r_uniform;
}

TEST_F(EndToEndTest, GenerationDifficultyTracksGroundTruth) {
  const auto difficulty = EstimateDifficultyByGeneration(
      data_->dataset.items(), trained_->model, DifficultyPrior::kEmpirical,
      trained_->assignments);
  ASSERT_TRUE(difficulty.ok());
  const auto report = eval::ComputeCorrelationReport(difficulty.value(),
                                                     data_->truth.difficulty);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().pearson, 0.6);
  EXPECT_LT(report.value().rmse, 1.5);
}

TEST_F(EndToEndTest, GenerationHandlesUnseenItemsAssignmentCannot) {
  // A sparse dataset (few users, many items) guarantees never-selected
  // items — the case Section V-B motivates the generation estimator with.
  datagen::SyntheticConfig sparse_config;
  sparse_config.num_users = 25;
  sparse_config.num_items = 1000;
  sparse_config.mean_sequence_length = 20.0;
  sparse_config.seed = 777;
  auto sparse = datagen::GenerateSynthetic(sparse_config);
  ASSERT_TRUE(sparse.ok());

  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 15;
  config.max_iterations = 10;
  Trainer trainer(config);
  const auto trained = trainer.Train(sparse.value().dataset);
  ASSERT_TRUE(trained.ok());

  const std::vector<double> assignment_difficulty =
      EstimateDifficultyByAssignment(sparse.value().dataset,
                                     trained.value().assignments);
  const auto generation_difficulty = EstimateDifficultyByGeneration(
      sparse.value().dataset.items(), trained.value().model,
      DifficultyPrior::kEmpirical, trained.value().assignments);
  ASSERT_TRUE(generation_difficulty.ok());

  int unseen = 0;
  for (ItemId i = 0; i < sparse.value().dataset.items().num_items(); ++i) {
    if (std::isnan(assignment_difficulty[static_cast<size_t>(i)])) {
      ++unseen;
      // The generation-based estimator still produces an on-scale value.
      const double d = generation_difficulty.value()[static_cast<size_t>(i)];
      EXPECT_GE(d, 1.0);
      EXPECT_LE(d, 5.0);
    }
  }
  EXPECT_GT(unseen, 0) << "test needs some never-selected items";
}

TEST_F(EndToEndTest, ModelSurvivesSaveLoadWithIdenticalAssignments) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("upskill_e2e_model_" + std::to_string(::getpid()) + ".csv"))
          .string();
  ASSERT_TRUE(trained_->model.Save(path).ok());
  const auto loaded = SkillModel::Load(path, data_->dataset.schema(),
                                       trained_->model.config());
  ASSERT_TRUE(loaded.ok());
  double ll_original = 0.0;
  double ll_loaded = 0.0;
  const SkillAssignments a = AssignSkills(data_->dataset, trained_->model,
                                          nullptr, &ll_original);
  const SkillAssignments b = AssignSkills(data_->dataset, loaded.value(),
                                          nullptr, &ll_loaded);
  EXPECT_EQ(a, b);
  EXPECT_NEAR(ll_original, ll_loaded, 1e-9);
  std::filesystem::remove(path);
}

TEST_F(EndToEndTest, DatasetSurvivesSaveLoadWithIdenticalTraining) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       ("upskill_e2e_data_" + std::to_string(::getpid())))
          .string();
  ASSERT_TRUE(SaveDataset(data_->dataset, dir).ok());
  const auto loaded = LoadDataset(dir);
  ASSERT_TRUE(loaded.ok());

  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  config.max_iterations = 5;
  Trainer trainer(config);
  const auto original = trainer.Train(data_->dataset);
  const auto reloaded = trainer.Train(loaded.value());
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(original.value().assignments, reloaded.value().assignments);
  EXPECT_NEAR(original.value().final_log_likelihood,
              reloaded.value().final_log_likelihood, 1e-9);
  std::filesystem::remove_all(dir);
}

TEST_F(EndToEndTest, NearestActionInferenceSupportsColdStartTimes) {
  // Inference works for times far outside the observed range.
  const UserId u = 0;
  const auto& seq = data_->dataset.sequence(u);
  ASSERT_FALSE(seq.empty());
  const auto& levels = trained_->assignments[0];
  EXPECT_EQ(NearestActionLevel(seq, levels, -1000000), levels.front());
  EXPECT_EQ(NearestActionLevel(seq, levels, 1000000), levels.back());
}

}  // namespace
}  // namespace upskill
