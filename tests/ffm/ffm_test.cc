#include "ffm/ffm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ffm/feature_builder.h"

namespace upskill {
namespace ffm {
namespace {

TEST(FfmModelTest, CreateValidates) {
  FfmConfig config;
  EXPECT_FALSE(FfmModel::Create(0, 5, config).ok());
  EXPECT_FALSE(FfmModel::Create(2, 0, config).ok());
  config.num_latent = 0;
  EXPECT_FALSE(FfmModel::Create(2, 5, config).ok());
  config.num_latent = 4;
  config.learning_rate = 0.0;
  EXPECT_FALSE(FfmModel::Create(2, 5, config).ok());
}

TEST(FfmModelTest, PredictIsDeterministicGivenSeed) {
  FfmConfig config;
  config.seed = 123;
  auto a = FfmModel::Create(2, 6, config);
  auto b = FfmModel::Create(2, 6, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  const Instance instance = {{0, 1, 1.0}, {1, 4, 1.0}};
  EXPECT_DOUBLE_EQ(a.value().Predict(instance), b.value().Predict(instance));
}

TEST(FfmModelTest, TrainingReducesLoss) {
  // Learnable rating structure over 4 users x 4 items.
  FfmConfig config;
  config.epochs = 30;
  auto created = FfmModel::Create(2, 8, config);
  ASSERT_TRUE(created.ok());
  FfmModel model = std::move(created).value();

  std::vector<Example> examples;
  for (int u = 0; u < 4; ++u) {
    for (int i = 0; i < 4; ++i) {
      const double target = 1.0 + 0.5 * u + 0.3 * i + ((u + i) % 2 == 0 ? 0.4 : 0.0);
      examples.push_back(Example{{{0, u, 1.0}, {1, 4 + i, 1.0}}, target});
    }
  }
  const double before = model.Evaluate(examples);
  Rng rng(7);
  model.Train(examples, rng);
  const double after = model.Evaluate(examples);
  EXPECT_LT(after, before * 0.5);
  EXPECT_LT(after, 0.2);
}

TEST(FfmModelTest, EpochLossDecreasesOverall) {
  FfmConfig config;
  auto created = FfmModel::Create(2, 6, config);
  ASSERT_TRUE(created.ok());
  FfmModel model = std::move(created).value();
  std::vector<Example> examples;
  for (int u = 0; u < 3; ++u) {
    for (int i = 0; i < 3; ++i) {
      examples.push_back(
          Example{{{0, u, 1.0}, {1, 3 + i, 1.0}}, 1.0 + u - 0.5 * i});
    }
  }
  const double first = model.TrainEpoch(examples);
  double last = first;
  for (int epoch = 0; epoch < 20; ++epoch) last = model.TrainEpoch(examples);
  EXPECT_LT(last, first);
}

TEST(FfmModelTest, InteractionsCaptureNonAdditiveStructure) {
  // An XOR-style target that no purely additive (bias + linear) model can
  // fit: target depends only on the parity of (user, item).
  FfmConfig config;
  config.epochs = 200;
  config.learning_rate = 0.15;
  auto created = FfmModel::Create(2, 4, config);
  ASSERT_TRUE(created.ok());
  FfmModel model = std::move(created).value();
  std::vector<Example> examples = {
      Example{{{0, 0, 1.0}, {1, 2, 1.0}}, 1.0},
      Example{{{0, 0, 1.0}, {1, 3, 1.0}}, -1.0},
      Example{{{0, 1, 1.0}, {1, 2, 1.0}}, -1.0},
      Example{{{0, 1, 1.0}, {1, 3, 1.0}}, 1.0},
  };
  Rng rng(11);
  model.Train(examples, rng);
  EXPECT_LT(model.Evaluate(examples), 0.25);
}

TEST(FfmModelTest, ValidationTrainingStopsEarlyAndNeverDegrades) {
  FfmConfig config;
  config.epochs = 100;
  auto created = FfmModel::Create(2, 8, config);
  ASSERT_TRUE(created.ok());
  FfmModel model = std::move(created).value();

  Rng data_rng(33);
  std::vector<Example> train;
  std::vector<Example> validation;
  for (int n = 0; n < 400; ++n) {
    const int u = static_cast<int>(data_rng.NextInt(4));
    const int i = static_cast<int>(data_rng.NextInt(4));
    const double target =
        1.0 + 0.4 * u - 0.2 * i + 0.3 * data_rng.NextGaussian();
    const Example example{{{0, u, 1.0}, {1, 4 + i, 1.0}}, target};
    (n % 5 == 0 ? validation : train).push_back(example);
  }

  const double before = model.Evaluate(validation);
  Rng rng(7);
  const double best = model.TrainWithValidation(train, validation, rng, 3);
  const double after = model.Evaluate(validation);
  // The returned best RMSE is what the restored weights score.
  EXPECT_NEAR(best, after, 1e-9);
  // Early stopping restores the best weights, so validation never ends
  // worse than it started.
  EXPECT_LE(after, before + 1e-9);
  EXPECT_LT(after, before);  // and on learnable data it actually improves
}

TEST(RatingFeatureBuilderTest, BaselineLayout) {
  const auto builder =
      RatingFeatureBuilder::Create(10, 20, 5, RatingFeatureConfig{});
  ASSERT_TRUE(builder.ok());
  EXPECT_EQ(builder.value().num_fields(), 2);
  EXPECT_EQ(builder.value().num_features(), 30);
  const auto instance = builder.value().Build(3, 7, 1, 1.0);
  ASSERT_TRUE(instance.ok());
  ASSERT_EQ(instance.value().size(), 2u);
  EXPECT_EQ(instance.value()[0].field, 0);
  EXPECT_EQ(instance.value()[0].index, 3);
  EXPECT_EQ(instance.value()[1].field, 1);
  EXPECT_EQ(instance.value()[1].index, 17);  // 10 + 7
}

TEST(RatingFeatureBuilderTest, FullLayout) {
  RatingFeatureConfig config;
  config.include_skill = true;
  config.include_difficulty = true;
  config.difficulty_buckets = 10;
  const auto builder = RatingFeatureBuilder::Create(10, 20, 5, config);
  ASSERT_TRUE(builder.ok());
  EXPECT_EQ(builder.value().num_fields(), 4);
  EXPECT_EQ(builder.value().num_features(), 10 + 20 + 5 + 10);
  const auto instance = builder.value().Build(0, 0, 3, 3.0);
  ASSERT_TRUE(instance.ok());
  ASSERT_EQ(instance.value().size(), 4u);
  EXPECT_EQ(instance.value()[2].field, 2);
  EXPECT_EQ(instance.value()[2].index, 30 + 2);  // skill level 3 -> offset 2
  EXPECT_EQ(instance.value()[3].field, 3);
  // Difficulty 3 on [1,5] -> unit 0.5 -> bucket 5.
  EXPECT_EQ(instance.value()[3].index, 35 + 5);
}

TEST(RatingFeatureBuilderTest, DifficultyClampingAndBucketEdges) {
  RatingFeatureConfig config;
  config.include_difficulty = true;
  config.difficulty_buckets = 4;
  const auto builder = RatingFeatureBuilder::Create(2, 2, 5, config);
  ASSERT_TRUE(builder.ok());
  const int base = 4;  // 2 users + 2 items
  const auto low = builder.value().Build(0, 0, 1, -10.0);
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low.value()[2].index, base + 0);
  const auto high = builder.value().Build(0, 0, 1, 99.0);
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high.value()[2].index, base + 3);  // clamped to last bucket
}

TEST(RatingFeatureBuilderTest, ValidatesArguments) {
  const auto builder =
      RatingFeatureBuilder::Create(5, 5, 3, RatingFeatureConfig{});
  ASSERT_TRUE(builder.ok());
  EXPECT_FALSE(builder.value().Build(-1, 0, 1, 1.0).ok());
  EXPECT_FALSE(builder.value().Build(0, 5, 1, 1.0).ok());
  RatingFeatureConfig with_skill;
  with_skill.include_skill = true;
  const auto builder2 = RatingFeatureBuilder::Create(5, 5, 3, with_skill);
  ASSERT_TRUE(builder2.ok());
  EXPECT_FALSE(builder2.value().Build(0, 0, 0, 1.0).ok());
  EXPECT_FALSE(builder2.value().Build(0, 0, 4, 1.0).ok());
  EXPECT_FALSE(RatingFeatureBuilder::Create(0, 5, 3, RatingFeatureConfig{}).ok());
}

}  // namespace
}  // namespace ffm
}  // namespace upskill
