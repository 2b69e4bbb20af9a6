#include "eval/tasks.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/beer.h"
#include "datagen/synthetic.h"
#include "dist/categorical.h"

namespace upskill {
namespace eval {
namespace {

TEST(RandomGuessTest, ClosedForms) {
  EXPECT_NEAR(RandomGuessAccuracyAtK(100, 10), 0.1, 1e-12);
  EXPECT_NEAR(RandomGuessAccuracyAtK(5, 10), 1.0, 1e-12);
  // H_3 / 3 = (1 + 1/2 + 1/3) / 3.
  EXPECT_NEAR(RandomGuessMeanReciprocalRank(3), (11.0 / 6.0) / 3.0, 1e-12);
  EXPECT_EQ(RandomGuessAccuracyAtK(0, 10), 0.0);
}

// Hand-built scenario with a known ranking.
TEST(ItemPredictionTest, ScoresKnownRanking) {
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddIdFeature(3).ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < 3; ++i) {
    const double row[] = {-1.0};
    ASSERT_TRUE(items.AddItem(row).ok());
  }
  Dataset train(std::move(items));
  const UserId u = train.AddUser();
  ASSERT_TRUE(train.AddAction(u, 10, 0).ok());

  SkillModelConfig config;
  config.num_levels = 1;
  auto created = SkillModel::Create(train.schema(), config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  auto* level1 = static_cast<Categorical*>(model.mutable_component(0, 1));
  ASSERT_TRUE(
      level1->SetProbabilities(std::vector<double>{0.5, 0.3, 0.2}).ok());

  const SkillAssignments assignments = {{1}};
  // Held-out item 1 has rank 2 -> RR 0.5; Acc@1 = 0, Acc@2 = 1.
  const std::vector<HeldOutAction> test = {{u, Action{11, 1, 0.0}, 0}};
  const auto at1 = EvaluateItemPrediction(train, assignments, model, test, 1);
  ASSERT_TRUE(at1.ok());
  EXPECT_DOUBLE_EQ(at1.value().accuracy_at_k, 0.0);
  EXPECT_DOUBLE_EQ(at1.value().mean_reciprocal_rank, 0.5);
  const auto at2 = EvaluateItemPrediction(train, assignments, model, test, 2);
  ASSERT_TRUE(at2.ok());
  EXPECT_DOUBLE_EQ(at2.value().accuracy_at_k, 1.0);
  ASSERT_EQ(at2.value().reciprocal_ranks.size(), 1u);
  EXPECT_DOUBLE_EQ(at2.value().reciprocal_ranks[0], 0.5);

  // A case outside the ID vocabulary fails the evaluation with its status.
  const std::vector<HeldOutAction> bad = {{u, Action{11, 1, 0.0}, 0},
                                          {u, Action{12, 7, 0.0}, 0}};
  const auto failed = EvaluateItemPrediction(train, assignments, model, bad, 1);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kOutOfRange);
}

TEST(ItemPredictionTest, ValidatesK) {
  Dataset train;
  SkillModel model;
  EXPECT_FALSE(EvaluateItemPrediction(train, {}, model, {}, 0).ok());
}

TEST(ItemPredictionTest, TrainedModelBeatsRandomGuessing) {
  datagen::SyntheticConfig gen;
  gen.num_users = 150;
  gen.num_items = 250;
  gen.mean_sequence_length = 30.0;
  auto data = datagen::GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());

  Rng rng(3);
  auto split = MakeHoldoutSplit(data.value().dataset,
                                HoldoutPosition::kRandom, rng);
  ASSERT_TRUE(split.ok());

  SkillModelConfig config;
  config.num_levels = 5;
  config.min_init_actions = 20;
  Trainer trainer(config);
  const auto trained = trainer.Train(split.value().train);
  ASSERT_TRUE(trained.ok());

  const auto report = EvaluateItemPrediction(
      split.value().train, trained.value().assignments, trained.value().model,
      split.value().test, 10);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().mean_reciprocal_rank,
            RandomGuessMeanReciprocalRank(250));
  EXPECT_GT(report.value().accuracy_at_k,
            RandomGuessAccuracyAtK(250, 10));
}

class RatingPredictionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::BeerConfig gen;
    gen.num_users = 80;
    gen.num_beers = 120;
    gen.mean_sequence_length = 40.0;
    auto data = datagen::GenerateBeer(gen);
    ASSERT_TRUE(data.ok()) << data.status().ToString();
    data_ = std::make_unique<datagen::GeneratedData>(std::move(data).value());

    Rng rng(5);
    auto split =
        MakeHoldoutSplit(data_->dataset, HoldoutPosition::kRandom, rng);
    ASSERT_TRUE(split.ok());
    split_ = std::make_unique<ActionSplit>(std::move(split).value());

    SkillModelConfig config;
    config.num_levels = 5;
    config.min_init_actions = 20;
    Trainer trainer(config);
    auto trained = trainer.Train(split_->train);
    ASSERT_TRUE(trained.ok());
    trained_ = std::make_unique<TrainResult>(std::move(trained).value());
  }

  std::unique_ptr<datagen::GeneratedData> data_;
  std::unique_ptr<ActionSplit> split_;
  std::unique_ptr<TrainResult> trained_;
};

TEST_F(RatingPredictionTest, ProducesFiniteRmseOnRealisticData) {
  const auto difficulty = EstimateDifficultyByGeneration(
      split_->train.items(), trained_->model, DifficultyPrior::kEmpirical,
      trained_->assignments);
  ASSERT_TRUE(difficulty.ok());

  RatingTaskOptions options;
  options.ffm.epochs = 5;
  options.features.include_skill = true;
  options.features.include_difficulty = true;
  Rng rng(7);
  const auto report = EvaluateRatingPrediction(
      split_->train, trained_->assignments, trained_->model,
      difficulty.value(), split_->test, options, rng);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().rmse, 0.0);
  EXPECT_LT(report.value().rmse, 2.0);
  EXPECT_GT(report.value().num_train, 0u);
  EXPECT_EQ(report.value().num_test, report.value().squared_errors.size());
}

TEST_F(RatingPredictionTest, ValidatesDifficultySize) {
  RatingTaskOptions options;
  Rng rng(9);
  const std::vector<double> wrong_size = {1.0};
  EXPECT_FALSE(EvaluateRatingPrediction(split_->train, trained_->assignments,
                                        trained_->model, wrong_size,
                                        split_->test, options, rng)
                   .ok());
}

TEST_F(RatingPredictionTest, FailsWithoutRatings) {
  // Strip ratings by rebuilding the train set without them.
  Dataset unrated(split_->train.items());
  for (UserId u = 0; u < split_->train.num_users(); ++u) {
    unrated.AddUser();
    for (const Action& a : split_->train.sequence(u)) {
      ASSERT_TRUE(unrated.AddAction(u, a.time, a.item).ok());
    }
  }
  const std::vector<double> difficulty(
      static_cast<size_t>(unrated.items().num_items()), 3.0);
  RatingTaskOptions options;
  Rng rng(11);
  EXPECT_FALSE(EvaluateRatingPrediction(unrated, trained_->assignments,
                                        trained_->model, difficulty,
                                        split_->test, options, rng)
                   .ok());
}

}  // namespace
}  // namespace eval
}  // namespace upskill
