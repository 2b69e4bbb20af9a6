// ServingModel: the precomputed per-level rankings and the windowed
// Recommend walk over them.

#include "serve/serving_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>

#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "exec/backend.h"
#include "serve/snapshot.h"

namespace upskill {
namespace serve {
namespace {

class ServingModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 40;
    data_config.num_items = 80;
    data_config.mean_sequence_length = 25.0;
    data_config.seed = 321;
    auto data = datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    dataset_ = std::make_unique<Dataset>(std::move(data).value().dataset);

    SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 15;
    config.max_iterations = 6;
    auto trained = Trainer(config).Train(*dataset_);
    ASSERT_TRUE(trained.ok());
    model_ = std::make_unique<SkillModel>(std::move(trained).value().model);
    const SkillAssignments assignments = AssignSkills(*dataset_, *model_);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset_->items(), *model_, DifficultyPrior::kEmpirical, assignments);
    ASSERT_TRUE(difficulty.ok());
    difficulty_ = std::move(difficulty).value();

    auto snapshot = MakeSnapshot(*model_, dataset_->items(), difficulty_);
    ASSERT_TRUE(snapshot.ok());
    auto serving = ServingModel::FromSnapshot(std::move(snapshot).value());
    ASSERT_TRUE(serving.ok()) << serving.status().ToString();
    serving_ = serving.value();
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SkillModel> model_;
  std::vector<double> difficulty_;
  std::shared_ptr<const ServingModel> serving_;
};

TEST_F(ServingModelTest, RankedItemsAreCompletePermutationsInScoreOrder) {
  const std::vector<double>& log_probs = serving_->item_log_probs();
  const size_t levels = static_cast<size_t>(serving_->num_levels());
  for (int level = 1; level <= serving_->num_levels(); ++level) {
    const std::span<const ItemId> ranked = serving_->RankedItems(level);
    ASSERT_EQ(ranked.size(),
              static_cast<size_t>(serving_->num_items()));
    std::vector<bool> seen(ranked.size(), false);
    for (size_t r = 0; r < ranked.size(); ++r) {
      const ItemId item = ranked[r];
      ASSERT_GE(item, 0);
      ASSERT_LT(item, serving_->num_items());
      EXPECT_FALSE(seen[static_cast<size_t>(item)]);  // a permutation
      seen[static_cast<size_t>(item)] = true;
      if (r == 0) continue;
      const double prev = log_probs[static_cast<size_t>(ranked[r - 1]) *
                                        levels +
                                    static_cast<size_t>(level - 1)];
      const double cur =
          log_probs[static_cast<size_t>(item) * levels +
                    static_cast<size_t>(level - 1)];
      // Descending score; ties toward the smaller item id.
      EXPECT_TRUE(prev > cur || (prev == cur && ranked[r - 1] < item))
          << "level " << level << " rank " << r;
    }
  }
}

TEST_F(ServingModelTest, ItemRowMatchesCacheLayout) {
  const size_t levels = static_cast<size_t>(serving_->num_levels());
  for (ItemId item : {ItemId{0}, ItemId{17},
                      ItemId{serving_->num_items() - 1}}) {
    const std::span<const double> row = serving_->ItemRow(item);
    ASSERT_EQ(row.size(), levels);
    for (size_t s = 0; s < levels; ++s) {
      EXPECT_EQ(row[s],
                serving_->item_log_probs()[static_cast<size_t>(item) *
                                               levels +
                                           s]);
    }
  }
}

TEST_F(ServingModelTest, RecommendRespectsTheStretchWindow) {
  UpskillRecommendationOptions options;
  options.max_results = 1000;
  options.stretch = 0.75;
  for (int level = 1; level <= serving_->num_levels(); ++level) {
    const auto picks = serving_->Recommend(level, options);
    ASSERT_TRUE(picks.ok());
    for (const UpskillRecommendation& pick : picks.value()) {
      EXPECT_GT(pick.difficulty, static_cast<double>(level));
      EXPECT_LE(pick.difficulty, level + options.stretch);
    }
  }
}

TEST_F(ServingModelTest, RecommendHonorsMaxResults) {
  UpskillRecommendationOptions wide;
  wide.max_results = 1000;
  wide.stretch = 3.0;
  const auto all = serving_->Recommend(1, wide);
  ASSERT_TRUE(all.ok());
  ASSERT_GT(all.value().size(), 3u);

  UpskillRecommendationOptions narrow = wide;
  narrow.max_results = 3;
  const auto top3 = serving_->Recommend(1, narrow);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3.value().size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.value()[i].item, all.value()[i].item);
  }
}

TEST_F(ServingModelTest, RecommendValidatesInputs) {
  UpskillRecommendationOptions options;
  EXPECT_FALSE(serving_->Recommend(0, options).ok());
  EXPECT_FALSE(
      serving_->Recommend(serving_->num_levels() + 1, options).ok());
  options.max_results = -1;
  EXPECT_FALSE(serving_->Recommend(1, options).ok());
  options.max_results = 10;
  options.stretch = -0.5;
  EXPECT_FALSE(serving_->Recommend(1, options).ok());
}

TEST_F(ServingModelTest, FromSnapshotRejectsShapeMismatches) {
  auto snapshot = MakeSnapshot(*model_, dataset_->items(), difficulty_);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot broken = std::move(snapshot).value();
  broken.difficulty.pop_back();
  EXPECT_FALSE(ServingModel::FromSnapshot(std::move(broken)).ok());
}

// The ranking the radix sort replaced: an index sort with the
// descending-score comparator, ties toward the smaller id.
std::vector<ItemId> IndexSortOracle(const double* scores, size_t stride,
                                    size_t count) {
  std::vector<ItemId> order(count);
  std::iota(order.begin(), order.end(), ItemId{0});
  std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
    const double pa = scores[static_cast<size_t>(a) * stride];
    const double pb = scores[static_cast<size_t>(b) * stride];
    if (pa != pb) return pa > pb;
    return a < b;
  });
  return order;
}

TEST(RankDescendingTest, MatchesIndexSortOnTiesSignedZerosAndInfinities) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Few distinct values so ties are everywhere; both zeros, both
  // infinities, subnormals and values whose bytes differ only low down.
  const std::vector<double> pool = {
      0.0,     -0.0,   -kInf, kInf, -1.5,  1.5,   -1e-310, 1e-310,
      -3.25,   -3.25 + 1e-15, 2.0e300, -2.0e300, -7.0, -0.5, 42.0};
  std::mt19937 rng(17u);
  constexpr size_t kStride = 3;
  for (const size_t count : {size_t{0}, size_t{1}, size_t{2}, size_t{257},
                             size_t{5000}}) {
    std::vector<double> scores(count * kStride);
    for (double& score : scores) score = pool[rng() % pool.size()];
    for (size_t offset = 0; offset < kStride; ++offset) {
      std::vector<ItemId> order(count);
      RankDescending(scores.data() + offset, kStride, count, order.data());
      EXPECT_EQ(order, IndexSortOracle(scores.data() + offset, kStride, count))
          << "count " << count << " offset " << offset;
    }
  }
}

// A model whose log-prob matrix has ties (items with equal features) and
// -inf entries (a category with zero probability at some levels); the
// precomputed rankings must be exactly the index sort, on any backend.
TEST(RankDescendingTest, RankedItemsMatchIndexSortOnEveryBackend) {
  constexpr int kLevels = 3;
  constexpr int kCategories = 4;
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCategorical("genre", kCategories).ok());
  ASSERT_TRUE(schema.AddCount("steps").ok());
  SkillModelConfig config;
  config.num_levels = kLevels;
  auto created = SkillModel::Create(schema, config);
  ASSERT_TRUE(created.ok());
  SkillModel model = std::move(created).value();
  for (int s = 1; s <= kLevels; ++s) {
    // Category s-1 is impossible at level s.
    std::vector<double> probs(kCategories, 1.0 / (kCategories - 1));
    probs[static_cast<size_t>(s - 1)] = 0.0;
    ASSERT_TRUE(model.mutable_component(0, s)->SetParameters(probs).ok());
    ASSERT_TRUE(model.mutable_component(1, s)
                    ->SetParameters(std::vector<double>{1.0 + s})
                    .ok());
  }
  ItemTable items(schema);
  for (int i = 0; i < 3000; ++i) {
    const double row[] = {static_cast<double>(i % kCategories),
                          static_cast<double>((i / kCategories) % 7)};
    ASSERT_TRUE(items.AddItem(row).ok());
  }
  std::vector<double> difficulty(static_cast<size_t>(items.num_items()), 2.0);

  auto pool = exec::CreateBackend("pool", 4);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  for (exec::Backend* backend : {static_cast<exec::Backend*>(nullptr),
                                 pool.value().get()}) {
    auto snapshot = MakeSnapshot(model, items, difficulty);
    ASSERT_TRUE(snapshot.ok());
    auto serving =
        ServingModel::FromSnapshot(std::move(snapshot).value(), backend);
    ASSERT_TRUE(serving.ok()) << serving.status().ToString();
    const std::vector<double>& log_probs = serving.value()->item_log_probs();
    ASSERT_NE(std::find(log_probs.begin(), log_probs.end(),
                        -std::numeric_limits<double>::infinity()),
              log_probs.end());
    for (int level = 1; level <= kLevels; ++level) {
      const std::span<const ItemId> ranked =
          serving.value()->RankedItems(level);
      EXPECT_EQ(std::vector<ItemId>(ranked.begin(), ranked.end()),
                IndexSortOracle(log_probs.data() + (level - 1), kLevels,
                                static_cast<size_t>(items.num_items())))
          << "level " << level
          << (backend == nullptr ? " serial" : " pool");
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace upskill
