// Dirty-user skipping in the assignment step must be invisible in the
// results: a trainer run with incremental_assignment enabled produces the
// exact assignments, likelihood trace, and model of a run that re-solves
// every user's DP each iteration. These tests pin that invariant across
// transition models and the forgetting extension, and exercise the
// AssignmentEngine's skip machinery directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "exec/backend.h"

namespace upskill {
namespace {

datagen::GeneratedData MakeData(uint64_t seed = 42) {
  datagen::SyntheticConfig config;
  config.num_users = 80;
  config.num_items = 200;
  config.mean_sequence_length = 25.0;
  config.seed = seed;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// Trains twice — skipping on vs. off — and requires bitwise-identical
// outcomes. Returns the skipping run's result for further checks.
TrainResult ExpectSkippingInvisible(SkillModelConfig config,
                                    const Dataset& dataset) {
  config.incremental_assignment = true;
  auto with_skip = Trainer(config).Train(dataset);
  EXPECT_TRUE(with_skip.ok());

  config.incremental_assignment = false;
  auto without_skip = Trainer(config).Train(dataset);
  EXPECT_TRUE(without_skip.ok());

  const TrainResult& a = with_skip.value();
  const TrainResult& b = without_skip.value();
  EXPECT_EQ(a.assignments, b.assignments);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.log_likelihood_trace.size(), b.log_likelihood_trace.size());
  for (size_t i = 0; i < std::min(a.log_likelihood_trace.size(),
                                  b.log_likelihood_trace.size());
       ++i) {
    // Bitwise: carried-forward per-user log-likelihoods feed the same
    // serial reduction as freshly solved ones.
    EXPECT_EQ(a.log_likelihood_trace[i], b.log_likelihood_trace[i])
        << "iteration " << i;
  }
  EXPECT_EQ(a.user_classes, b.user_classes);

  // The full-pass run never skips; both account for every user-iteration.
  EXPECT_EQ(b.skipped_users, 0u);
  const size_t user_iterations =
      static_cast<size_t>(dataset.num_users()) *
      static_cast<size_t>(a.iterations);
  EXPECT_EQ(a.skipped_users + a.reassigned_users, user_iterations);
  EXPECT_EQ(b.reassigned_users, user_iterations);
  return a;
}

TEST(AssignmentSkipTest, InvisibleWithoutTransitions) {
  const datagen::GeneratedData data = MakeData(1);
  SkillModelConfig config;
  config.num_levels = 4;
  config.min_init_actions = 10;
  config.parallel.num_threads = 4;
  config.parallel.users = true;
  ExpectSkippingInvisible(config, data.dataset);
}

TEST(AssignmentSkipTest, InvisibleWithGlobalTransitions) {
  const datagen::GeneratedData data = MakeData(2);
  SkillModelConfig config;
  config.num_levels = 4;
  config.min_init_actions = 10;
  config.transitions = TransitionModel::kGlobal;
  ExpectSkippingInvisible(config, data.dataset);
}

TEST(AssignmentSkipTest, InvisibleWithForgetting) {
  const datagen::GeneratedData data = MakeData(3);
  SkillModelConfig config;
  config.num_levels = 4;
  config.min_init_actions = 10;
  config.forgetting.enabled = true;
  config.forgetting.gap_threshold = 50;
  config.forgetting.drop_probability = 0.1;
  ExpectSkippingInvisible(config, data.dataset);
}

TEST(AssignmentSkipTest, InvisibleWithProgressionClasses) {
  const datagen::GeneratedData data = MakeData(4);
  SkillModelConfig config;
  config.num_levels = 3;
  config.min_init_actions = 10;
  config.transitions = TransitionModel::kPerClass;
  config.num_progression_classes = 2;
  ExpectSkippingInvisible(config, data.dataset);
}

// A dataset whose uniform-segmentation initialization is already the DP
// optimum: 3 groups of level-pure items, every user playing 4 items of
// each group in order. Iteration 0 reproduces the initial assignments, so
// the refit leaves every parameter bitwise unchanged, iteration 1 finds
// zero dirty items, and the engine skips every user.
TEST(AssignmentSkipTest, StableDatasetSkipsEveryUser) {
  constexpr int kLevels = 3;
  constexpr int kItemsPerLevel = 10;
  constexpr int kUsers = 20;
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddIdFeature(kLevels * kItemsPerLevel).ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < kLevels * kItemsPerLevel; ++i) {
    const double row[] = {static_cast<double>(i)};
    ASSERT_TRUE(items.AddItem(row).ok());
  }
  Dataset dataset(std::move(items));
  for (int u = 0; u < kUsers; ++u) {
    const UserId user = dataset.AddUser();
    int64_t time = 0;
    for (int group = 0; group < kLevels; ++group) {
      for (int k = 0; k < 4; ++k) {
        const ItemId item = static_cast<ItemId>(
            group * kItemsPerLevel + (u + k) % kItemsPerLevel);
        ASSERT_TRUE(dataset.AddAction(user, time++, item).ok());
      }
    }
  }

  SkillModelConfig config;
  config.num_levels = kLevels;
  config.min_init_actions = 5;
  auto result = Trainer(config).Train(dataset);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().converged);
  // Iteration 0 is a full pass; iteration 1 skips everyone and converges.
  EXPECT_EQ(result.value().skipped_users, static_cast<size_t>(kUsers));
  for (const std::vector<int>& levels : result.value().assignments) {
    EXPECT_EQ(levels, (std::vector<int>{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}));
  }
}

// `source`'s items and users with every action on `unplayed` dropped, and
// a user with an empty sequence inserted in the middle.
Dataset WithUnplayedItemAndEmptyUser(const Dataset& source, ItemId unplayed) {
  Dataset dataset(source.items());
  for (UserId u = 0; u < source.num_users(); ++u) {
    if (u == source.num_users() / 2) dataset.AddUser();
    const UserId user = dataset.AddUser();
    for (const Action& a : source.sequence(u)) {
      if (a.item == unplayed) continue;
      EXPECT_TRUE(dataset.AddAction(user, a.time, a.item).ok());
    }
  }
  return dataset;
}

// After a full pass, perturbs the cache rows of every flagged item and
// runs an incremental pass: exactly the users who play a flagged item
// (counted by brute force) must be re-solved, and the result must equal a
// fresh full pass over the perturbed cache.
void ExpectPartialPass(const Dataset& dataset, const SkillModel& model,
                       std::vector<double> cache,
                       const std::vector<uint8_t>& dirty,
                       exec::Backend* backend, int num_shards) {
  const int levels = model.num_levels();
  const size_t num_users = static_cast<size_t>(dataset.num_users());
  AssignmentEngine engine(dataset, levels, num_shards);
  const AssignmentStats full = engine.Assign(model, cache, nullptr, backend);
  EXPECT_EQ(full.reassigned_users, num_users);

  for (size_t item = 0; item < dirty.size(); ++item) {
    if (!dirty[item]) continue;
    for (int s = 0; s < levels; ++s) {
      cache[item * static_cast<size_t>(levels) + static_cast<size_t>(s)] -=
          0.5 * (s + 1);
    }
  }
  size_t players = 0;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    for (const Action& a : dataset.sequence(u)) {
      if (dirty[static_cast<size_t>(a.item)]) {
        ++players;
        break;
      }
    }
  }
  const AssignmentStats partial = engine.Assign(
      model, cache, nullptr, backend, &dirty, /*weights_changed=*/false);
  EXPECT_EQ(partial.reassigned_users, players);
  EXPECT_EQ(partial.skipped_users, num_users - players);

  AssignmentEngine fresh(dataset, levels);
  const AssignmentStats oracle = fresh.Assign(model, cache, nullptr);
  EXPECT_EQ(engine.assignments(), fresh.assignments());
  EXPECT_EQ(partial.log_likelihood, oracle.log_likelihood);
}

// Engine-level: a pass with no dirty items skips everyone and changes
// nothing; a dirty pass re-solves exactly the users playing a flagged
// item — one item, every item, or only an item nobody plays — serially
// and on a pool with several shards, with an empty-sequence user among
// them.
TEST(AssignmentSkipTest, EnginePartialDirtyPass) {
  const datagen::GeneratedData data = MakeData(5);
  SkillModelConfig config;
  config.num_levels = 4;
  auto created = SkillModel::Create(data.dataset.schema(), config);
  ASSERT_TRUE(created.ok());
  const SkillModel& model = created.value();
  const size_t num_items =
      static_cast<size_t>(data.dataset.items().num_items());
  ASSERT_GE(num_items, 2u);
  const ItemId unplayed = static_cast<ItemId>(num_items - 1);
  const Dataset dataset =
      WithUnplayedItemAndEmptyUser(data.dataset, unplayed);
  const std::vector<double> cache = model.ItemLogProbCache(dataset.items());
  const size_t num_users = static_cast<size_t>(dataset.num_users());

  {
    // All-clean pass: every user skipped, results carried forward bitwise.
    AssignmentEngine engine(dataset, config.num_levels);
    const AssignmentStats full = engine.Assign(model, cache, nullptr);
    const SkillAssignments baseline = engine.assignments();
    const std::vector<uint8_t> clean(num_items, 0);
    const AssignmentStats skipped = engine.Assign(
        model, cache, nullptr, nullptr, &clean, /*weights_changed=*/false);
    EXPECT_EQ(skipped.skipped_users, num_users);
    EXPECT_EQ(skipped.reassigned_users, 0u);
    EXPECT_FALSE(skipped.changed);
    EXPECT_EQ(skipped.log_likelihood, full.log_likelihood);
    EXPECT_EQ(engine.assignments(), baseline);
  }

  std::vector<uint8_t> one(num_items, 0);
  one[num_items / 2] = 1;
  std::vector<uint8_t> nobody(num_items, 0);
  nobody[static_cast<size_t>(unplayed)] = 1;
  const std::pair<const char*, std::vector<uint8_t>> cases[] = {
      {"one item", one},
      {"every item", std::vector<uint8_t>(num_items, 1)},
      {"an unplayed item", nobody},
  };
  exec::ThreadPoolBackend pool(4);
  for (const auto& [label, dirty] : cases) {
    SCOPED_TRACE(label);
    ExpectPartialPass(dataset, model, cache, dirty, nullptr, 0);
    ExpectPartialPass(dataset, model, cache, dirty, &pool, 7);
  }
}

}  // namespace
}  // namespace upskill
