// The AssignmentEngine against its oracles: a training run whose first
// pass already finds the fixpoint, and the engine's patched count grid,
// paths and objective against a fresh sweep and a fresh one-shot pass
// after every pass.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "exec/backend.h"
#include "exec/shard.h"

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

// A dataset whose uniform-segmentation initialization is already the DP
// optimum: 3 groups of level-pure items, every user playing 4 items of
// each group in order. Iteration 0 reproduces the initial assignments, so
// the refit leaves every parameter bitwise unchanged, and iteration 1
// moves no path and ends training.
TEST(AssignmentEngineTest, StableDatasetConvergesOnSecondPass) {
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
  EXPECT_EQ(result.value().iterations, 2);
  for (const std::vector<int>& levels : result.value().assignments) {
    EXPECT_EQ(levels, (std::vector<int>{1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}));
  }
}

// `source`'s items and users with every action on its last two items
// dropped, and three users inserted in the middle: one with an empty
// sequence, one whose single action is the only play of the second-last
// item, and one whose single action is item 0. The last item is played by
// nobody. With `source`'s even user count the total is odd, so every shard
// plan has a shard of odd size.
Dataset WithShortUsersAndRareItems(const Dataset& source) {
  const ItemId unplayed = static_cast<ItemId>(source.items().num_items() - 1);
  const ItemId rare = unplayed - 1;
  Dataset dataset(source.items());
  for (UserId u = 0; u < source.num_users(); ++u) {
    if (u == source.num_users() / 2) {
      dataset.AddUser();
      EXPECT_TRUE(dataset.AddAction(dataset.AddUser(), 0, rare).ok());
      EXPECT_TRUE(dataset.AddAction(dataset.AddUser(), 0, 0).ok());
    }
    const UserId user = dataset.AddUser();
    for (const Action& a : source.sequence(u)) {
      if (a.item == unplayed || a.item == rare) continue;
      EXPECT_TRUE(dataset.AddAction(user, a.time, a.item).ok());
    }
  }
  return dataset;
}

// The paths and objective of a fresh engine's one-shot pass over `cache`.
struct OneShot {
  SkillAssignments paths;
  double log_likelihood = 0.0;
};

OneShot FreshPass(const Dataset& dataset, const SkillModel& model,
                  const std::vector<double>& cache,
                  std::span<const ProgressionClassWeights> classes = {}) {
  AssignmentEngine fresh(dataset, model.num_levels());
  const AssignmentStats stats =
      classes.empty() ? fresh.Assign(model, cache, nullptr)
                      : fresh.AssignWithClasses(model, cache, classes);
  return {fresh.assignments(), stats.log_likelihood};
}

// Bit patterns of a count grid: +0.0 and -0.0 compare equal as doubles,
// but a patched grid must match a fresh sweep bit for bit.
std::vector<uint64_t> GridBits(std::span<const double> grid) {
  std::vector<uint64_t> bits(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    bits[i] = std::bit_cast<uint64_t>(grid[i]);
  }
  return bits;
}

void ExpectGridMatchesSweep(const AssignmentEngine& engine,
                            const Dataset& dataset, int num_levels) {
  EXPECT_EQ(GridBits(engine.level_counts()),
            GridBits(CountAssignedActions(dataset, engine.assignments(),
                                          num_levels)));
}

// Whether `num_shards` (<= 0: resolved against `backend`) cuts the
// dataset's users into a shard with an odd user count, as the engine cuts
// them.
bool HasOddShard(const Dataset& dataset, int num_shards,
                 exec::Backend* backend) {
  const exec::ShardPlan plan =
      exec::PlanDatasetShards(dataset, num_shards, backend);
  for (int k = 0; k < plan.num_shards(); ++k) {
    if (plan.range(k).size() % 2 == 1) return true;
  }
  return false;
}

enum class PassKind { kPlain, kForgetting, kClasses };

// Drives a count-tracking engine through coordinate-ascent passes that
// refit from its own grid, then through a pass with every seventh item
// pulled to the top level, and requires after every pass — the first
// one's recount included — that the grid equals a fresh sweep of the
// engine's paths, and the paths and objective a fresh one-shot pass over
// the same cache. The dataset has users of 0 and 1 actions,
// min_init_actions leaves some users with an empty initial path, and some
// shards have an odd user count.
void ExpectGridTracksPaths(PassKind kind, exec::Backend* backend,
                           int num_shards) {
  constexpr int kLevels = 4;
  const datagen::GeneratedData data = MakeData(6);
  const Dataset dataset = WithShortUsersAndRareItems(data.dataset);
  EXPECT_TRUE(HasOddShard(dataset, num_shards, backend));
  SkillModelConfig config;
  config.num_levels = kLevels;
  config.min_init_actions = 25;
  if (kind == PassKind::kForgetting) {
    config.forgetting.enabled = true;
    config.forgetting.gap_threshold = 50;
    config.forgetting.drop_probability = 0.1;
  }
  SkillModel model = SkillModel::Create(dataset.schema(), config).value();
  const SkillAssignments init = InitializeAssignments(
      dataset, kLevels, config.min_init_actions);
  size_t empty_initial = 0;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (!dataset.sequence(u).empty() && init[static_cast<size_t>(u)].empty()) {
      ++empty_initial;
    }
  }
  ASSERT_GT(empty_initial, 0u);

  std::vector<ProgressionClassWeights> classes(2);
  for (size_t c = 0; c < classes.size(); ++c) {
    const double p_up = c == 0 ? 0.05 : 0.3;
    classes[c].weights.log_up = std::log(p_up);
    classes[c].weights.log_stay = std::log(1.0 - p_up);
    classes[c].log_prior = std::log(0.5);
  }
  AssignmentEngine engine(dataset, kLevels, num_shards);
  engine.TrackCounts(init);
  ExpectGridMatchesSweep(engine, dataset, kLevels);
  FitCellsFromCountGrid(dataset.items(), engine.level_counts(), &model);
  const std::span<const ProgressionClassWeights> pass_classes =
      kind == PassKind::kClasses
          ? std::span<const ProgressionClassWeights>(classes)
          : std::span<const ProgressionClassWeights>();
  auto run_pass = [&](const std::vector<double>& cache) {
    const AssignmentStats stats =
        kind == PassKind::kClasses
            ? engine.AssignWithClasses(model, cache, classes, backend)
            : engine.Assign(model, cache, nullptr, backend);
    ExpectGridMatchesSweep(engine, dataset, kLevels);
    const OneShot oracle = FreshPass(dataset, model, cache, pass_classes);
    EXPECT_EQ(engine.assignments(), oracle.paths);
    EXPECT_EQ(stats.log_likelihood, oracle.log_likelihood);
    return stats;
  };

  LogProbCache cache;
  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE(pass);
    cache.Update(model, dataset.items(), backend);
    run_pass(cache.values());
    FitCellsFromCountGrid(dataset.items(), engine.level_counts(), &model);
  }

  // Every seventh item strongly prefers the top level, so some paths move
  // and the grid is patched.
  cache.Update(model, dataset.items(), backend);
  std::vector<double> pulled = cache.values();
  for (size_t item = 0; item < static_cast<size_t>(dataset.items().num_items());
       item += 7) {
    pulled[item * kLevels + (kLevels - 1)] += 20.0;
  }
  EXPECT_TRUE(run_pass(pulled).changed);
}

TEST(AssignmentEngineCountsTest, PatchedGridMatchesSweepAfterEveryPass) {
  exec::Backend pool(4);
  for (const PassKind kind :
       {PassKind::kPlain, PassKind::kForgetting, PassKind::kClasses}) {
    SCOPED_TRACE(static_cast<int>(kind));
    {
      SCOPED_TRACE("serial");
      ExpectGridTracksPaths(kind, nullptr, 0);
    }
    {
      SCOPED_TRACE("pool(4), 7 shards");
      ExpectGridTracksPaths(kind, &pool, 7);
    }
  }
}

// A pass where every class log-prior is -inf leaves no winning class, so
// AssignWithClasses clears every path: the grid must drop to all +0.0.
// The next pass re-adds every path from empty.
TEST(AssignmentEngineCountsTest, ClearedPathsLeaveAPositiveZeroGrid) {
  constexpr int kLevels = 3;
  const datagen::GeneratedData data = MakeData(7);
  const Dataset dataset = WithShortUsersAndRareItems(data.dataset);
  SkillModelConfig config;
  config.num_levels = kLevels;
  const SkillModel model =
      SkillModel::Create(dataset.schema(), config).value();
  const std::vector<double> cache = model.ItemLogProbCache(dataset.items());
  std::vector<ProgressionClassWeights> classes(2);
  classes[1].weights.log_up = std::log(0.2);
  classes[1].weights.log_stay = std::log(0.8);
  std::vector<ProgressionClassWeights> hopeless = classes;
  for (ProgressionClassWeights& c : hopeless) {
    c.log_prior = -std::numeric_limits<double>::infinity();
  }

  exec::Backend pool(4);
  const std::pair<exec::Backend*, int> runs[] = {{nullptr, 0}, {&pool, 7}};
  for (const auto& [backend, shards] : runs) {
    SCOPED_TRACE(shards);
    AssignmentEngine engine(dataset, kLevels, shards);
    engine.TrackCounts(
        InitializeAssignments(dataset, kLevels, /*min_init_actions=*/20));
    engine.AssignWithClasses(model, cache, classes, backend);
    ExpectGridMatchesSweep(engine, dataset, kLevels);

    engine.AssignWithClasses(model, cache, hopeless, backend);
    for (const std::vector<int>& path : engine.assignments()) {
      EXPECT_TRUE(path.empty());
    }
    EXPECT_EQ(GridBits(engine.level_counts()),
              std::vector<uint64_t>(engine.level_counts().size(), 0));

    engine.AssignWithClasses(model, cache, classes, backend);
    ExpectGridMatchesSweep(engine, dataset, kLevels);
    EXPECT_EQ(engine.assignments().front().size(),
              dataset.sequence(0).size());
  }
}

}  // namespace
}  // namespace upskill
