// Dirty-user skipping in the assignment step must be invisible in the
// results: a trainer run with incremental_assignment enabled produces the
// exact assignments, likelihood trace, and model of a run that re-solves
// every user's DP each iteration. These tests pin that invariant across
// transition models and the forgetting extension, and exercise the
// AssignmentEngine's skip machinery and its patched count grid directly.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "exec/workspace.h"

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

// `source`'s items and users with every action on `unplayed` and on
// `rare` dropped, and three users inserted in the middle: one with an
// empty sequence, one whose single action is the only play of `rare`, and
// one whose single action is item 0. With `source`'s even user count the
// total is odd, so every shard plan has a shard of odd size.
Dataset WithShortUsersAndRareItems(const Dataset& source, ItemId unplayed,
                                   ItemId rare) {
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

Dataset WithShortUsersAndRareItems(const Dataset& source) {
  const ItemId num_items = static_cast<ItemId>(source.items().num_items());
  return WithShortUsersAndRareItems(source, num_items - 1, num_items - 2);
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
  exec::ExecContext context;
  context.EnsureUserShards(dataset, num_shards, backend);
  for (const exec::DatasetShard& shard : context.shards()) {
    if (shard.num_users() % 2 == 1) return true;
  }
  return false;
}

// After a full pass, perturbs the cache rows of every flagged item and
// runs an incremental pass: exactly the users who play a flagged item
// (counted by brute force) must be re-solved. After each pass the paths
// and objective must equal a fresh one-shot pass over the same cache, and
// the tracked grid (recounted by the first pass, patched by the second)
// a fresh sweep of the paths.
void ExpectPartialPass(const Dataset& dataset, const SkillModel& model,
                       std::vector<double> cache,
                       const std::vector<uint8_t>& dirty,
                       exec::Backend* backend, int num_shards) {
  const int levels = model.num_levels();
  const size_t num_users = static_cast<size_t>(dataset.num_users());
  AssignmentEngine engine(dataset, levels, num_shards);
  engine.TrackCounts(
      InitializeAssignments(dataset, levels, /*min_init_actions=*/20));
  const AssignmentStats full = engine.Assign(model, cache, nullptr, backend);
  EXPECT_EQ(full.reassigned_users, num_users);
  const OneShot first = FreshPass(dataset, model, cache);
  EXPECT_EQ(engine.assignments(), first.paths);
  EXPECT_EQ(full.log_likelihood, first.log_likelihood);
  ExpectGridMatchesSweep(engine, dataset, levels);

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

  const OneShot oracle = FreshPass(dataset, model, cache);
  EXPECT_EQ(engine.assignments(), oracle.paths);
  EXPECT_EQ(partial.log_likelihood, oracle.log_likelihood);
  ExpectGridMatchesSweep(engine, dataset, levels);
}

// Engine-level: a pass with no dirty items skips everyone and changes
// nothing; a dirty pass re-solves exactly the users playing a flagged
// item — one item, every item, only an item nobody plays, or only the
// item one user plays (its shard then solves that user alone) — serially
// and on a pool with several shards, some with an odd user count, with
// users of 0 and 1 actions among them.
TEST(AssignmentSkipTest, EnginePartialDirtyPass) {
  const datagen::GeneratedData data = MakeData(5);
  SkillModelConfig config;
  config.num_levels = 4;
  auto created = SkillModel::Create(data.dataset.schema(), config);
  ASSERT_TRUE(created.ok());
  const SkillModel& model = created.value();
  const size_t num_items =
      static_cast<size_t>(data.dataset.items().num_items());
  ASSERT_GE(num_items, 3u);
  const ItemId unplayed = static_cast<ItemId>(num_items - 1);
  const ItemId rare = static_cast<ItemId>(num_items - 2);
  const Dataset dataset =
      WithShortUsersAndRareItems(data.dataset, unplayed, rare);
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
  std::vector<uint8_t> one_player(num_items, 0);
  one_player[static_cast<size_t>(rare)] = 1;
  const std::pair<const char*, std::vector<uint8_t>> cases[] = {
      {"one item", one},
      {"every item", std::vector<uint8_t>(num_items, 1)},
      {"an unplayed item", nobody},
      {"an item one user plays", one_player},
  };
  exec::ThreadPoolBackend pool(4);
  EXPECT_TRUE(HasOddShard(dataset, 0, nullptr));
  EXPECT_TRUE(HasOddShard(dataset, 7, &pool));
  for (const auto& [label, dirty] : cases) {
    SCOPED_TRACE(label);
    ExpectPartialPass(dataset, model, cache, dirty, nullptr, 0);
    ExpectPartialPass(dataset, model, cache, dirty, &pool, 7);
  }
}

enum class PassKind { kPlain, kForgetting, kClasses };

// Drives a count-tracking engine through coordinate-ascent passes that
// refit from its own grid, then through a partial pass whose dirty items
// are pulled to the top level (skipped users keep their path, the rest
// move), and requires after every pass — the first one's recount
// included — that the grid equals a fresh sweep of the engine's paths;
// after each coordinate-ascent pass, the paths and objective must also
// equal a fresh one-shot pass over the same cache. The dataset has
// users of 0 and 1 actions, min_init_actions leaves some users with an
// empty initial path, and some shards have an odd user count.
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
  auto run_pass = [&](const std::vector<double>& cache,
                      const std::vector<uint8_t>* dirty) {
    const AssignmentStats stats =
        kind == PassKind::kClasses
            ? engine.AssignWithClasses(model, cache, classes, backend, dirty,
                                       /*weights_changed=*/false)
            : engine.Assign(model, cache, nullptr, backend, dirty,
                            /*weights_changed=*/false);
    ExpectGridMatchesSweep(engine, dataset, kLevels);
    return stats;
  };

  LogProbCache cache;
  for (int pass = 0; pass < 4; ++pass) {
    SCOPED_TRACE(pass);
    cache.Update(model, dataset.items(), backend);
    const AssignmentStats stats =
        run_pass(cache.values(), pass > 0 ? &cache.dirty_items() : nullptr);
    const OneShot oracle =
        FreshPass(dataset, model, cache.values(), pass_classes);
    EXPECT_EQ(engine.assignments(), oracle.paths);
    EXPECT_EQ(stats.log_likelihood, oracle.log_likelihood);
    FitCellsFromCountGrid(dataset.items(), engine.level_counts(), &model);
  }

  // Partial pass: every seventh item turns dirty and strongly prefers the
  // top level.
  cache.Update(model, dataset.items(), backend);
  std::vector<double> pulled = cache.values();
  std::vector<uint8_t> dirty(static_cast<size_t>(dataset.items().num_items()),
                             0);
  for (size_t item = 0; item < dirty.size(); item += 7) {
    dirty[item] = 1;
    pulled[item * kLevels + (kLevels - 1)] += 20.0;
  }
  const AssignmentStats partial = run_pass(pulled, &dirty);
  EXPECT_GT(partial.skipped_users, 0u);
  EXPECT_GT(partial.reassigned_users, 0u);
  EXPECT_TRUE(partial.changed);
}

TEST(AssignmentEngineCountsTest, PatchedGridMatchesSweepAfterEveryPass) {
  exec::ThreadPoolBackend pool(4);
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

  exec::ThreadPoolBackend pool(4);
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
