// Unit tests for the sharded execution core: plan coverage and balance,
// shard-count resolution, the user-axis plan's ranges, and the
// fixed-shape ordered reductions.

#include "exec/shard.h"

#include <gtest/gtest.h>

#include <vector>

#include "data/dataset.h"
#include "exec/backend.h"
#include "exec/map_reduce.h"

namespace upskill {
namespace exec {
namespace {

Dataset MakeDataset(const std::vector<int>& sequence_lengths,
                    int num_items = 8) {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < num_items; ++i) {
    const double row[] = {static_cast<double>(i + 1)};
    EXPECT_TRUE(items.AddItem(row).ok());
  }
  Dataset dataset(std::move(items));
  for (const int length : sequence_lengths) {
    const UserId user = dataset.AddUser();
    for (int n = 0; n < length; ++n) {
      EXPECT_TRUE(
          dataset.AddAction(user, n, static_cast<ItemId>(n % num_items)).ok());
    }
  }
  return dataset;
}

void ExpectCoversExactly(const ShardPlan& plan, size_t count) {
  ASSERT_GT(plan.num_shards(), 0);
  EXPECT_EQ(plan.total(), count);
  size_t expected_begin = 0;
  for (int k = 0; k < plan.num_shards(); ++k) {
    const IndexRange range = plan.range(k);
    EXPECT_EQ(range.begin, expected_begin) << "shard " << k;
    EXPECT_LE(range.begin, range.end) << "shard " << k;
    expected_begin = range.end;
  }
  EXPECT_EQ(expected_begin, count);
}

TEST(ShardPlanTest, ContiguousCoversEverySplit) {
  for (const size_t count : {0u, 1u, 2u, 7u, 16u, 100u}) {
    for (const int shards : {1, 2, 3, 7, 16}) {
      const ShardPlan plan = ShardPlan::Contiguous(count, shards);
      EXPECT_EQ(plan.num_shards(), shards);
      ExpectCoversExactly(plan, count);
      // Equal counts up to one element.
      for (int k = 0; k < shards; ++k) {
        const size_t size = plan.range(k).size();
        EXPECT_LE(size, count / static_cast<size_t>(shards) + 1);
      }
    }
  }
}

TEST(ShardPlanTest, MoreShardsThanElementsLeavesEmptyShards) {
  const ShardPlan plan = ShardPlan::Contiguous(3, 8);
  ExpectCoversExactly(plan, 3);
  int non_empty = 0;
  for (int k = 0; k < plan.num_shards(); ++k) {
    if (!plan.range(k).empty()) ++non_empty;
  }
  EXPECT_EQ(non_empty, 3);
}

TEST(ShardPlanTest, BalancedIsolatesHeavyPrefix) {
  // One user holds ~95% of the weight: it must get a shard of its own
  // instead of serializing half the index space.
  const std::vector<size_t> weights = {100, 1, 1, 1, 1, 1};
  const ShardPlan plan = ShardPlan::Balanced(weights, 2);
  ExpectCoversExactly(plan, weights.size());
  EXPECT_EQ(plan.range(0).end, 1u);
  EXPECT_EQ(plan.range(1).begin, 1u);
}

TEST(ShardPlanTest, BalancedCoversAndIsDeterministic) {
  const std::vector<size_t> weights = {3, 9, 1, 1, 4, 7, 2, 2, 8, 1};
  for (const int shards : {1, 2, 3, 4, 7, 12}) {
    const ShardPlan plan = ShardPlan::Balanced(weights, shards);
    ExpectCoversExactly(plan, weights.size());
    // Same inputs, same cuts: the plan is a pure function of the weights.
    const ShardPlan again = ShardPlan::Balanced(weights, shards);
    for (int k = 0; k < shards; ++k) {
      EXPECT_EQ(plan.range(k).begin, again.range(k).begin);
      EXPECT_EQ(plan.range(k).end, again.range(k).end);
    }
  }
}

TEST(ShardPlanTest, BalancedAllZeroWeightsDegeneratesToContiguous) {
  const std::vector<size_t> weights(10, 0);
  const ShardPlan balanced = ShardPlan::Balanced(weights, 3);
  const ShardPlan contiguous = ShardPlan::Contiguous(10, 3);
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(balanced.range(k).begin, contiguous.range(k).begin);
    EXPECT_EQ(balanced.range(k).end, contiguous.range(k).end);
  }
}

TEST(ResolveShardCountTest, HonorsExplicitRequest) {
  EXPECT_EQ(ResolveShardCount(7, nullptr, 3), 7);
  EXPECT_EQ(ResolveShardCount(1, nullptr, 1000), 1);
}

TEST(ResolveShardCountTest, AutoScalesWithPoolAndClampsToCount) {
  // A serial backend still gets kDefaultShardsPerSlot shards (one slot):
  // shard count only affects scheduling granularity, never results.
  EXPECT_EQ(ResolveShardCount(0, nullptr, 100), kDefaultShardsPerSlot);
  EXPECT_EQ(ResolveShardCount(0, Backend::Serial(), 100),
            kDefaultShardsPerSlot);
  EXPECT_EQ(ResolveShardCount(0, nullptr, 0), 1);
  Backend pool(3);  // 4 slots (workers + caller)
  EXPECT_EQ(ResolveShardCount(0, &pool, 1000), 4 * kDefaultShardsPerSlot);
  EXPECT_EQ(ResolveShardCount(0, &pool, 5), 5);
  EXPECT_EQ(ResolveShardCount(-1, &pool, 0), 1);
}

TEST(PlanDatasetShardsTest, RangesPartitionUsersAndActions) {
  const Dataset dataset = MakeDataset({5, 0, 9, 2, 14, 1});
  const ShardPlan plan = PlanDatasetShards(dataset, 3, nullptr);
  ASSERT_EQ(plan.num_shards(), 3);
  // The ranges tile the user axis in order, so every user, and with it
  // every action, lands in exactly one shard.
  std::vector<int> visits(static_cast<size_t>(dataset.num_users()), 0);
  size_t next = 0;
  size_t actions = 0;
  for (int k = 0; k < plan.num_shards(); ++k) {
    const IndexRange users = plan.range(k);
    EXPECT_EQ(users.begin, next) << k;
    next = users.end;
    for (size_t u = users.begin; u < users.end; ++u) {
      ++visits[u];
      actions += dataset.sequence(static_cast<UserId>(u)).size();
    }
  }
  EXPECT_EQ(next, static_cast<size_t>(dataset.num_users()));
  for (const int count : visits) EXPECT_EQ(count, 1);
  EXPECT_EQ(actions, dataset.num_actions());
}

TEST(ReduceOrderedSumTest, MatchesSerialBelowLeafSize) {
  std::vector<double> values;
  for (size_t i = 0; i < kReduceLeafElements; ++i) {
    values.push_back(0.1 * static_cast<double>(i + 1));
    double serial = 0.0;
    for (const double v : values) serial += v;
    // Bitwise: small sums must be indistinguishable from the plain loop.
    EXPECT_EQ(ReduceOrderedSum(values), serial) << values.size();
  }
}

TEST(ReduceOrderedSumTest, FixedShapeIsPureFunctionOfValues) {
  std::vector<double> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 3);
  }
  const double once = ReduceOrderedSum(values);
  EXPECT_EQ(ReduceOrderedSum(values), once);
  // Sanity: close to the serial sum even though reassociated.
  double serial = 0.0;
  for (const double v : values) serial += v;
  EXPECT_NEAR(once, serial, 1e-9);
  EXPECT_EQ(ReduceOrderedSum(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace exec
}  // namespace upskill
