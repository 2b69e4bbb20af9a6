#include "exec/shard.h"

#include <algorithm>

#include "exec/backend.h"

namespace upskill {
namespace exec {

ShardPlan ShardPlan::Contiguous(size_t count, int num_shards) {
  const size_t shards = static_cast<size_t>(std::max(1, num_shards));
  std::vector<size_t> bounds(shards + 1, 0);
  for (size_t k = 1; k <= shards; ++k) {
    bounds[k] = (count * k) / shards;
  }
  bounds[shards] = count;
  return ShardPlan(std::move(bounds));
}

ShardPlan ShardPlan::Balanced(std::span<const size_t> weights,
                              int num_shards) {
  const size_t shards = static_cast<size_t>(std::max(1, num_shards));
  const size_t count = weights.size();
  size_t total = 0;
  for (const size_t w : weights) total += w;
  if (total == 0) return Contiguous(count, num_shards);

  // Shard k ends at the first index whose inclusive prefix weight reaches
  // k+1 ideal shares. One forward scan; cut points are a pure function of
  // (weights, shards).
  std::vector<size_t> bounds(shards + 1, 0);
  size_t prefix = 0;
  size_t index = 0;
  for (size_t k = 1; k < shards; ++k) {
    // Overflow-safe form of prefix >= total * k / shards.
    const size_t target = (total * k + shards - 1) / shards;
    while (index < count && prefix < target) {
      prefix += weights[index];
      ++index;
    }
    bounds[k] = index;
  }
  bounds[shards] = count;
  return ShardPlan(std::move(bounds));
}

int ResolveShardCount(int requested, const Backend* backend, size_t count) {
  if (requested > 0) return requested;
  const int slots = backend != nullptr ? backend->concurrency() : 1;
  const size_t automatic = static_cast<size_t>(std::max(1, slots)) *
                           static_cast<size_t>(kDefaultShardsPerSlot);
  return static_cast<int>(std::max<size_t>(1, std::min(automatic, count)));
}

ShardPlan PlanDatasetShards(const Dataset& dataset, int requested_shards,
                            const Backend* backend) {
  const size_t num_users = static_cast<size_t>(dataset.num_users());
  std::vector<size_t> weights(num_users);
  for (size_t u = 0; u < num_users; ++u) {
    weights[u] = dataset.sequence(static_cast<UserId>(u)).size();
  }
  return ShardPlan::Balanced(
      weights, ResolveShardCount(requested_shards, backend, num_users));
}

}  // namespace exec
}  // namespace upskill
