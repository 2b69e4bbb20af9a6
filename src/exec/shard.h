#ifndef UPSKILL_EXEC_SHARD_H_
#define UPSKILL_EXEC_SHARD_H_

#include <cstddef>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace upskill {
namespace exec {

/// Half-open index range [begin, end).
struct IndexRange {
  size_t begin = 0;
  size_t end = 0;

  size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

/// A partition of [0, total) into `num_shards` contiguous half-open
/// ranges. Shards may be empty (more shards than elements, or zero-weight
/// prefixes); ranges always cover the space exactly once in order.
class ShardPlan {
 public:
  /// Zero shards over zero elements.
  ShardPlan() = default;

  /// Equal-count partition of [0, count).
  static ShardPlan Contiguous(size_t count, int num_shards);

  /// Weight-balanced partition of [0, weights.size()): shard k ends at
  /// the first index whose prefix weight reaches k+1 shares of the total.
  /// Zero-weight elements attach to whichever shard the cut lands them
  /// in; an all-zero weight vector degenerates to Contiguous.
  static ShardPlan Balanced(std::span<const size_t> weights, int num_shards);

  int num_shards() const {
    return bounds_.empty() ? 0 : static_cast<int>(bounds_.size()) - 1;
  }
  size_t total() const { return bounds_.empty() ? 0 : bounds_.back(); }

  IndexRange range(int shard) const {
    return IndexRange{bounds_[static_cast<size_t>(shard)],
                      bounds_[static_cast<size_t>(shard) + 1]};
  }

 private:
  explicit ShardPlan(std::vector<size_t> bounds) : bounds_(std::move(bounds)) {}

  // num_shards + 1 monotone boundaries; bounds_[0] == 0.
  std::vector<size_t> bounds_;
};

/// Shards-per-slot oversubscription used when the shard count is left to
/// the runtime: enough shards that dynamic scheduling can rebalance a
/// skewed tail, few enough that per-shard scratch stays cheap.
inline constexpr int kDefaultShardsPerSlot = 4;

class Backend;

/// Resolves a shard-count request: `requested > 0` is honored as-is
/// (empty shards are harmless), otherwise kDefaultShardsPerSlot shards
/// per slot of `backend` (its concurrency(); null is serial, one slot),
/// clamped to `count` (minimum 1). The resolved count never affects
/// results — every consumer in this repository reduces at element
/// granularity or with exact sums — only scheduling.
int ResolveShardCount(int requested, const Backend* backend, size_t count);

/// Plans the user axis of `dataset`: ShardPlan::Balanced over the users'
/// sequence lengths, into ResolveShardCount(requested_shards, backend,
/// num_users) shards. The training drivers plan from the backend their
/// user loop runs on and keep the plan for the whole run.
ShardPlan PlanDatasetShards(const Dataset& dataset, int requested_shards,
                            const Backend* backend);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_SHARD_H_
