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

/// How a ShardPlan cuts an index space into contiguous runs.
enum class PartitionStrategy {
  /// Equal element counts per shard (±1). Right for index spaces whose
  /// per-element cost is uniform (batch requests, ranking levels, test
  /// cases).
  kContiguous,
  /// Contiguous runs balanced by a per-element weight (e.g. per-user
  /// action counts), so one long-sequence user cannot serialize a shard's
  /// tail. Cut points depend only on the weights and the shard count —
  /// never on thread count or scheduling — so the plan is deterministic.
  kBalanced,
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
/// skewed tail, few enough that per-shard workspaces stay cheap.
inline constexpr int kDefaultShardsPerSlot = 4;

class Backend;

/// Resolves a shard-count request: `requested > 0` is honored as-is
/// (empty shards are harmless), otherwise kDefaultShardsPerSlot shards
/// per slot of `backend` (its concurrency(); null is serial, one slot),
/// clamped to `count` (minimum 1). The resolved count never affects
/// results — every consumer in this repository reduces at element
/// granularity or with exact sums — only scheduling.
int ResolveShardCount(int requested, const Backend* backend, size_t count);

/// Immutable zero-copy view over a contiguous run of a Dataset's users:
/// the sequence spans stay owned by the Dataset, the ItemTable is shared.
/// The Dataset must outlive the shard and keep its sequences unchanged.
class DatasetShard {
 public:
  DatasetShard() = default;
  DatasetShard(const Dataset& dataset, IndexRange users);

  const Dataset& dataset() const { return *dataset_; }
  const ItemTable& items() const { return dataset_->items(); }

  /// Global user-id bounds of this shard.
  UserId user_begin() const { return static_cast<UserId>(users_.begin); }
  UserId user_end() const { return static_cast<UserId>(users_.end); }
  size_t num_users() const { return users_.size(); }
  /// Total actions across the shard's users (computed at construction).
  size_t num_actions() const { return num_actions_; }

  /// Sequence of a *global* user id; must lie in [user_begin, user_end).
  std::span<const Action> sequence(UserId user) const {
    return dataset_->sequence(user);
  }

 private:
  const Dataset* dataset_ = nullptr;
  IndexRange users_;
  size_t num_actions_ = 0;
};

/// Plans the user axis of `dataset`: kBalanced weighs users by sequence
/// length, kContiguous splits by user count.
ShardPlan PlanDatasetShards(const Dataset& dataset, int num_shards,
                            PartitionStrategy strategy =
                                PartitionStrategy::kBalanced);

/// Materializes one DatasetShard view per plan range.
std::vector<DatasetShard> MakeDatasetShards(const Dataset& dataset,
                                            const ShardPlan& plan);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_SHARD_H_
