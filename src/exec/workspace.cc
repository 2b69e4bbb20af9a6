#include "exec/workspace.h"

namespace upskill {
namespace exec {

void ExecContext::EnsureUserShards(const Dataset& dataset,
                                   int requested_shards,
                                   const Backend* backend) {
  const int num_users = dataset.num_users();
  const bool same_dataset =
      dataset_ == &dataset && built_users_ == num_users && built_shards_ > 0;
  // An auto request (<= 0) sticks to whatever plan already exists for this
  // dataset: a driver whose phases run under different backends
  // (assignment vs. update axes) must not rebuild the plan every call, and
  // since the shard count never affects results, any existing plan is as
  // good.
  if (same_dataset && requested_shards <= 0) return;
  const int resolved = ResolveShardCount(requested_shards, backend,
                                         static_cast<size_t>(num_users));
  if (same_dataset && built_shards_ == resolved) return;
  dataset_ = &dataset;
  built_users_ = num_users;
  built_shards_ = resolved;
  plan_ = PlanDatasetShards(dataset, resolved);
  while (workspaces_.size() < static_cast<size_t>(resolved)) {
    workspaces_.emplace_back();
  }
}

}  // namespace exec
}  // namespace upskill
