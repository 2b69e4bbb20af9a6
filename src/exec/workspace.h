#ifndef UPSKILL_EXEC_WORKSPACE_H_
#define UPSKILL_EXEC_WORKSPACE_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/dp.h"
#include "exec/shard.h"

namespace upskill {
namespace exec {

/// Per-shard scratch owned across iterations. One workspace is bound to
/// one shard index for the lifetime of an ExecContext, so buffers grown
/// for a shard's longest sequence are reused on every subsequent pass —
/// what used to be per-call (or per-thread) scratch in the trainer,
/// EM, and readout loops. Workspaces are only ever touched by the single
/// MapShards task running their shard, never concurrently.
struct ShardWorkspace {
  /// Assignment-step / readout DP arena (core/dp.h).
  DpScratch dp;
  /// The second user's arena when the assignment step solves two users
  /// in one kernel call.
  DpScratch pair_dp;
  /// Count-grid moves of the shard's users in the last assignment pass:
  /// the (level, item) cell offsets their old paths left and their new
  /// paths entered. Filled by the shard task, applied as exact -1 / +1
  /// by the caller in shard order after the join.
  std::vector<uint32_t> removed_cells;
  std::vector<uint32_t> added_cells;
  /// EM forward/backward arenas (n x S per user, resized per sequence).
  std::vector<double> alpha;
  std::vector<double> beta;
  /// Whether any of the shard's paths moved in the last assignment pass,
  /// gathered in shard order.
  bool changed = false;
};

/// The sharded-execution state one driver (a Trainer run, an EM run, a
/// standalone assignment pass) carries across iterations: the user-axis
/// ShardPlan and one ShardWorkspace per shard. Shard k's users are
/// plan().range(k); their sequences are read from the dataset itself.
/// EnsureUserShards is idempotent for an unchanged (dataset, shard count)
/// pair, so calling it at the top of every pass costs nothing
/// in the steady state while keeping workspaces (and their grown arenas)
/// alive between passes.
class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// (Re)builds the plan and workspaces for `dataset`'s user axis,
  /// balanced by action count (PlanDatasetShards).
  /// `requested_shards <= 0` resolves against `backend`'s concurrency
  /// (null = serial) via ResolveShardCount — but reuses ANY existing plan
  /// for the same (dataset, user count) first, so a trainer that sizes
  /// the plan once from its full backend keeps it when later phases pass
  /// an axis-gated one. An explicit request rebuilds when it
  /// differs from the built count. Workspaces are kept (grow-only) so
  /// arenas persist across rebuilds.
  void EnsureUserShards(const Dataset& dataset, int requested_shards,
                        const Backend* backend = nullptr);

  const ShardPlan& plan() const { return plan_; }
  int num_shards() const { return plan_.num_shards(); }

  ShardWorkspace& workspace(int shard) {
    return workspaces_[static_cast<size_t>(shard)];
  }

 private:
  const Dataset* dataset_ = nullptr;
  int built_users_ = -1;
  int built_shards_ = 0;
  ShardPlan plan_;
  // deque: stable addresses while growing, no moves of live arenas.
  std::deque<ShardWorkspace> workspaces_;
};

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_WORKSPACE_H_
