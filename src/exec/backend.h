#ifndef UPSKILL_EXEC_BACKEND_H_
#define UPSKILL_EXEC_BACKEND_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"

namespace upskill {
namespace exec {

/// The execution engine behind every parallel loop in the process.
/// Section IV-C of the paper derives three independent axes of
/// parallelism for training (users in the assignment step; skill levels
/// and features in the update step); callers request them all through a
/// Backend.
///
/// A backend owns its worker threads and the *scheduling* of loop bodies
/// and nothing else: every caller already reduces per-element
/// (ReduceOrderedSum) or with exact integer counts merged in fixed shard
/// order, so which thread runs which index — the only thing a backend
/// controls — can never change results. That is the determinism contract:
/// outputs are bitwise identical for every worker count, enforced by the
/// backend sweep in tests/exec.
///
/// A loop is carved into chunks of max(1, n / (8 * workers)) indices that
/// the workers and the calling thread grab off a shared atomic counter, so
/// skewed per-index costs cannot serialize the tail. The caller always
/// takes a share, and completion blocks on a per-call latch, so concurrent
/// loops on one backend, and loops nested in a loop body, always finish.
/// Without workers, or for a one-index range, the loop runs inline.
class Backend {
 public:
  /// Spawns max(0, num_workers) worker threads; zero workers is serial.
  explicit Backend(int num_workers);
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Shared process-wide backend with no workers: bodies run on the
  /// calling thread in index order. Every `Backend*` parameter treats null
  /// as this backend.
  static Backend* Serial();

  /// Runs body(shard) exactly once for every shard in [0, num_shards);
  /// num_shards <= 0 returns without dispatching. Instrumented: per-shard
  /// "exec/shard" spans, the slowest/mean imbalance gauge, and the
  /// per-backend upskill_exec_shard_seconds histogram.
  void Run(int num_shards, const std::function<void(int shard)>& body);

  /// Runs body(i) exactly once for every i in [begin, end): the
  /// index-loop shape of the cell/item/block loops in core/trainer.cc and
  /// core/skill_model.cc. An empty or reversed range returns without
  /// dispatching. Not instrumented.
  void RunIndices(size_t begin, size_t end,
                  const std::function<void(size_t index)>& body);

  /// Stable identifier ("serial" without workers, "pool" with); labels
  /// metrics.
  const char* name() const { return workers_.empty() ? "serial" : "pool"; }

  /// Maximum concurrent runners: the workers plus the calling thread.
  /// ResolveShardCount sizes automatic shard counts from this.
  int concurrency() const { return static_cast<int>(workers_.size()) + 1; }

 private:
  struct Loop;

  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  /// One entry per worker share of a running loop.
  std::deque<std::shared_ptr<Loop>> queue_;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

/// Builds the backend behind `--backend` and SkillModelConfig::backend:
/// "serial", or "pool" with max(1, num_threads) workers. "" and "auto"
/// pick "pool" when num_threads > 1 and "serial" otherwise. Any other
/// name fails with InvalidArgument.
Result<std::shared_ptr<Backend>> CreateBackend(const std::string& name,
                                               int num_threads);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_BACKEND_H_
