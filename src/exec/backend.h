#ifndef UPSKILL_EXEC_BACKEND_H_
#define UPSKILL_EXEC_BACKEND_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_pool.h"

namespace upskill {
namespace exec {

/// Abstract execution engine behind exec::MapShards. A backend owns the
/// *scheduling* of shard bodies and nothing else: every caller already
/// reduces per-element (ReduceOrderedSum) or with exact integer counts
/// merged in fixed shard order, so which thread runs which shard — the
/// only thing a backend controls — can never change results. That is
/// the determinism contract: outputs are bitwise identical across
/// backends, enforced by the backend sweep in tests/exec.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Runs body(shard) exactly once for every shard in [0, num_shards).
  /// Non-virtual on purpose: the entry point guards degenerate counts
  /// (num_shards <= 0 returns without dispatching, so a degenerate
  /// ShardPlan over an empty mapped store cannot reach any
  /// implementation) and owns the obs instrumentation — per-shard
  /// "exec/shard" spans, the slowest/mean imbalance gauge, and the
  /// per-backend upskill_exec_shard_seconds histogram — so every
  /// implementation inherits both.
  void Run(int num_shards, const std::function<void(int shard)>& body);

  /// Runs body(i) exactly once for every i in [begin, end): the
  /// index-loop shape of the audited cell/item/block ParallelFor sites
  /// in core/trainer.cc and core/skill_model.cc. Chunking is
  /// implementation-defined; an empty range returns without
  /// dispatching. Not instrumented (the migrated sites never were).
  void RunIndices(size_t begin, size_t end,
                  const std::function<void(size_t index)>& body);

  /// Stable identifier ("serial" or "pool"); labels metrics.
  virtual const char* name() const = 0;

  /// Maximum concurrent execution slots, counting the calling thread;
  /// always >= 1. ResolveShardCount sizes automatic shard counts from
  /// this.
  virtual int concurrency() const = 0;

 protected:
  /// Scheduling core: dispatch body over [0, num_shards). Only called
  /// with num_shards >= 1.
  virtual void RunShards(int num_shards,
                         const std::function<void(int shard)>& body) = 0;

  /// Index-loop core. Only called with a non-empty range.
  virtual void RunIndexLoop(size_t begin, size_t end,
                            const std::function<void(size_t index)>& body) = 0;
};

/// Inline, pool-free execution: body runs on the calling thread in
/// shard order. Every `Backend*` parameter treats null as this backend.
class SerialBackend : public Backend {
 public:
  /// Shared process-wide instance (stateless; safe from any thread).
  static SerialBackend* Get();

  const char* name() const override { return "serial"; }
  int concurrency() const override { return 1; }

 protected:
  void RunShards(int num_shards,
                 const std::function<void(int shard)>& body) override;
  void RunIndexLoop(size_t begin, size_t end,
                    const std::function<void(size_t index)>& body) override;
};

/// Runs shards and index loops on an owned ThreadPool through the
/// ParallelFor machinery.
class ThreadPoolBackend : public Backend {
 public:
  /// Owns a new pool with max(1, num_threads) workers.
  explicit ThreadPoolBackend(int num_threads);

  const char* name() const override { return "pool"; }
  int concurrency() const override { return ParallelMaxSlots(&pool_); }

 protected:
  void RunShards(int num_shards,
                 const std::function<void(int shard)>& body) override;
  void RunIndexLoop(size_t begin, size_t end,
                    const std::function<void(size_t index)>& body) override;

 private:
  ThreadPool pool_;
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
