#ifndef UPSKILL_SERVE_SESSION_STORE_H_
#define UPSKILL_SERVE_SESSION_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace upskill {
namespace serve {

/// Live state of one user's session: the rolling S-sized forward column
/// of the monotone assignment DP (Equation 4) plus the bookkeeping the
/// streaming update needs. The column is the *entire* memory of the
/// user's history the DP requires — O(S) per user regardless of how many
/// actions have been observed — and its argmax (ties to the lowest level)
/// is provably the tail level of re-running the batch DP on the full
/// history (see DESIGN.md, "Streaming skill inference").
struct SessionState {
  /// Forward DP column, one entry per level; empty until the first
  /// observation.
  std::vector<double> column;
  /// Scratch for the ping-pong step (avoids per-request allocation).
  std::vector<double> next_column;
  /// Quantized twin of `column` in int16 accumulator units (see
  /// serve/quantized_model.h); maintained instead of the double column
  /// when the server runs in quantized mode, so each observation touches
  /// S int16 lanes. Carried across snapshot swaps exactly like `column`
  /// (the accumulator scale is model-independent); reset only when S
  /// changes.
  std::vector<int16_t> qcolumn;
  /// Ping-pong scratch for the quantized step.
  std::vector<int16_t> qnext_column;
  /// Timestamp of the most recent observation (drives forgetting gaps).
  int64_t last_time = 0;
  /// Observations folded into the column so far.
  uint64_t actions = 0;
  /// Cached MonotoneForwardLevel(column); 0 before any observation.
  int level = 0;
};

/// Sharded map of user key -> SessionState guarded by striped mutexes:
/// the key hashes to one of `num_shards` shards, each an independent
/// mutex + hash map, so concurrent requests for different users contend
/// only when they collide on a shard. This is the one mutable, shared
/// data structure in the serving layer — everything else is immutable
/// snapshots — and the piece the ThreadSanitizer suite exercises hardest.
class SessionStore {
 public:
  /// `num_shards` is rounded up to a power of two (minimum 1).
  explicit SessionStore(int num_shards = 64);
  ~SessionStore();

  /// Runs `fn` on the (created-if-absent) session for `user`, holding the
  /// shard lock for the duration. Keep `fn` short: it serializes every
  /// session on the same shard.
  template <typename Fn>
  void WithSession(const std::string& user, Fn&& fn) {
    Shard& shard = ShardFor(user);
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [it, inserted] = shard.sessions.try_emplace(user);
    if (inserted) AddLive(1);
    fn(it->second);
  }

  /// Copies the session for `user` into `out`; false when absent.
  bool Lookup(const std::string& user, SessionState* out) const;

  /// Removes the session for `user`; false when absent.
  bool Erase(const std::string& user);

  /// Total live sessions (takes every shard lock; O(shards)).
  size_t size() const;

  /// Drops every session whose last observation is strictly older than
  /// `min_last_time` (sessions with no observation yet have last_time 0
  /// and are evicted by any positive threshold). Returns the number of
  /// sessions removed. Locks one shard at a time, so it can run
  /// concurrently with live traffic; a session observed while its shard
  /// is still pending eviction is judged by its fresh timestamp.
  size_t EvictIdleSessions(int64_t min_last_time);

  /// Histogram of live sessions by current level: out[s] = sessions at
  /// level s, for s in [0, num_levels] (level 0 = no successful
  /// observation yet); sessions reporting a level above `num_levels`
  /// (stale vs. a smaller swapped-in model) are clamped into the top
  /// bin. Locks one shard at a time, so it can run against live traffic;
  /// the result is a consistent-per-shard estimate, which is all the
  /// model-health gauges need.
  std::vector<uint64_t> LevelCounts(int num_levels) const;

  /// Drops every session (e.g. after a snapshot swap changed S).
  void Clear();

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The shard `user` hashes to, in [0, num_shards()).
  size_t ShardIndex(const std::string& user) const {
    return std::hash<std::string>{}(user)&mask_;
  }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, SessionState> sessions;
  };

  /// Adjusts the store's live-session count and the process-wide
  /// `upskill_serve_live_sessions` gauge by `delta`. The gauge is
  /// delta-maintained, so it totals across every live store; each store
  /// retires its remaining sessions on destruction.
  void AddLive(int64_t delta);

  Shard& ShardFor(const std::string& user) {
    return shards_[ShardIndex(user)];
  }
  const Shard& ShardFor(const std::string& user) const {
    return shards_[ShardIndex(user)];
  }

  // unique_ptr-free fixed array: shards are neither copyable nor movable
  // (mutex), so the vector is sized once in the constructor.
  std::vector<Shard> shards_;
  size_t mask_ = 0;
  // This store's share of the live-session gauge (subtracted on
  // destruction so dead stores don't leak gauge mass).
  std::atomic<int64_t> live_{0};
  obs::Gauge& live_gauge_;
  obs::Counter& evictions_;
};

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_SESSION_STORE_H_
