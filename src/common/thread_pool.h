#ifndef UPSKILL_COMMON_THREAD_POOL_H_
#define UPSKILL_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace upskill {

/// Fixed-size worker pool. Section IV-C of the paper derives three
/// independent axes of parallelism for training (users in the assignment
/// step; skill levels and features in the update step); callers request
/// them through exec::Backend, and exec::ThreadPoolBackend runs them on
/// this pool via ParallelFor below.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. Pool-global: it
  /// observes tasks submitted by *any* thread, so callers coordinating a
  /// specific batch should prefer ParallelFor/ParallelForChunked, which
  /// block on a per-call completion latch instead.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  size_t in_flight_ = 0;  // queued + currently executing tasks
  bool shutting_down_ = false;
};

/// Exclusive upper bound on the `slot` values ParallelForChunked passes to
/// its body on `pool`: one slot per pool worker plus one for the calling
/// thread (1 when `pool` is null). Size per-slot accumulators with this.
int ParallelMaxSlots(const ThreadPool* pool);

/// Dynamically scheduled chunked loop: [begin, end) is carved into chunks
/// that the pool's workers and the calling thread grab off a shared
/// atomic counter, so skewed per-index costs cannot serialize the tail
/// the way static chunking does. `chunk_body(slot, chunk_begin,
/// chunk_end)` processes one contiguous chunk; `slot` is stable for the
/// duration of the thread's participation in this call and lies in
/// [0, ParallelMaxSlots(pool)), which makes per-slot scratch state safe
/// without locking. Which slot sees which chunk is nondeterministic, so
/// per-slot accumulation is only order-independent-safe (e.g. exact
/// integer counts).
///
/// Completion blocks on a per-call latch, never on the pool-global
/// Wait(): concurrent and nested loops on one pool are safe, and the
/// calling thread always participates, so a nested loop completes even
/// when every other worker is busy.
void ParallelForChunked(
    ThreadPool* pool, size_t begin, size_t end,
    const std::function<void(int slot, size_t chunk_begin, size_t chunk_end)>&
        chunk_body);

/// Runs `body(i)` for every i in [begin, end). When `pool` is null or the
/// range is trivial, runs inline on the calling thread; otherwise
/// schedules dynamically via ParallelForChunked. `body` must be safe to
/// invoke concurrently for distinct indices.
void ParallelFor(ThreadPool* pool, size_t begin, size_t end,
                 const std::function<void(size_t)>& body);

}  // namespace upskill

#endif  // UPSKILL_COMMON_THREAD_POOL_H_
