#ifndef UPSKILL_EXEC_MAP_REDUCE_H_
#define UPSKILL_EXEC_MAP_REDUCE_H_

#include <cstddef>
#include <functional>
#include <span>

namespace upskill {
namespace exec {

class Backend;

/// Runs `body(shard)` once for every shard index in [0, num_shards),
/// scheduled by `backend` (inline through Backend::Serial() when null).
/// Each shard index is visited exactly once, so per-shard state (a
/// ShardWorkspace) is safe without locking; which thread runs which
/// shard is nondeterministic, which is exactly why results must never
/// depend on it — reduce per-element (ReduceOrderedSum) or with exact
/// order-independent sums. This is a thin forward to Backend::Run,
/// which owns the num_shards <= 0 guard and the obs instrumentation.
void MapShards(Backend* backend, int num_shards,
               const std::function<void(int shard)>& body);

/// Elements folded serially (left to right) at each leaf of the ordered
/// reduction below. Sums over fewer than this many elements are bitwise
/// equal to a plain serial accumulation.
inline constexpr size_t kReduceLeafElements = 16;

/// Deterministic fixed-shape pairwise tree sum. The split points depend
/// only on values.size(), so the result is a pure function of the element
/// values in index order: bitwise identical for any thread count and any
/// shard count that produced them, unlike a reduction over per-thread or
/// per-shard partials (whose boundaries move with the configuration).
/// This is the one reduction shape every float accumulation in the
/// training/eval stack funnels through.
double ReduceOrderedSum(std::span<const double> values);

}  // namespace exec
}  // namespace upskill

#endif  // UPSKILL_EXEC_MAP_REDUCE_H_
