#ifndef UPSKILL_EXEC_MAP_REDUCE_H_
#define UPSKILL_EXEC_MAP_REDUCE_H_

#include <cstddef>
#include <span>

namespace upskill {
namespace exec {

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
