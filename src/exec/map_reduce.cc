#include "exec/map_reduce.h"

namespace upskill {
namespace exec {

namespace {

double SumRange(const double* values, size_t count) {
  if (count <= kReduceLeafElements) {
    double total = 0.0;
    for (size_t i = 0; i < count; ++i) total += values[i];
    return total;
  }
  const size_t half = count / 2;
  return SumRange(values, half) + SumRange(values + half, count - half);
}

}  // namespace

double ReduceOrderedSum(std::span<const double> values) {
  return SumRange(values.data(), values.size());
}

}  // namespace exec
}  // namespace upskill
