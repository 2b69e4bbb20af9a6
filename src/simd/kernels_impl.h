#ifndef UPSKILL_SIMD_KERNELS_IMPL_H_
#define UPSKILL_SIMD_KERNELS_IMPL_H_

// Internal: the AVX2 kernel bodies (kernels_avx2.cc, built with -mavx2
// -mpclmul) that the dispatchers in kernels.cc call. Only the kernels a
// workload runs vectorized have one; see kernels.cc for the coverage
// table.

#include <cstddef>
#include <cstdint>
#include <span>

namespace upskill {
namespace simd {

#if defined(__x86_64__) || defined(_M_X64)
namespace avx2 {

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow);
void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out);
void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out);
// Require levels <= 8; the two-sequence form also two non-empty sequences.
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq);
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& first, const DpSequence& second);
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace avx2
#endif  // x86-64

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_KERNELS_IMPL_H_
