#ifndef UPSKILL_SIMD_KERNELS_IMPL_H_
#define UPSKILL_SIMD_KERNELS_IMPL_H_

// Internal: per-backend kernel bodies, shared between the dispatchers in
// kernels.cc and the AVX2 translation unit (kernels_avx2.cc, built with
// -mavx2 -mpclmul). Not every kernel has an AVX2 body — the dispatcher
// falls back to the scalar reference for the rest (see kernels.cc for the
// per-function coverage table).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

namespace upskill {
namespace simd {

// Scalar twins of the saturating-int16 instructions the quantized
// kernels are built from, shared between the scalar reference bodies and
// the peeled edge lanes inside the vector backends so every lane —
// vectorized or peeled — runs the exact same arithmetic.
namespace detail {

inline int16_t SaturateInt16(int32_t v) {
  return static_cast<int16_t>(std::clamp(v, -32768, 32767));
}

// vpaddsw.
inline int16_t AddSat16(int16_t a, int16_t b) {
  return SaturateInt16(static_cast<int32_t>(a) + static_cast<int32_t>(b));
}

// vpmulhrsw: (a * b + 2^14) >> 15, round to nearest. With the Q15 row
// multiplier in [0, 32767] the result is in [-32767, 0] and the
// instruction's lone saturation corner (-32768 * -32768) is unreachable,
// so the plain cast matches it bit for bit. C++20 defines >> on
// negatives as arithmetic shift.
inline int16_t RowAccUnit(int16_t qlane, int16_t mult) {
  return static_cast<int16_t>(
      (static_cast<int32_t>(qlane) * mult + (1 << 14)) >> 15);
}

}  // namespace detail

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
void DpRowInterior(const double* prev, const double* row, size_t levels,
                   double log_stay, double log_up, double* curr,
                   uint8_t* from);
void DpRowInteriorWithDown(const double* prev, const double* row,
                           size_t levels, double log_stay, double log_up,
                           double log_down, double* curr, uint8_t* from);
// Require levels <= 8; the two-sequence form also two non-empty sequences.
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq);
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& first, const DpSequence& second);
void QuantizedForwardStep(const int16_t* prev_column, const int16_t* qrow,
                          int16_t row_mult, int16_t q_stay, int16_t q_up,
                          bool allow_down, int16_t q_down, size_t levels,
                          int16_t* next_column);
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace avx2
#endif  // x86-64

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_KERNELS_IMPL_H_
