// AVX2 kernel bodies. This translation unit is compiled with -mavx2
// -mpclmul (and nothing more — in particular no -mfma, and the project
// builds with -ffp-contract=off) so the vector code below uses exactly the
// IEEE operations of the scalar references: vaddpd/vsubpd/vmulpd/vdivpd
// are element-wise identical to their scalar counterparts, and cmp+blendv
// (like vmaxpd(a, b)) reproduces `a > b ? a : b` including its NaN
// behavior (_CMP_GT_OQ is false on unordered, like scalar >). The CRC-32
// body is carry-less integer arithmetic, exact by construction.
// kernels.cc only calls in here after the runtime cpuid (avx2 + pclmul) /
// UPSKILL_FORCE_SCALAR check.

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <algorithm>
#include <limits>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

namespace upskill {
namespace simd {
namespace avx2 {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

}  // namespace

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d size_v = _mm256_set1_pd(static_cast<double>(table.size()));
  __m256d overflow_acc = zero;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d truncated =
        _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
    // NaN fails the EQ compare, so it lands in the invalid (-inf) lanes.
    const __m256d integral = _mm256_and_pd(
        _mm256_cmp_pd(truncated, x, _CMP_EQ_OQ),
        _mm256_cmp_pd(x, zero, _CMP_GE_OQ));
    const __m256d in_range = _mm256_cmp_pd(x, size_v, _CMP_LT_OQ);
    const __m256d valid = _mm256_and_pd(integral, in_range);
    overflow_acc =
        _mm256_or_pd(overflow_acc, _mm256_andnot_pd(in_range, integral));
    // Zero the invalid lanes' indices, and gather under the validity
    // mask (masked-off lanes never touch memory and keep the -inf src).
    const __m256d safe_x = _mm256_and_pd(x, valid);
    const __m128i idx = _mm256_cvttpd_epi32(safe_x);
    _mm256_storeu_pd(out.data() + i, _mm256_mask_i32gather_pd(
                                         neg_inf, table.data(), idx, valid, 8));
  }
  if (any_table_overflow != nullptr && _mm256_movemask_pd(overflow_acc) != 0) {
    *any_table_overflow = true;
  }
  if (i < n) {
    scalar::LookupLogProbBatch(xs.subspan(i), table, out.subspan(i),
                               any_table_overflow);
  }
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sm1_v = _mm256_set1_pd(shape_minus_one);
  const __m256d scale_v = _mm256_set1_pd(scale);
  const __m256d lgs_v = _mm256_set1_pd(log_gamma_shape);
  const __m256d sls_v = _mm256_set1_pd(shape_log_scale);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d log_x = _mm256_loadu_pd(log_xs.data() + i);
    // sm1 * log(x) - x / scale - log_gamma_shape - shape * log_scale,
    // left to right exactly as in Gamma::LogProbBatch.
    __m256d r = _mm256_sub_pd(_mm256_mul_pd(sm1_v, log_x),
                              _mm256_div_pd(x, scale_v));
    r = _mm256_sub_pd(r, lgs_v);
    r = _mm256_sub_pd(r, sls_v);
    const __m256d positive = _mm256_cmp_pd(x, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out.data() + i, _mm256_blendv_pd(neg_inf, r, positive));
  }
  if (i < n) {
    scalar::GammaLogProbBatch(xs.subspan(i), log_xs.subspan(i),
                              shape_minus_one, scale, log_gamma_shape,
                              shape_log_scale, out.subspan(i));
  }
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  const size_t n = xs.size();
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d mu_v = _mm256_set1_pd(mu);
  const __m256d sigma_v = _mm256_set1_pd(sigma);
  const __m256d log_sigma_v = _mm256_set1_pd(log_sigma);
  const __m256d hltp_v = _mm256_set1_pd(half_log_two_pi);
  const __m256d neg_half = _mm256_set1_pd(-0.5);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(xs.data() + i);
    const __m256d log_x = _mm256_loadu_pd(log_xs.data() + i);
    const __m256d z = _mm256_div_pd(_mm256_sub_pd(log_x, mu_v), sigma_v);
    // (-0.5 * z) * z - log_x - log_sigma - half_log_two_pi, matching the
    // scalar association of -0.5 * z * z.
    __m256d r = _mm256_mul_pd(_mm256_mul_pd(neg_half, z), z);
    r = _mm256_sub_pd(r, log_x);
    r = _mm256_sub_pd(r, log_sigma_v);
    r = _mm256_sub_pd(r, hltp_v);
    const __m256d positive = _mm256_cmp_pd(x, zero, _CMP_GT_OQ);
    _mm256_storeu_pd(out.data() + i, _mm256_blendv_pd(neg_inf, r, positive));
  }
  if (i < n) {
    scalar::LogNormalLogProbBatch(xs.subspan(i), log_xs.subspan(i), mu, sigma,
                                  log_sigma, half_log_two_pi, out.subspan(i));
  }
}

namespace {

// The plain recurrence with the best row in registers: lane s of the
// (lo, hi) pair is level s. Lanes at and above `levels` carry filler that
// no real lane reads (level s only reads levels s and s - 1).
// Each action does the scalar reference's per-level operations for all
// levels at once. The up candidate is best + log_up shifted one lane up
// (vpermpd + vblendpd), with -inf entering level 0 so it never wins there.
// vmaxpd(up, stay) is `up > stay ? up : stay` (its second operand comes
// back on ties and NaN), the select the scalar reference makes, and
// vcmppd + vmovmskpd give the up-move bits, one word per action.
// One step body serves one sequence or two (`second` non-null). With two,
// their steps alternate while both have actions left, so one chain's
// add -> permute -> blend -> max -> add latency overlaps the other's;
// then the longer one finishes alone. A chain reads only its own ids and
// row, so it writes exactly what it writes when run alone.
template <bool kHi>
void DpForwardRegisters(const double* item_log_probs, size_t levels,
                        const double* log_initial, double log_stay,
                        double log_up, const DpSequence& first,
                        const DpSequence* second) {
  alignas(32) int64_t lane_mask[8];
  alignas(32) double stay_cost[8];
  for (size_t s = 0; s < 8; ++s) {
    lane_mask[s] = s < levels ? -1 : 0;
    stay_cost[s] = s + 1 < levels ? log_stay : 0.0;
  }
  const __m256i mask_lo =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_mask));
  const __m256i mask_hi =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(lane_mask + 4));
  const __m256d stay_lo = _mm256_load_pd(stay_cost);
  const __m256d stay_hi = _mm256_load_pd(stay_cost + 4);
  const __m256d up = _mm256_set1_pd(log_up);
  const __m256d neg_inf = _mm256_set1_pd(kNegInf);
  // A null log_initial still adds 0.0, as the reference does (-0.0 + 0.0
  // is +0.0).
  const __m256d zero = _mm256_setzero_pd();
  const __m256d initial_lo =
      log_initial == nullptr ? zero : _mm256_maskload_pd(log_initial, mask_lo);
  const __m256d initial_hi = !kHi || log_initial == nullptr
                                 ? zero
                                 : _mm256_maskload_pd(log_initial + 4, mask_hi);

  // One sequence's cursor and best row. The cursor is copied out of the
  // DpSequence, so the up-move stores cannot make the loop reload it.
  struct Chain {
    const int32_t* id;
    uint64_t* up_moves;
    __m256d best_lo;
    __m256d best_hi;
  };
  auto load_row = [&](Chain& c, __m256d& row_lo, __m256d& row_hi)
                      __attribute__((always_inline)) {
    const double* row = item_log_probs + static_cast<size_t>(*c.id++) * levels;
    if constexpr (kHi) {
      row_lo = _mm256_loadu_pd(row);
      row_hi = _mm256_maskload_pd(row + 4, mask_hi);
    } else {
      row_lo = _mm256_maskload_pd(row, mask_lo);
      row_hi = zero;
    }
  };
  auto start = [&](const DpSequence& seq) __attribute__((always_inline)) {
    Chain c{seq.items, seq.up_moves, zero, zero};
    __m256d row_lo, row_hi;
    load_row(c, row_lo, row_hi);
    c.best_lo = _mm256_add_pd(row_lo, initial_lo);
    c.best_hi = _mm256_add_pd(row_hi, initial_hi);
    return c;
  };
  // Action t of the chain's sequence: the best row and up-move word t.
  auto step = [&](Chain& c, size_t t) __attribute__((always_inline)) {
    __m256d row_lo, row_hi;
    load_row(c, row_lo, row_hi);
    const __m256d stay = _mm256_add_pd(c.best_lo, stay_lo);
    const __m256d rot_lo =
        _mm256_permute4x64_pd(_mm256_add_pd(c.best_lo, up), 0x93);
    const __m256d up_lo = _mm256_blend_pd(rot_lo, neg_inf, 0x1);
    uint64_t moves = static_cast<uint64_t>(
        _mm256_movemask_pd(_mm256_cmp_pd(up_lo, stay, _CMP_GT_OQ)));
    c.best_lo = _mm256_add_pd(_mm256_max_pd(up_lo, stay), row_lo);
    if constexpr (kHi) {
      const __m256d stay_h = _mm256_add_pd(c.best_hi, stay_hi);
      const __m256d up_h = _mm256_blend_pd(
          _mm256_permute4x64_pd(_mm256_add_pd(c.best_hi, up), 0x93), rot_lo,
          0x1);
      moves |= static_cast<uint64_t>(_mm256_movemask_pd(
                   _mm256_cmp_pd(up_h, stay_h, _CMP_GT_OQ)))
               << 4;
      c.best_hi = _mm256_add_pd(_mm256_max_pd(up_h, stay_h), row_hi);
    }
    c.up_moves[t] = moves;
  };
  auto finish = [&](const Chain& c, double* last_row)
                    __attribute__((always_inline)) {
    _mm256_maskstore_pd(last_row, mask_lo, c.best_lo);
    if constexpr (kHi) _mm256_maskstore_pd(last_row + 4, mask_hi, c.best_hi);
  };

  Chain a = start(first);
  const size_t a_length = first.length;
  size_t t = 1;
  if (second != nullptr) {
    Chain b = start(*second);
    const size_t b_length = second->length;
    for (const size_t both = std::min(a_length, b_length); t < both; ++t) {
      step(a, t);
      step(b, t);
    }
    for (size_t u = t; u < b_length; ++u) step(b, u);
    finish(b, second->last_row);
  }
  for (; t < a_length; ++t) step(a, t);
  finish(a, first.last_row);
}

void DpForwardDispatch(const double* item_log_probs, size_t levels,
                       const double* log_initial, double log_stay,
                       double log_up, const DpSequence& first,
                       const DpSequence* second) {
  if (levels > 4) {
    DpForwardRegisters<true>(item_log_probs, levels, log_initial, log_stay,
                             log_up, first, second);
  } else {
    DpForwardRegisters<false>(item_log_probs, levels, log_initial, log_stay,
                              log_up, first, second);
  }
}

}  // namespace

void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq) {
  if (seq.length == 0) return;
  DpForwardDispatch(item_log_probs, levels, log_initial, log_stay, log_up,
                    seq, nullptr);
}

void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& first, const DpSequence& second) {
  DpForwardDispatch(item_log_probs, levels, log_initial, log_stay, log_up,
                    first, &second);
}

namespace {

// Folding constants for the reflected IEEE polynomial P (Gopal et al.,
// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
// Instruction", Intel, 2009). Each k is x^n mod P, bit-reflected, for the
// fold distance n it serves:
//   k1, k2  fold four 128-bit lanes forward by 512 bits
//   k3, k4  fold one 128-bit lane into the next
//   k5      fold the final 96 bits to 64
//   poly, mu  Barrett-reduce 64 bits to the 32-bit CRC
constexpr int64_t kCrcK1 = 0x154442bd4;
constexpr int64_t kCrcK2 = 0x1c6e41596;
constexpr int64_t kCrcK3 = 0x1751997d0;
constexpr int64_t kCrcK4 = 0x0ccaa009e;
constexpr int64_t kCrcK5 = 0x163cd6124;
constexpr int64_t kCrcPoly = 0x1db710641;
constexpr int64_t kCrcMu = 0x1f7011641;

inline __m128i Load128(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// Carries lane `x` forward by the distance `k` encodes: the low qword
// times k.low, xor the high qword times k.high.
inline __m128i Fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  // Folding needs one whole 64-byte block to seed its four lanes.
  if (size < 64) return scalar::Crc32Update(crc, p, size);

  // The register enters as the first four message bytes' xor mask.
  __m128i x0 = _mm_xor_si128(Load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  size -= 64;

  // Four independent lanes hide the carry-less multiply's latency.
  const __m128i k1k2 = _mm_set_epi64x(kCrcK2, kCrcK1);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = _mm_xor_si128(Fold(x0, k1k2), Load128(p));
    x1 = _mm_xor_si128(Fold(x1, k1k2), Load128(p + 16));
    x2 = _mm_xor_si128(Fold(x2, k1k2), Load128(p + 32));
    x3 = _mm_xor_si128(Fold(x3, k1k2), Load128(p + 48));
  }

  // Collapse the four lanes into one, then fold in whole 16-byte blocks.
  const __m128i k3k4 = _mm_set_epi64x(kCrcK4, kCrcK3);
  x0 = _mm_xor_si128(Fold(x0, k3k4), x1);
  x0 = _mm_xor_si128(Fold(x0, k3k4), x2);
  x0 = _mm_xor_si128(Fold(x0, k3k4), x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = _mm_xor_si128(Fold(x0, k3k4), Load128(p));
  }

  // 128 -> 96 bits (appending the CRC's 32 zero bits), then 96 -> 64.
  const __m128i mask32 = _mm_set_epi32(0, 0, 0, -1);
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, mask32),
                           _mm_set_epi64x(0, kCrcK5), 0x00),
      _mm_srli_si128(x0, 4));

  // Barrett reduction: q = floor(x / P) via mu, then x - q * P.
  const __m128i poly_mu = _mm_set_epi64x(kCrcMu, kCrcPoly);
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, mask32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, mask32), poly_mu, 0x00);
  crc = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(q, x0), 1));

  return scalar::Crc32Update(crc, p, size);
}

}  // namespace avx2
}  // namespace simd
}  // namespace upskill

#endif  // x86-64
