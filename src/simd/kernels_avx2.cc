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
#include <array>
#include <cstring>
#include <limits>

#include "simd/kernels.h"
#include "simd/kernels_impl.h"

namespace upskill {
namespace simd {
namespace avx2 {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Expands a 4-bit movemask into 4 little-endian bytes of 0/1 so DP
// backpointer flags can be stored with one 32-bit write per vector.
constexpr std::array<uint32_t, 16> kLaneBytes = [] {
  std::array<uint32_t, 16> table{};
  for (int mask = 0; mask < 16; ++mask) {
    uint32_t value = 0;
    for (int lane = 0; lane < 4; ++lane) {
      if (mask & (1 << lane)) value |= 1u << (8 * lane);
    }
    table[static_cast<size_t>(mask)] = value;
  }
  return table;
}();

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

void DpRowInterior(const double* prev, const double* row, size_t levels,
                   double log_stay, double log_up, double* curr,
                   uint8_t* from) {
  if (levels < 2) return;
  const size_t end = levels - 1;
  const __m256d stay_v = _mm256_set1_pd(log_stay);
  const __m256d up_v = _mm256_set1_pd(log_up);
  size_t s = 1;
  for (; s + 4 <= end; s += 4) {
    const __m256d stay = _mm256_add_pd(_mm256_loadu_pd(prev + s), stay_v);
    const __m256d up = _mm256_add_pd(_mm256_loadu_pd(prev + s - 1), up_v);
    const __m256d up_wins = _mm256_cmp_pd(up, stay, _CMP_GT_OQ);
    const __m256d best = _mm256_blendv_pd(stay, up, up_wins);
    _mm256_storeu_pd(curr + s, _mm256_add_pd(best, _mm256_loadu_pd(row + s)));
    if (from != nullptr) {
      const uint32_t flags =
          kLaneBytes[static_cast<size_t>(_mm256_movemask_pd(up_wins))];
      std::memcpy(from + s, &flags, sizeof(flags));
    }
  }
  for (; s < end; ++s) {
    const double stay = prev[s] + log_stay;
    const double up = prev[s - 1] + log_up;
    const bool up_wins = up > stay;
    curr[s] = (up_wins ? up : stay) + row[s];
    if (from != nullptr) from[s] = static_cast<uint8_t>(up_wins);
  }
}

void DpRowInteriorWithDown(const double* prev, const double* row,
                           size_t levels, double log_stay, double log_up,
                           double log_down, double* curr, uint8_t* from) {
  if (levels < 2) return;
  const size_t end = levels - 1;
  const __m256d stay_v = _mm256_set1_pd(log_stay);
  const __m256d up_v = _mm256_set1_pd(log_up);
  const __m256d down_v = _mm256_set1_pd(log_down);
  size_t s = 1;
  for (; s + 4 <= end; s += 4) {
    const __m256d stay = _mm256_add_pd(_mm256_loadu_pd(prev + s), stay_v);
    const __m256d up = _mm256_add_pd(_mm256_loadu_pd(prev + s - 1), up_v);
    const __m256d down = _mm256_add_pd(_mm256_loadu_pd(prev + s + 1), down_v);
    const __m256d up_wins = _mm256_cmp_pd(up, stay, _CMP_GT_OQ);
    const __m256d best_su = _mm256_blendv_pd(stay, up, up_wins);
    const __m256d down_wins = _mm256_cmp_pd(down, best_su, _CMP_GT_OQ);
    const __m256d best = _mm256_blendv_pd(best_su, down, down_wins);
    _mm256_storeu_pd(curr + s, _mm256_add_pd(best, _mm256_loadu_pd(row + s)));
    if (from != nullptr) {
      const uint32_t u =
          static_cast<uint32_t>(_mm256_movemask_pd(up_wins)) & 0xFu;
      const uint32_t d =
          static_cast<uint32_t>(_mm256_movemask_pd(down_wins)) & 0xFu;
      // Per-lane byte: down ? 2 : (up ? 1 : 0). Single-bit bytes, so the
      // shifted add can never carry across lanes.
      const uint32_t flags = kLaneBytes[u & ~d] | (kLaneBytes[d] << 1);
      std::memcpy(from + s, &flags, sizeof(flags));
    }
  }
  for (; s < end; ++s) {
    const double stay = prev[s] + log_stay;
    const double up = prev[s - 1] + log_up;
    const bool up_wins = up > stay;
    double incoming = up_wins ? up : stay;
    uint8_t step = static_cast<uint8_t>(up_wins);
    const double down = prev[s + 1] + log_down;
    const bool down_wins = down > incoming;
    incoming = down_wins ? down : incoming;
    step = down_wins ? 2 : step;
    curr[s] = incoming + row[s];
    if (from != nullptr) from[s] = step;
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

inline __m256i Load16(const int16_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline void Store16(int16_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

inline int16_t HorizontalMax16(__m256i v) {
  __m128i m = _mm_max_epi16(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  m = _mm_max_epi16(m, _mm_unpackhi_epi64(m, m));
  m = _mm_max_epi16(m, _mm_shuffle_epi32(m, _MM_SHUFFLE(0, 0, 0, 1)));
  m = _mm_max_epi16(m, _mm_shufflelo_epi16(m, _MM_SHUFFLE(0, 0, 0, 1)));
  return static_cast<int16_t>(_mm_extract_epi16(m, 0));
}

}  // namespace

namespace {

// Spreads the maximum int16 lane of `v` to every lane: one cross-half
// fold, then three in-lane rotations (alignr works per 128-bit lane,
// which is enough once both halves agree). Keeping the reduction in ymm
// avoids the extract -> scalar -> rebroadcast round trip on the step's
// critical path.
inline __m256i BroadcastMax16(__m256i v) {
  v = _mm256_max_epi16(v, _mm256_permute2x128_si256(v, v, 1));
  v = _mm256_max_epi16(v, _mm256_alignr_epi8(v, v, 8));
  v = _mm256_max_epi16(v, _mm256_alignr_epi8(v, v, 4));
  v = _mm256_max_epi16(v, _mm256_alignr_epi8(v, v, 2));
  return v;
}

// Columns up to this many levels take the register-resident fast path
// below (at most 8 interior blocks incl. the overlapped tail).
constexpr size_t kRegisterPathMaxLevels = 128;

}  // namespace

void QuantizedForwardStep(const int16_t* prev_column, const int16_t* qrow,
                          int16_t row_mult, int16_t q_stay, int16_t q_up,
                          bool allow_down, int16_t q_down, size_t levels,
                          int16_t* next_column) {
  // Register-resident fast path: every interior block's value is held in
  // a ymm register until the column max is known, so the step makes a
  // single pass over memory — compute, reduce, subtract, store — instead
  // of storing unnormalized values and re-walking them to renormalize.
  // The serial step-to-step dependency in streaming serving makes that
  // second memory pass (store -> reload -> subtract -> store) the
  // dominant latency, not instruction throughput. Requires at least one
  // full interior block (levels >= 18) so the overlapped tail is legal,
  // and enough registers to hold the column (levels <= 128); everything
  // else falls through to the general path after this block.
  if (levels >= 18 && levels <= kRegisterPathMaxLevels) {
    const __m256i mult_v = _mm256_set1_epi16(row_mult);
    const __m256i stay_v = _mm256_set1_epi16(q_stay);
    const __m256i up_v = _mm256_set1_epi16(q_up);
    const __m256i down_v = _mm256_set1_epi16(q_down);

    int16_t edge0 = detail::AddSat16(prev_column[0], q_stay);
    if (allow_down) {
      edge0 = std::max(edge0, detail::AddSat16(prev_column[1], q_down));
    }
    edge0 = detail::AddSat16(edge0, detail::RowAccUnit(qrow[0], row_mult));

    const size_t top = levels - 1;
    const int16_t edge_top = detail::AddSat16(
        std::max(prev_column[top],
                 detail::AddSat16(prev_column[top - 1], q_up)),
        detail::RowAccUnit(qrow[top], row_mult));

    __m256i buf[8];
    size_t offs[8];
    size_t nb = 0;
    __m256i vmax = _mm256_set1_epi16(std::max(edge0, edge_top));
    const auto block = [&](size_t at) {
      const __m256i stay =
          _mm256_adds_epi16(Load16(prev_column + at), stay_v);
      const __m256i up =
          _mm256_adds_epi16(Load16(prev_column + at - 1), up_v);
      __m256i incoming = _mm256_max_epi16(stay, up);
      if (allow_down) {
        const __m256i down =
            _mm256_adds_epi16(Load16(prev_column + at + 1), down_v);
        incoming = _mm256_max_epi16(incoming, down);
      }
      const __m256i row_acc = _mm256_mulhrs_epi16(Load16(qrow + at), mult_v);
      const __m256i value = _mm256_adds_epi16(incoming, row_acc);
      buf[nb] = value;
      offs[nb] = at;
      ++nb;
      vmax = _mm256_max_epi16(vmax, value);
    };
    const size_t end = top;
    size_t s = 1;
    for (; s + 16 <= end; s += 16) block(s);
    if (s < end) block(end - 16);

    // Overlapped blocks recompute identical values from prev_column and
    // get the same subtrahend, so their overlapping stores agree.
    const __m256i max_v = BroadcastMax16(vmax);
    for (size_t k = 0; k < nb; ++k) {
      Store16(next_column + offs[k], _mm256_sub_epi16(buf[k], max_v));
    }
    const int16_t smax = static_cast<int16_t>(
        _mm_extract_epi16(_mm256_castsi256_si128(max_v), 0));
    next_column[0] = static_cast<int16_t>(edge0 - smax);
    next_column[top] = static_cast<int16_t>(edge_top - smax);
    return;
  }
  // Pure saturating-int16 arithmetic, 16 levels per instruction:
  // vpaddsw / vpmaxsw / vpmulhrsw are bit-exact twins of the scalar
  // reference's AddSat16 / max / RowAccUnit, so the backends always
  // produce identical columns. The bottom and top lanes carry boundary
  // rules and are peeled; the last partial interior block re-runs 16
  // lanes at an overlapping offset instead of a scalar tail (the step is
  // a pure function of prev_column, so overlapped stores write identical
  // bytes).
  const __m256i mult_v = _mm256_set1_epi16(row_mult);
  const __m256i stay_v = _mm256_set1_epi16(q_stay);
  const __m256i up_v = _mm256_set1_epi16(q_up);
  const __m256i down_v = _mm256_set1_epi16(q_down);

  int16_t smax;
  {
    int16_t incoming = levels > 1 ? detail::AddSat16(prev_column[0], q_stay)
                                  : prev_column[0];
    if (levels > 1 && allow_down) {
      incoming =
          std::max(incoming, detail::AddSat16(prev_column[1], q_down));
    }
    const int16_t value =
        detail::AddSat16(incoming, detail::RowAccUnit(qrow[0], row_mult));
    next_column[0] = value;
    smax = value;
  }

  const size_t end = levels > 0 ? levels - 1 : 0;
  __m256i vmax = _mm256_set1_epi16(-32768);
  const auto block = [&](size_t at) {
    const __m256i stay =
        _mm256_adds_epi16(Load16(prev_column + at), stay_v);
    const __m256i up =
        _mm256_adds_epi16(Load16(prev_column + at - 1), up_v);
    __m256i incoming = _mm256_max_epi16(stay, up);
    if (allow_down) {
      const __m256i down =
          _mm256_adds_epi16(Load16(prev_column + at + 1), down_v);
      incoming = _mm256_max_epi16(incoming, down);
    }
    const __m256i row_acc = _mm256_mulhrs_epi16(Load16(qrow + at), mult_v);
    const __m256i value = _mm256_adds_epi16(incoming, row_acc);
    Store16(next_column + at, value);
    vmax = _mm256_max_epi16(vmax, value);
  };
  size_t s = 1;
  for (; s + 16 <= end; s += 16) block(s);
  if (s < end && end > 16) {
    block(end - 16);
    s = end;
  }
  for (; s < end; ++s) {
    const int16_t stay = detail::AddSat16(prev_column[s], q_stay);
    const int16_t up = detail::AddSat16(prev_column[s - 1], q_up);
    int16_t incoming = std::max(stay, up);
    if (allow_down) {
      incoming =
          std::max(incoming, detail::AddSat16(prev_column[s + 1], q_down));
    }
    const int16_t value =
        detail::AddSat16(incoming, detail::RowAccUnit(qrow[s], row_mult));
    next_column[s] = value;
    smax = std::max(smax, value);
  }
  if (levels > 1) {
    const size_t top = levels - 1;
    const int16_t incoming =
        std::max(prev_column[top], detail::AddSat16(prev_column[top - 1], q_up));
    const int16_t value = detail::AddSat16(
        incoming, detail::RowAccUnit(qrow[top], row_mult));
    next_column[top] = value;
    smax = std::max(smax, value);
  }
  // Interior blocks only run when end > 16; skipping the horizontal
  // reduce otherwise keeps tiny columns (S <= 17) on a short scalar path.
  if (end > 16) smax = std::max(smax, HorizontalMax16(vmax));

  // Renormalize in place. value - max >= value, so the plain subtract
  // cannot overflow; no overlapped block here (the subtraction is not
  // idempotent), the remainder runs scalar.
  const __m256i max_v = _mm256_set1_epi16(smax);
  size_t j = 0;
  for (; j + 16 <= levels; j += 16) {
    Store16(next_column + j, _mm256_sub_epi16(Load16(next_column + j), max_v));
  }
  for (; j < levels; ++j) {
    next_column[j] = static_cast<int16_t>(next_column[j] - smax);
  }
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
