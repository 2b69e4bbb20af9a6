#include "simd/kernels.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "simd/kernels_impl.h"

// Dispatchers, scalar reference bodies and the one-body kernels. Backend
// coverage (every other architecture, aarch64 included, runs the scalar
// reference):
//
//   kernel                  avx2
//   LookupLogProbBatch       x    (needs gather)
//   GammaLogProbBatch        x
//   LogNormalLogProbBatch    x
//   DpForward                x    (levels <= 8: row in registers; the
//                                  two-sequence form interleaves both
//                                  chains, the scalar one runs them in
//                                  turn)
//   Crc32Update              x    (PCLMULQDQ folding; scalar is
//                                  slicing-by-8)
//
// A kernel gets a vector body only when a benchmark workload runs it
// vectorized. The quantized serving kernels have one body and no
// dispatch: at the served level counts (S = 5) a 16-lane int16 step
// runs no vector arithmetic. The dispatch check is one predictable
// branch per kernel call; every call amortizes it over a whole batch /
// sequence / buffer.

namespace upskill {
namespace simd {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Slicing-by-8 tables for the reflected IEEE polynomial: kCrcTables[0] is
// the classic byte-at-a-time table, and kCrcTables[k][b] is the register
// contribution of byte b followed by k zero bytes, so eight independent
// lookups advance the register by eight bytes at once.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;
constexpr CrcTables kCrcTables = [] {
  CrcTables t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xedb88320u & (0u - (crc & 1u)));
    }
    t[0][b] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (size_t b = 0; b < 256; ++b) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xffu];
    }
  }
  return t;
}();

// Little-endian 32-bit load, independent of host byte order and alignment
// (compilers fold it into one mov on x86-64 and aarch64).
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// The quantized kernels' arithmetic. SaturateInt16 clamps to the int16
// rails; AddSat16 is a saturating int16 add.
inline int16_t SaturateInt16(int32_t v) {
  return static_cast<int16_t>(std::clamp(v, -32768, 32767));
}

inline int16_t AddSat16(int16_t a, int16_t b) {
  return SaturateInt16(static_cast<int32_t>(a) + static_cast<int32_t>(b));
}

// A stored row lane in accumulator units: (a * b + 2^14) >> 15, rounded
// to nearest (the +2^14 halves the per-add error, so flips at near-tied
// levels get twice as rare). With the Q15 row multiplier in [0, 32767]
// the result is in [-32767, 0]. C++20 defines >> on negatives as
// arithmetic shift.
inline int16_t RowAccUnit(int16_t qlane, int16_t mult) {
  return static_cast<int16_t>(
      (static_cast<int32_t>(qlane) * mult + (1 << 14)) >> 15);
}

}  // namespace

namespace scalar {

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  const double size_d = static_cast<double>(table.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    // Double-domain validity (NaN fails the trunc compare) so the vector
    // lanes can evaluate the same predicates without integer casts.
    const bool integral = std::trunc(x) == x && x >= 0.0;
    if (integral && x < size_d) {
      out[i] = table[static_cast<size_t>(x)];
    } else {
      out[i] = kNegInf;
      if (integral && any_table_overflow != nullptr) {
        *any_table_overflow = true;
      }
    }
  }
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    out[i] = !(x > 0.0) ? kNegInf
                        : shape_minus_one * log_xs[i] - x / scale -
                              log_gamma_shape - shape_log_scale;
  }
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  for (size_t i = 0; i < xs.size(); ++i) {
    const double x = xs[i];
    if (!(x > 0.0)) {
      out[i] = kNegInf;
      continue;
    }
    const double log_x = log_xs[i];
    const double z = (log_x - mu) / sigma;
    out[i] = -0.5 * z * z - log_x - log_sigma - half_log_two_pi;
  }
}

void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq) {
  if (seq.length == 0) return;
  const size_t words = DpUpMoveWords(levels);
  const int32_t* id = seq.items;
  auto next_row = [&] {
    return item_log_probs + static_cast<size_t>(*id++) * levels;
  };
  // One row, updated in place from the top level down: level s reads
  // best_{t-1}[s - 1] before that slot is overwritten.
  double* best = seq.last_row;
  const double* first = next_row();
  for (size_t s = 0; s < levels; ++s) {
    best[s] = first[s] + (log_initial == nullptr ? 0.0 : log_initial[s]);
  }
  for (size_t t = 1; t < seq.length; ++t) {
    const double* row = next_row();
    uint64_t* moves = seq.up_moves + t * words;
    std::fill(moves, moves + words, uint64_t{0});
    for (size_t s = levels; s-- > 1;) {
      const double stay = best[s] + (s + 1 < levels ? log_stay : 0.0);
      const double up = best[s - 1] + log_up;
      const bool up_wins = up > stay;
      best[s] = (up_wins ? up : stay) + row[s];
      moves[s / 64] |= static_cast<uint64_t>(up_wins) << (s % 64);
    }
    best[0] = best[0] + (levels > 1 ? log_stay : 0.0) + row[0];
  }
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  const auto& t = kCrcTables;
  for (; size >= 8; p += 8, size -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^ t[5][(lo >> 16) & 0xff] ^
          t[4][lo >> 24] ^ t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
          t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xff];
  }
  return crc;
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatchers.
// ---------------------------------------------------------------------------

#if defined(__x86_64__) || defined(_M_X64)
#define UPSKILL_DISPATCH_VECTOR(ns_fn, ...)           \
  do {                                                \
    if (ActiveBackend() == Backend::kAvx2) {          \
      avx2::ns_fn(__VA_ARGS__);                       \
      return;                                         \
    }                                                 \
  } while (0)
#else
#define UPSKILL_DISPATCH_VECTOR(ns_fn, ...) \
  do {                                      \
  } while (0)
#endif

void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow) {
  UPSKILL_CHECK(xs.size() == out.size());
#if defined(__x86_64__) || defined(_M_X64)
  if (ActiveBackend() == Backend::kAvx2) {
    avx2::LookupLogProbBatch(xs, table, out, any_table_overflow);
    return;
  }
#endif
  scalar::LookupLogProbBatch(xs, table, out, any_table_overflow);
}

void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out) {
  UPSKILL_CHECK(xs.size() == out.size());
  UPSKILL_CHECK(xs.size() == log_xs.size());
  UPSKILL_DISPATCH_VECTOR(GammaLogProbBatch, xs, log_xs, shape_minus_one,
                          scale, log_gamma_shape, shape_log_scale, out);
  scalar::GammaLogProbBatch(xs, log_xs, shape_minus_one, scale,
                            log_gamma_shape, shape_log_scale, out);
}

void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out) {
  UPSKILL_CHECK(xs.size() == out.size());
  UPSKILL_CHECK(xs.size() == log_xs.size());
  UPSKILL_DISPATCH_VECTOR(LogNormalLogProbBatch, xs, log_xs, mu, sigma,
                          log_sigma, half_log_two_pi, out);
  scalar::LogNormalLogProbBatch(xs, log_xs, mu, sigma, log_sigma,
                                half_log_two_pi, out);
}

void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq) {
  UPSKILL_CHECK(levels >= 1);
#if defined(__x86_64__) || defined(_M_X64)
  if (levels <= 8 && ActiveBackend() == Backend::kAvx2) {
    avx2::DpForward(item_log_probs, levels, log_initial, log_stay, log_up,
                    seq);
    return;
  }
#endif
  scalar::DpForward(item_log_probs, levels, log_initial, log_stay, log_up,
                    seq);
}

void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& first, const DpSequence& second) {
  UPSKILL_CHECK(levels >= 1);
#if defined(__x86_64__) || defined(_M_X64)
  if (levels <= 8 && ActiveBackend() == Backend::kAvx2 && first.length > 0 &&
      second.length > 0) {
    avx2::DpForward(item_log_probs, levels, log_initial, log_stay, log_up,
                    first, second);
    return;
  }
#endif
  DpForward(item_log_probs, levels, log_initial, log_stay, log_up, first);
  DpForward(item_log_probs, levels, log_initial, log_stay, log_up, second);
}

uint32_t Crc32Update(uint32_t crc, const void* data, size_t size) {
#if defined(__x86_64__) || defined(_M_X64)
  if (ActiveBackend() == Backend::kAvx2) {
    return avx2::Crc32Update(crc, data, size);
  }
#endif
  return scalar::Crc32Update(crc, data, size);
}

#undef UPSKILL_DISPATCH_VECTOR

// ---------------------------------------------------------------------------
// One-body kernels.
// ---------------------------------------------------------------------------

void QuantizedForwardInit(const int16_t* qrow, int16_t row_mult,
                          const int16_t* q_initial, size_t levels,
                          int16_t* column) {
  int32_t max = std::numeric_limits<int32_t>::min();
  for (size_t s = 0; s < levels; ++s) {
    const int32_t v =
        static_cast<int32_t>(RowAccUnit(qrow[s], row_mult)) +
        (q_initial != nullptr ? static_cast<int32_t>(q_initial[s]) : 0);
    max = std::max(max, v);
  }
  for (size_t s = 0; s < levels; ++s) {
    const int32_t v =
        static_cast<int32_t>(RowAccUnit(qrow[s], row_mult)) +
        (q_initial != nullptr ? static_cast<int32_t>(q_initial[s]) : 0);
    column[s] = SaturateInt16(v - max);
  }
}

void QuantizedForwardStep(const int16_t* prev_column, const int16_t* qrow,
                          int16_t row_mult, int16_t q_stay, int16_t q_up,
                          bool allow_down, int16_t q_down, size_t levels,
                          int16_t* next_column) {
  // Integer mirror of MonotoneForwardStep in pure saturating int16
  // (NNUE-style): max() is exact on ties (same value either way), so no
  // strict-> bookkeeping is needed; the down-edge folds into the same
  // max; staying at the top level is free. Saturation can only fire on
  // lanes the renormalize already pinned to the -32768 rail ("effectively
  // impossible"); lanes near the maximum are exact.
  {
    int16_t incoming =
        levels > 1 ? AddSat16(prev_column[0], q_stay) : prev_column[0];
    if (levels > 1 && allow_down) {
      incoming = std::max(incoming, AddSat16(prev_column[1], q_down));
    }
    next_column[0] = AddSat16(incoming, RowAccUnit(qrow[0], row_mult));
  }
  for (size_t s = 1; s + 1 < levels; ++s) {
    const int16_t stay = AddSat16(prev_column[s], q_stay);
    const int16_t up = AddSat16(prev_column[s - 1], q_up);
    int16_t incoming = std::max(stay, up);
    if (allow_down) {
      incoming = std::max(incoming, AddSat16(prev_column[s + 1], q_down));
    }
    next_column[s] = AddSat16(incoming, RowAccUnit(qrow[s], row_mult));
  }
  if (levels > 1) {
    const size_t s = levels - 1;
    const int16_t stay = prev_column[s];
    const int16_t up = AddSat16(prev_column[s - 1], q_up);
    next_column[s] =
        AddSat16(std::max(stay, up), RowAccUnit(qrow[s], row_mult));
  }
  // Renormalize by the row maximum: with the invariant max(prev) == 0 and
  // all costs <= 0, every lane is in [-32768, 0], so the plain subtract
  // (value - max >= value) cannot overflow.
  int16_t max = next_column[0];
  for (size_t s = 1; s < levels; ++s) max = std::max(max, next_column[s]);
  for (size_t s = 0; s < levels; ++s) {
    next_column[s] = static_cast<int16_t>(next_column[s] - max);
  }
}

int QuantizedForwardLevel(const int16_t* column, size_t levels) {
  size_t level = 0;
  int16_t best = column[0];
  for (size_t s = 1; s < levels; ++s) {
    if (column[s] > best) {
      best = column[s];
      level = s;
    }
  }
  return static_cast<int>(level) + 1;
}

}  // namespace simd
}  // namespace upskill
