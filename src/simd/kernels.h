#ifndef UPSKILL_SIMD_KERNELS_H_
#define UPSKILL_SIMD_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "simd/simd.h"

namespace upskill {
namespace simd {

// Hot-loop kernels. The batched log-prob kernels, DpForward and
// Crc32Update pick the ActiveBackend() implementation; the `scalar::`
// namespace exposes their reference loops directly so equivalence tests
// can compare the dispatched path against the fallback bitwise (doubles)
// / bit-exact (integers) without touching the process-wide backend
// switch. The quantized serving kernels have one body, on every backend.
//
// Bitwise-exactness contract for the double kernels: the vector bodies
// perform exactly the scalar reference's operations (same IEEE adds,
// multiplies, divides, compares and selects, in the same per-element
// order) and never use FMA, so results are bitwise identical on every
// backend. Where a compiler could contract a*b+c into an FMA in ordinary
// code, these kernels are the anchor: the scalar references are written
// so the vector lanes can mirror them operation for operation.

// ---------------------------------------------------------------------------
// Batched log-prob kernels (SoA spans, one call per (feature, level) cell).
// ---------------------------------------------------------------------------

/// Integer-table lookup: out[i] = table[(int)xs[i]] when xs[i] is an exact
/// non-negative integer below table.size(), else -infinity. When
/// `any_table_overflow` is non-null it is set to true if any xs[i] was an
/// exact non-negative integer >= table.size() (those lanes still receive
/// -infinity; the caller patches them — the Poisson kernel recomputes the
/// rare counts beyond its precomputed table). Backs Categorical (table =
/// per-category log-probs) and Poisson (table = precomputed per-count
/// log-probs) batches.
void LookupLogProbBatch(std::span<const double> xs,
                        std::span<const double> table, std::span<double> out,
                        bool* any_table_overflow);

/// Gamma log-density body with the logs precomputed: for each i,
///   out[i] = xs[i] <= 0 ? -inf
///          : ((shape_minus_one * log_xs[i] - xs[i] / scale)
///             - log_gamma_shape) - shape_log_scale
/// log_xs[i] must equal std::log(xs[i]) for every xs[i] > 0 (other lanes
/// are ignored). The expression order matches Gamma::LogProb term for
/// term, so results are bitwise identical to the virtual scalar path.
void GammaLogProbBatch(std::span<const double> xs,
                       std::span<const double> log_xs, double shape_minus_one,
                       double scale, double log_gamma_shape,
                       double shape_log_scale, std::span<double> out);

/// LogNormal log-density body with the logs precomputed: for each i,
///   z      = (log_xs[i] - mu) / sigma
///   out[i] = xs[i] <= 0 ? -inf
///          : ((-0.5 * z * z - log_xs[i]) - log_sigma) - half_log_two_pi
void LogNormalLogProbBatch(std::span<const double> xs,
                           std::span<const double> log_xs, double mu,
                           double sigma, double log_sigma,
                           double half_log_two_pi, std::span<double> out);

// ---------------------------------------------------------------------------
// Whole-sequence assignment DP (the plain stay/up recurrence).
// ---------------------------------------------------------------------------

/// Words of up-move bits DpForward writes per action.
inline size_t DpUpMoveWords(size_t levels) { return (levels + 63) / 64; }

/// One item sequence for DpForward: `length` packed item ids.
struct DpSequence {
  const int32_t* items = nullptr;
  size_t length = 0;
  /// Out, [length * DpUpMoveWords(levels)]: for t >= 1, bit s % 64 of
  /// word t * DpUpMoveWords(levels) + s / 64 is set iff level s at action
  /// t was reached from level s - 1. The words of t = 0 are not written.
  uint64_t* up_moves = nullptr;
  /// Out, [levels]: the final best row. Not written when length == 0.
  double* last_row = nullptr;
};

/// The plain assignment recurrence (Equation 4 with optional progression
/// weights) over a whole sequence, with cache[i][s] =
/// item_log_probs[i * levels + s]:
///   best_0[s] = cache[i_0][s] + (log_initial ? log_initial[s] : 0.0)
///   stay      = best_{t-1}[s] + (s + 1 < levels ? log_stay : 0.0)
///   up        = best_{t-1}[s - 1] + log_up               (s >= 1 only)
///   up_wins   = up > stay                // strict: ties stay low
///   best_t[s] = (up_wins ? up : stay) + cache[i_t][s]
/// The top level's stay is free (it is the only move there). The vector
/// body keeps a row of up to 8 levels in two registers for the whole
/// sequence; more levels run the scalar reference.
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq);

/// Two independent sequences under the same cache and weights, each
/// written exactly as the one-sequence DpForward writes it. The vector
/// body interleaves the two recurrences while both have actions left, so
/// one chain's step latency hides the other's; the scalar reference runs
/// them one after the other.
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& first, const DpSequence& second);

// ---------------------------------------------------------------------------
// Quantized serving kernels (int16 column, NNUE-style fixed point).
// ---------------------------------------------------------------------------
// The session column lives in int16 "accumulator units" (a fixed global
// scale of kQuantAccScale units per log-unit — see serve/quantized_model.h).
// Item rows are stored as int16 residuals at a per-item scale; the Q15
// multiplier `row_mult` (in [0, 32767]) converts a stored lane into
// accumulator units, rounding to nearest:
//   row_acc[s] = (int32(qrow[s]) * row_mult + 2^14) >> 15   (arith. shift)
// The whole step stays in *saturating* int16 arithmetic — adds clamp at
// the int16 rails like NNUE accumulators. Saturation only ever fires on
// lanes >= 128 nats below the column maximum, which the
// renormalize-and-clamp already pinned to the rail; argmax-relevant
// lanes are computed exactly. Every step renormalizes the column by its
// maximum (a uniform shift, which the argmax/relative DP is invariant
// to; the invariant max(column) == 0 also makes the renorm subtraction
// itself overflow-free), so the column never drifts no matter how long
// the session runs. These kernels have one body: no backend switch
// reaches them.

/// First observation: column[s] = sat16(row_acc[s] + q_initial[s] - max),
/// with q_initial treated as all-zero when empty (free start).
void QuantizedForwardInit(const int16_t* qrow, int16_t row_mult,
                          const int16_t* q_initial, size_t levels,
                          int16_t* column);

/// One streaming step. Mirrors the double forward step's structure:
/// stay/up select via max (exact on ties), optional down-edge folded into
/// the same max, free stay at the top level; then renormalize by the row
/// maximum. `next_column` must not alias `prev_column`. `prev_column`
/// must satisfy the renormalized invariant (all lanes <= 0, maximum 0),
/// which Init and Step both establish.
void QuantizedForwardStep(const int16_t* prev_column, const int16_t* qrow,
                          int16_t row_mult, int16_t q_stay, int16_t q_up,
                          bool allow_down, int16_t q_down, size_t levels,
                          int16_t* next_column);

/// 1-based argmax of the int16 column, ties to the lowest level.
int QuantizedForwardLevel(const int16_t* column, size_t levels);

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
// ---------------------------------------------------------------------------

/// Folds `size` bytes into the CRC register `crc` and returns the new
/// register. The register is the raw shift-register state: callers seed it
/// with 0xffffffff and invert the final value (common/crc32.h does both).
/// Pure carry-less arithmetic, so every backend returns identical values.
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

// ---------------------------------------------------------------------------
// Scalar reference implementations (always available; the dispatchers
// above fall back to these, and tests compare against them directly).
// ---------------------------------------------------------------------------
namespace scalar {

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
void DpForward(const double* item_log_probs, size_t levels,
               const double* log_initial, double log_stay, double log_up,
               const DpSequence& seq);
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

}  // namespace scalar

}  // namespace simd
}  // namespace upskill

#endif  // UPSKILL_SIMD_KERNELS_H_
