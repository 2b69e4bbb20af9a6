#ifndef UPSKILL_SERVE_QUANTIZED_MODEL_H_
#define UPSKILL_SERVE_QUANTIZED_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/serving_model.h"

namespace upskill {
namespace serve {

/// Fixed global accumulator scale: how many int16 "accumulator units" one
/// log-unit (nat) of score is worth. Session columns, transition costs,
/// and converted item rows all live in these units, and the scale is a
/// constant of the serving protocol — NOT a per-snapshot quantity — so a
/// session's accumulator column stays meaningful across snapshot
/// hot-swaps (the refresh rule is the same as the double path's: carry
/// the column, reset only when the level count S changes).
inline constexpr int32_t kQuantAccScale = 256;

/// Residual clamp: per-item level scores more than this many nats below
/// the item's best level are floored (and -inf becomes exactly this).
/// e^-127 is far beyond double's discrimination in the DP anyway, and
/// 127 nats * kQuantAccScale keeps the Q15 multiplier below 32768, so it
/// fits int16 next to the int16 row lanes.
inline constexpr double kQuantResidualRange = 127.0;

/// Floor for quantized transition/initial costs whose double value is
/// -inf (e.g. a zero initial probability): the bottom of the int16
/// accumulator range (-128 nats at kQuantAccScale). The whole streaming
/// DP runs in saturating int16 arithmetic, so a lane carrying this cost
/// pins to the bottom of the column, matching the "effectively
/// impossible" semantics of -inf.
inline constexpr int16_t kQuantCostFloor = -32768;

/// NNUE-style int16 fixed-point copy of a ServingModel's level-by-item
/// score matrix plus its transition costs, feeding the integer streaming
/// DP in simd::QuantizedForward*. Per item i with double row row[s]:
///
///   residual r[s] = clamp(row[s] - max_s row[s], -kQuantResidualRange, 0]
///   stored lane   q[s] = lround(r[s] * 32767 / range_i)   in [-32767, 0]
///   Q15 mult      m_i  = lround(kQuantAccScale * range_i / 32767 * 32768)
///
/// where range_i = max_s(-r[s]) (0 for a flat row, giving q = 0, m = 0).
/// The residual clamp bounds m_i at 32513, so the multiplier is itself an
/// int16 and the serving kernels reconstruct accumulator units on the fly
/// as (q[s] * m_i + 2^14) >> 15 (round to nearest). Each item's row
/// spends its full 15 bits of precision on its own dynamic range.
/// Dropping the per-item maximum is exact for level inference: the
/// forward DP adds row[s] to every lane of the same column, so a per-item
/// uniform shift cancels in every comparison the argmax ever makes.
///
/// Like ServingModel, instances are immutable and shared by shared_ptr;
/// a snapshot hot-swap builds a fresh QuantizedModel (requantization) and
/// atomically publishes it next to the new double view.
class QuantizedModel {
 public:
  /// Quantizes `model`'s matrix and transitions. The per-item pass
  /// dispatches through `backend` (null = serial); quantized bytes are
  /// identical either way.
  static std::shared_ptr<const QuantizedModel> FromServingModel(
      const ServingModel& model, exec::Backend* backend = nullptr);

  int num_levels() const { return num_levels_; }
  int num_items() const { return num_items_; }

  /// S-sized int16 residual row for one item.
  std::span<const int16_t> ItemRow(ItemId item) const {
    return std::span<const int16_t>(
        rows_.data() + static_cast<size_t>(item) * static_cast<size_t>(
                                                       num_levels_),
        static_cast<size_t>(num_levels_));
  }

  /// Q15 multiplier turning ItemRow(item) lanes into accumulator units,
  /// in [0, 32513].
  int16_t ItemMult(ItemId item) const {
    return mults_[static_cast<size_t>(item)];
  }

  /// Initial level costs in accumulator units; empty means a free start
  /// (the snapshot carries no progression component).
  std::span<const int16_t> q_initial() const { return q_initial_; }
  /// Transition costs in accumulator units (all zero for a free walk).
  int16_t q_stay() const { return q_stay_; }
  int16_t q_up() const { return q_up_; }
  int16_t q_down() const { return q_down_; }

 private:
  QuantizedModel() = default;

  int num_levels_ = 0;
  int num_items_ = 0;
  // [item * S + (level-1)], residual lanes in [-32767, 0].
  std::vector<int16_t> rows_;
  // One Q15 multiplier per item.
  std::vector<int16_t> mults_;
  std::vector<int16_t> q_initial_;
  int16_t q_stay_ = 0;
  int16_t q_up_ = 0;
  int16_t q_down_ = 0;
};

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_QUANTIZED_MODEL_H_
