#include "serve/quantized_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "exec/backend.h"

namespace upskill {
namespace serve {

namespace {

// log-units -> accumulator units, flooring -inf (and anything below the
// int16 accumulator range) at kQuantCostFloor. Finite transition costs
// are a few nats, so the floor only ever fires for genuine -inf weights.
int16_t QuantizeCost(double log_value) {
  if (!(log_value > static_cast<double>(kQuantCostFloor) /
                        static_cast<double>(kQuantAccScale))) {
    return kQuantCostFloor;
  }
  const double units = log_value * static_cast<double>(kQuantAccScale);
  return static_cast<int16_t>(std::lround(std::min(units, 0.0)));
}

}  // namespace

std::shared_ptr<const QuantizedModel> QuantizedModel::FromServingModel(
    const ServingModel& model, exec::Backend* backend) {
  if (backend == nullptr) backend = exec::Backend::Serial();
  std::shared_ptr<QuantizedModel> q(new QuantizedModel());
  q->num_levels_ = model.num_levels();
  q->num_items_ = model.num_items();
  const size_t levels = static_cast<size_t>(q->num_levels_);
  const size_t num_items = static_cast<size_t>(q->num_items_);
  q->rows_.resize(num_items * levels);
  q->mults_.resize(num_items);

  const std::vector<double>& log_probs = model.item_log_probs();
  // Each item writes its own row and multiplier.
  backend->RunIndices(0, num_items, [&](size_t item) {
    const double* row = log_probs.data() + item * levels;
    int16_t* out = q->rows_.data() + item * levels;
    double row_max = -std::numeric_limits<double>::infinity();
    for (size_t s = 0; s < levels; ++s) row_max = std::max(row_max, row[s]);
    if (!std::isfinite(row_max)) {
      // Item impossible at every level: a flat row (the DP sees only the
      // transition structure), like the double path where a shared -inf
      // cancels out of every comparison.
      std::fill(out, out + levels, static_cast<int16_t>(0));
      q->mults_[item] = 0;
      return;
    }
    double residual_range = 0.0;
    for (size_t s = 0; s < levels; ++s) {
      const double r =
          std::max(row[s] - row_max, -kQuantResidualRange);  // -inf floors
      residual_range = std::max(residual_range, -r);
    }
    if (residual_range == 0.0) {
      std::fill(out, out + levels, static_cast<int16_t>(0));
      q->mults_[item] = 0;
      return;
    }
    const double lane_scale = 32767.0 / residual_range;
    for (size_t s = 0; s < levels; ++s) {
      const double r = std::max(row[s] - row_max, -kQuantResidualRange);
      out[s] = static_cast<int16_t>(std::lround(r * lane_scale));
    }
    // <= lround(256 * 127 / 32767 * 32768) = 32513, so it fits int16.
    q->mults_[item] = static_cast<int16_t>(
        std::lround(static_cast<double>(kQuantAccScale) * residual_range /
                    32767.0 * 32768.0));
  });

  const TransitionWeights* transitions = model.transitions();
  if (transitions != nullptr) {
    q->q_initial_.reserve(transitions->log_initial.size());
    for (const double log_p : transitions->log_initial) {
      q->q_initial_.push_back(QuantizeCost(log_p));
    }
    q->q_stay_ = QuantizeCost(transitions->log_stay);
    q->q_up_ = QuantizeCost(transitions->log_up);
  }
  q->q_down_ = QuantizeCost(model.log_down());
  return std::shared_ptr<const QuantizedModel>(std::move(q));
}

}  // namespace serve
}  // namespace upskill
