#include "core/posterior.h"

#include <cmath>
#include <limits>

#include "common/math.h"
#include "common/string_util.h"

namespace upskill {

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

double SequencePosterior::MeanLevel(size_t t) const {
  double mean = 0.0;
  for (int s = 1; s <= num_levels; ++s) {
    mean += static_cast<double>(s) * Probability(t, s);
  }
  return mean;
}

TransitionWeights UninformativeTransitions(int num_levels) {
  TransitionWeights weights;
  weights.log_initial.assign(static_cast<size_t>(num_levels),
                             -std::log(static_cast<double>(num_levels)));
  weights.log_stay = std::log(0.5);
  weights.log_up = std::log(0.5);
  return weights;
}

Result<SequencePosterior> ComputeSequencePosterior(
    const ItemTable& items, std::span<const Action> sequence,
    const SkillModel& model, const TransitionWeights& transitions) {
  if (sequence.empty()) {
    return Status::InvalidArgument("empty sequence");
  }
  const int S = model.num_levels();
  const size_t levels = static_cast<size_t>(S);
  if (transitions.log_initial.size() != levels) {
    return Status::InvalidArgument("transition weights level mismatch");
  }
  for (const Action& a : sequence) {
    if (a.item < 0 || a.item >= items.num_items()) {
      return Status::OutOfRange(StringPrintf("item %d", a.item));
    }
  }
  const size_t n = sequence.size();

  // Each action's S log-probs, computed once.
  std::vector<double> log_probs(n * levels);
  for (size_t t = 0; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      log_probs[t * levels + s] = model.ItemLogProb(
          items, sequence[t].item, static_cast<int>(s) + 1);
    }
  }
  std::vector<double> alpha;
  std::vector<double> beta;
  SequencePosterior posterior;
  posterior.num_levels = S;
  posterior.log_marginal = ForwardBackward(
      n, levels, transitions.log_initial, transitions.log_stay,
      transitions.log_up,
      [&](size_t t) { return log_probs.data() + t * levels; }, alpha, beta);
  if (!std::isfinite(posterior.log_marginal)) {
    return Status::FailedPrecondition(
        "sequence impossible under the model (zero-probability item)");
  }
  posterior.gamma.resize(n * levels);
  for (size_t t = 0; t < n; ++t) {
    for (size_t s = 0; s < levels; ++s) {
      posterior.gamma[t * levels + s] = std::exp(
          alpha[t * levels + s] + beta[t * levels + s] -
          posterior.log_marginal);
    }
  }
  return posterior;
}

Result<std::vector<double>> ItemLevelPosterior(
    const ItemTable& items, const SkillModel& model, ItemId item,
    std::span<const double> prior) {
  const int S = model.num_levels();
  if (item < 0 || item >= items.num_items()) {
    return Status::OutOfRange(StringPrintf("item %d", item));
  }
  if (static_cast<int>(prior.size()) != S) {
    return Status::InvalidArgument("prior size mismatch");
  }
  std::vector<double> log_posterior(static_cast<size_t>(S));
  for (int s = 1; s <= S; ++s) {
    const double p = prior[static_cast<size_t>(s - 1)];
    if (p < 0.0) return Status::InvalidArgument("negative prior entry");
    log_posterior[static_cast<size_t>(s - 1)] =
        (p > 0.0 ? std::log(p) : kNegInf) +
        model.ItemLogProb(items, item, s);
  }
  const double log_norm = LogSumExp(log_posterior);
  std::vector<double> posterior(static_cast<size_t>(S));
  if (!std::isfinite(log_norm)) {
    // Impossible item: fall back to the prior's shape.
    double total = 0.0;
    for (double p : prior) total += p;
    if (total <= 0.0) return Status::InvalidArgument("prior sums to zero");
    for (int s = 0; s < S; ++s) {
      posterior[static_cast<size_t>(s)] =
          prior[static_cast<size_t>(s)] / total;
    }
    return posterior;
  }
  for (int s = 0; s < S; ++s) {
    posterior[static_cast<size_t>(s)] =
        std::exp(log_posterior[static_cast<size_t>(s)] - log_norm);
  }
  return posterior;
}

}  // namespace upskill
