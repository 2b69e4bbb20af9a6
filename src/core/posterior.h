#ifndef UPSKILL_CORE_POSTERIOR_H_
#define UPSKILL_CORE_POSTERIOR_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/math.h"
#include "common/status.h"
#include "core/skill_model.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace upskill {

/// Marginal posterior of a user's latent skill trajectory under a trained
/// model: soft (per-action, per-level) probabilities rather than the
/// single Viterbi path the hard trainer returns. This is the inference
/// counterpart of the EM trainer's E-step, exposed for applications that
/// need uncertainty (e.g. abstaining from recommendations when the level
/// is ambiguous).
struct SequencePosterior {
  /// gamma[t * num_levels + (s - 1)] = P(level at action t is s | data).
  std::vector<double> gamma;
  /// log P(sequence | model, transitions).
  double log_marginal = 0.0;
  int num_levels = 0;

  double Probability(size_t t, int level) const {
    return gamma[t * static_cast<size_t>(num_levels) +
                 static_cast<size_t>(level - 1)];
  }
  /// Posterior mean level at action t, on the [1, S] scale.
  double MeanLevel(size_t t) const;
};

/// The forward-backward recurrences over the monotone stay/up lattice in
/// log space, shared by ComputeSequencePosterior and EmTrainer's E-step.
/// `row(t)` points at action t's S log-probs; `log_initial` has S entries
/// (-inf allowed); staying at the top level is free. Fills the
/// caller-owned arenas alpha and beta ([t * S + s], resized to n * S; n
/// >= 1) and returns log Z, the log-sum-exp of the last alpha row (not
/// finite when the sequence is impossible under the weights).
template <typename RowOf>
double ForwardBackward(size_t n, size_t levels,
                       std::span<const double> log_initial, double log_stay,
                       double log_up, const RowOf& row,
                       std::vector<double>& alpha, std::vector<double>& beta) {
  auto stay_cost = [&](size_t s) { return s + 1 < levels ? log_stay : 0.0; };
  alpha.resize(n * levels);
  beta.resize(n * levels);
  const double* first = row(0);
  for (size_t s = 0; s < levels; ++s) alpha[s] = log_initial[s] + first[s];
  for (size_t t = 1; t < n; ++t) {
    const double* lp = row(t);
    for (size_t s = 0; s < levels; ++s) {
      const double stay = alpha[(t - 1) * levels + s] + stay_cost(s);
      double incoming = stay;
      if (s > 0) {
        const double up = alpha[(t - 1) * levels + (s - 1)] + log_up;
        const double pair[] = {stay, up};
        incoming = LogSumExp(pair);
      }
      alpha[t * levels + s] = incoming + lp[s];
    }
  }
  for (size_t s = 0; s < levels; ++s) beta[(n - 1) * levels + s] = 0.0;
  for (size_t t = n - 1; t-- > 0;) {
    const double* next = row(t + 1);
    for (size_t s = 0; s < levels; ++s) {
      const double stay = stay_cost(s) + next[s] + beta[(t + 1) * levels + s];
      double outgoing = stay;
      if (s + 1 < levels) {
        const double up =
            log_up + next[s + 1] + beta[(t + 1) * levels + (s + 1)];
        const double pair[] = {stay, up};
        outgoing = LogSumExp(pair);
      }
      beta[t * levels + s] = outgoing;
    }
  }
  return LogSumExp(std::span<const double>(alpha).subspan((n - 1) * levels,
                                                          levels));
}

/// Runs the forward-backward algorithm over the monotone stay/up lattice
/// for one sequence. `transitions` supplies log pi / log stay / log up
/// (use FitTransitionWeights output, a trained EmTrainResult's
/// parameters, or uniform weights). Fails on an empty sequence or an
/// out-of-range item.
Result<SequencePosterior> ComputeSequencePosterior(
    const ItemTable& items, std::span<const Action> sequence,
    const SkillModel& model, const TransitionWeights& transitions);

/// Uniform transition weights (free start, stay/up equally likely) for
/// posterior queries when no progression component was learned.
TransitionWeights UninformativeTransitions(int num_levels);

/// Posterior P(s | i) over the level that generated a single item, under
/// `prior` (size S, non-negative, positive sum) — Equation 10 exposed
/// directly.
Result<std::vector<double>> ItemLevelPosterior(const ItemTable& items,
                                               const SkillModel& model,
                                               ItemId item,
                                               std::span<const double> prior);

}  // namespace upskill

#endif  // UPSKILL_CORE_POSTERIOR_H_
