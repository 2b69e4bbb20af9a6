#include "core/difficulty.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/math.h"

namespace upskill {

std::vector<double> EstimateDifficultyByAssignment(
    const Dataset& dataset, const SkillAssignments& assignments) {
  const size_t num_items = static_cast<size_t>(dataset.items().num_items());
  std::vector<double> level_sum(num_items, 0.0);
  std::vector<size_t> count(num_items, 0);
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    std::span<const Action> seq = dataset.sequence(u);
    const std::vector<int>& levels = assignments[static_cast<size_t>(u)];
    UPSKILL_CHECK(levels.size() == seq.size());
    for (size_t n = 0; n < seq.size(); ++n) {
      level_sum[static_cast<size_t>(seq[n].item)] +=
          static_cast<double>(levels[n]);
      ++count[static_cast<size_t>(seq[n].item)];
    }
  }
  std::vector<double> difficulty(num_items,
                                 std::numeric_limits<double>::quiet_NaN());
  for (size_t i = 0; i < num_items; ++i) {
    if (count[i] > 0) {
      difficulty[i] = level_sum[i] / static_cast<double>(count[i]);
    }
  }
  return difficulty;
}

std::vector<double> UniformSkillPrior(int num_levels) {
  UPSKILL_CHECK(num_levels >= 1);
  return std::vector<double>(static_cast<size_t>(num_levels),
                             1.0 / static_cast<double>(num_levels));
}

std::vector<double> EmpiricalSkillPrior(const SkillAssignments& assignments,
                                        int num_levels) {
  UPSKILL_CHECK(num_levels >= 1);
  std::vector<uint64_t> counts(static_cast<size_t>(num_levels), 0);
  uint64_t total = 0;
  for (const std::vector<int>& seq : assignments) {
    for (int level : seq) {
      UPSKILL_CHECK(level >= 1 && level <= num_levels);
      ++counts[static_cast<size_t>(level - 1)];
    }
    total += seq.size();
  }
  if (total == 0) return UniformSkillPrior(num_levels);
  std::vector<double> prior(counts.size());
  for (size_t s = 0; s < counts.size(); ++s) {
    prior[s] = static_cast<double>(counts[s]) / static_cast<double>(total);
  }
  return prior;
}

Result<std::vector<double>> EstimateDifficultyByGeneration(
    const ItemTable& items, const SkillModel& model,
    std::span<const double> prior) {
  const int num_levels = model.num_levels();
  if (static_cast<int>(prior.size()) != num_levels) {
    return Status::InvalidArgument("prior size does not match num_levels");
  }
  double prior_sum = 0.0;
  for (double p : prior) {
    if (p < 0.0) return Status::InvalidArgument("negative prior entry");
    prior_sum += p;
  }
  if (prior_sum <= 0.0) return Status::InvalidArgument("prior sums to zero");

  std::vector<double> log_prior(static_cast<size_t>(num_levels));
  for (size_t s = 0; s < log_prior.size(); ++s) {
    log_prior[s] = prior[s] > 0.0 ? std::log(prior[s])
                                  : -std::numeric_limits<double>::infinity();
  }

  // The batched cache sums each item's features in ascending order from
  // 0.0, as ItemLogProb does, so every log P(i | s) is bitwise the scalar
  // value.
  const size_t levels = static_cast<size_t>(num_levels);
  const std::vector<double> log_probs = model.ItemLogProbCache(items);
  std::vector<double> difficulty(static_cast<size_t>(items.num_items()));
  std::vector<double> log_posterior(levels);
  for (size_t i = 0; i < difficulty.size(); ++i) {
    for (size_t s = 0; s < levels; ++s) {
      log_posterior[s] = log_probs[i * levels + s] + log_prior[s];
    }
    const double log_norm = LogSumExp(log_posterior);
    double expected = 0.0;
    if (std::isfinite(log_norm)) {
      for (size_t s = 0; s < levels; ++s) {
        expected += static_cast<double>(s + 1) *
                    std::exp(log_posterior[s] - log_norm);
      }
    } else {
      // The item is impossible under every level (can happen for
      // out-of-vocabulary inputs with zero smoothing); fall back to the
      // scale midpoint rather than propagating NaN.
      expected = 0.5 * (1.0 + static_cast<double>(num_levels));
    }
    difficulty[i] = expected;
  }
  return difficulty;
}

Result<std::vector<double>> EstimateDifficultyByGeneration(
    const ItemTable& items, const SkillModel& model, DifficultyPrior prior,
    const SkillAssignments& assignments) {
  const std::vector<double> prior_vector =
      prior == DifficultyPrior::kUniform
          ? UniformSkillPrior(model.num_levels())
          : EmpiricalSkillPrior(assignments, model.num_levels());
  return EstimateDifficultyByGeneration(items, model, prior_vector);
}

Result<std::vector<double>> EstimateDifficultyShrunken(
    const Dataset& dataset, const SkillModel& model,
    const SkillAssignments& assignments, DifficultyPrior prior,
    double generation_weight) {
  if (!(generation_weight > 0.0)) {
    return Status::InvalidArgument("generation_weight must be positive");
  }
  Result<std::vector<double>> generation = EstimateDifficultyByGeneration(
      dataset.items(), model, prior, assignments);
  if (!generation.ok()) return generation.status();
  const std::vector<double> assignment =
      EstimateDifficultyByAssignment(dataset, assignments);

  std::vector<size_t> counts(static_cast<size_t>(dataset.items().num_items()),
                             0);
  dataset.ForEachAction([&counts](UserId, const Action& a) {
    ++counts[static_cast<size_t>(a.item)];
  });

  std::vector<double> combined(generation.value().size());
  for (size_t i = 0; i < combined.size(); ++i) {
    const double n = static_cast<double>(counts[i]);
    if (n == 0.0 || std::isnan(assignment[i])) {
      combined[i] = generation.value()[i];
      continue;
    }
    combined[i] = (n * assignment[i] + generation_weight *
                                           generation.value()[i]) /
                  (n + generation_weight);
  }
  return combined;
}

}  // namespace upskill
