#include "eval/tasks.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/inference.h"
#include "exec/backend.h"
#include "exec/map_reduce.h"

namespace upskill {
namespace eval {

Result<ItemPredictionReport> EvaluateItemPrediction(
    const Dataset& train, const SkillAssignments& assignments,
    const SkillModel& model, const std::vector<HeldOutAction>& test, int k,
    exec::Backend* backend) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (backend == nullptr) backend = exec::Backend::Serial();
  ItemPredictionReport report;
  report.reciprocal_ranks.assign(test.size(), 0.0);
  // Test cases are independent: each writes only its own rank (0 when it
  // failed), so the hit count and the first failing case are read in case
  // order after the loop.
  const auto rank_of = [&](size_t i) {
    const HeldOutAction& held = test[i];
    const int level = NearestActionLevel(
        train.sequence(held.user),
        assignments[static_cast<size_t>(held.user)], held.action.time);
    return ItemRankAtLevel(model, level, held.action.item);
  };
  std::vector<int> ranks(test.size(), 0);
  backend->RunIndices(0, test.size(), [&](size_t i) {
    const Result<int> rank = rank_of(i);
    if (!rank.ok()) return;
    ranks[i] = rank.value();
    report.reciprocal_ranks[i] = 1.0 / static_cast<double>(rank.value());
  });
  size_t hits = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    // Ranks start at 1; re-running the first failed case gives its status.
    if (ranks[i] == 0) return rank_of(i).status();
    if (ranks[i] <= k) ++hits;
  }
  report.num_cases = test.size();
  if (!test.empty()) {
    report.accuracy_at_k =
        static_cast<double>(hits) / static_cast<double>(test.size());
    // Fixed per-case tree over the index order: thread-count-invariant.
    report.mean_reciprocal_rank =
        exec::ReduceOrderedSum(report.reciprocal_ranks) /
        static_cast<double>(test.size());
  }
  return report;
}

double RandomGuessAccuracyAtK(int num_items, int k) {
  if (num_items <= 0) return 0.0;
  return std::min(1.0, static_cast<double>(k) / num_items);
}

double RandomGuessMeanReciprocalRank(int num_items) {
  // E[1/rank] for a uniformly random rank = H_n / n.
  if (num_items <= 0) return 0.0;
  double harmonic = 0.0;
  for (int i = 1; i <= num_items; ++i) harmonic += 1.0 / i;
  return harmonic / num_items;
}

namespace {

// Difficulty lookup with a midpoint fallback for NaN (never-selected
// items under the assignment-based estimator).
double DifficultyOrMidpoint(std::span<const double> difficulty, ItemId item,
                            int num_levels) {
  const double value = difficulty[static_cast<size_t>(item)];
  if (std::isnan(value)) return 0.5 * (1.0 + num_levels);
  return value;
}

}  // namespace

Result<RatingPredictionReport> EvaluateRatingPrediction(
    const Dataset& train, const SkillAssignments& assignments,
    const SkillModel& model, std::span<const double> difficulty,
    const std::vector<HeldOutAction>& test, const RatingTaskOptions& options,
    Rng& rng) {
  if (static_cast<int>(difficulty.size()) != train.items().num_items()) {
    return Status::InvalidArgument("difficulty vector size mismatch");
  }
  Result<ffm::RatingFeatureBuilder> builder = ffm::RatingFeatureBuilder::Create(
      train.num_users(), train.items().num_items(), model.num_levels(),
      options.features);
  if (!builder.ok()) return builder.status();

  // Assemble training examples from rated training actions.
  std::vector<ffm::Example> train_examples;
  double min_target = std::numeric_limits<double>::infinity();
  double max_target = -std::numeric_limits<double>::infinity();
  for (UserId u = 0; u < train.num_users(); ++u) {
    std::span<const Action> seq = train.sequence(u);
    const std::vector<int>& levels = assignments[static_cast<size_t>(u)];
    for (size_t n = 0; n < seq.size(); ++n) {
      if (!seq[n].has_rating()) continue;
      Result<ffm::Instance> instance = builder.value().Build(
          u, seq[n].item, levels[n],
          DifficultyOrMidpoint(difficulty, seq[n].item, model.num_levels()));
      if (!instance.ok()) return instance.status();
      train_examples.push_back(
          ffm::Example{std::move(instance).value(), seq[n].rating});
      min_target = std::min(min_target, seq[n].rating);
      max_target = std::max(max_target, seq[n].rating);
    }
  }
  if (train_examples.empty()) {
    return Status::FailedPrecondition("no rated training actions");
  }

  Result<ffm::FfmModel> model_result = ffm::FfmModel::Create(
      builder.value().num_fields(), builder.value().num_features(),
      options.ffm);
  if (!model_result.ok()) return model_result.status();
  ffm::FfmModel ffm_model = std::move(model_result).value();

  RatingPredictionReport report;
  report.num_train = train_examples.size();
  ffm_model.Train(std::move(train_examples), rng);

  // Score rated held-out actions.
  double squared_sum = 0.0;
  for (const HeldOutAction& held : test) {
    if (!held.action.has_rating()) continue;
    const int level =
        NearestActionLevel(train.sequence(held.user),
                           assignments[static_cast<size_t>(held.user)],
                           held.action.time);
    Result<ffm::Instance> instance = builder.value().Build(
        held.user, held.action.item, level,
        DifficultyOrMidpoint(difficulty, held.action.item,
                             model.num_levels()));
    if (!instance.ok()) return instance.status();
    const double predicted = std::clamp(
        ffm_model.Predict(instance.value()), min_target, max_target);
    const double error = predicted - held.action.rating;
    squared_sum += error * error;
    report.squared_errors.push_back(error * error);
    ++report.num_test;
  }
  if (report.num_test == 0) {
    return Status::FailedPrecondition("no rated held-out actions");
  }
  report.rmse =
      std::sqrt(squared_sum / static_cast<double>(report.num_test));
  return report;
}

}  // namespace eval
}  // namespace upskill
