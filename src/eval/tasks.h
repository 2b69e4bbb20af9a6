#ifndef UPSKILL_EVAL_TASKS_H_
#define UPSKILL_EVAL_TASKS_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/skill_model.h"
#include "data/dataset.h"
#include "data/split.h"
#include "ffm/feature_builder.h"
#include "ffm/ffm.h"

namespace upskill {
namespace eval {

/// Aggregate item-prediction quality (Tables X and XI).
struct ItemPredictionReport {
  /// Fraction of test cases where the true item ranked in the top k.
  double accuracy_at_k = 0.0;
  /// Mean reciprocal rank.
  double mean_reciprocal_rank = 0.0;
  size_t num_cases = 0;
  /// Per-case reciprocal ranks, for paired significance tests.
  std::vector<double> reciprocal_ranks;
};

/// The item prediction protocol of Section VI-E: for each held-out action,
/// infer the user's level from the chronologically nearest training
/// action, rank all items by the ID-feature probability at that level, and
/// score the true item's rank. The test cases run sharded through
/// `backend` (null = serial; exec::ShardPlan over the case index space);
/// metrics are reduced per-case in index order, so the report is bitwise
/// identical for every backend, and a failing case reports the same
/// (shard-order-first) error either way.
Result<ItemPredictionReport> EvaluateItemPrediction(
    const Dataset& train, const SkillAssignments& assignments,
    const SkillModel& model, const std::vector<HeldOutAction>& test,
    int k = 10, exec::Backend* backend = nullptr);

/// Expected Acc@k and mean RR of ranking items uniformly at random (the
/// sanity floor quoted in Section VI-E).
double RandomGuessAccuracyAtK(int num_items, int k);
double RandomGuessMeanReciprocalRank(int num_items);

/// Configuration for one Table-XII column.
struct RatingTaskOptions {
  ffm::RatingFeatureConfig features;
  ffm::FfmConfig ffm;
};

/// Rating-prediction quality (Table XII).
struct RatingPredictionReport {
  double rmse = 0.0;
  size_t num_train = 0;
  size_t num_test = 0;
  /// Per-case squared errors, for paired significance tests.
  std::vector<double> squared_errors;
};

/// The rating prediction protocol of Section VI-E: train an FFM on the
/// rated training actions (skill level from `assignments`, difficulty from
/// `difficulty`, both optional per `options.features`) and report RMSE on
/// the rated held-out actions, whose levels come from nearest-action
/// inference. `difficulty` must cover every item (NaN entries fall back to
/// the scale midpoint). Predictions are clipped to [min, max] target seen
/// in training.
Result<RatingPredictionReport> EvaluateRatingPrediction(
    const Dataset& train, const SkillAssignments& assignments,
    const SkillModel& model, std::span<const double> difficulty,
    const std::vector<HeldOutAction>& test, const RatingTaskOptions& options,
    Rng& rng);

}  // namespace eval
}  // namespace upskill

#endif  // UPSKILL_EVAL_TASKS_H_
