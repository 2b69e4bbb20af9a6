#ifndef UPSKILL_SERVE_SERVING_MODEL_H_
#define UPSKILL_SERVE_SERVING_MODEL_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/recommend.h"
#include "core/trainer.h"
#include "serve/snapshot.h"

namespace upskill {
namespace serve {

/// Writes the ids 0..count-1 to `order`, ranked by scores[id * stride]
/// descending, ties (-0.0 beside +0.0 included) toward the smaller id:
/// the order of an index sort with `a > b, then id ascending`. This is
/// how ServingModel ranks each level; scores must not be NaN.
void RankDescending(const double* scores, size_t stride, size_t count,
                    ItemId* order);

/// Immutable, request-ready view of a model snapshot. Construction does
/// all the heavy lifting once — the full level×item log-probability
/// matrix (via the batched LogProbBatch kernels behind
/// SkillModel::ItemLogProbCache) and one descending-plausibility item
/// ranking per level — so request handling touches only flat arrays:
/// ObserveAction reads one S-sized row, Recommend walks one precomputed
/// ranking and filters by the difficulty window instead of scanning and
/// sorting the item universe per request.
///
/// Instances are shared by `shared_ptr<const ServingModel>` between the
/// server front end and in-flight requests, which is what makes
/// SwapSnapshot a pointer swap: old requests finish against the old view,
/// new requests pick up the new one, nothing blocks.
class ServingModel {
 public:
  /// Builds the serving view. The log-prob matrix and per-level ranking
  /// precomputation dispatch through `backend` (null = serial); the
  /// resulting view is bitwise identical either way.
  static Result<std::shared_ptr<const ServingModel>> FromSnapshot(
      ModelSnapshot snapshot, exec::Backend* backend = nullptr);

  /// LoadSnapshot + FromSnapshot, recording `path` as the model's path().
  static Result<std::shared_ptr<const ServingModel>> FromSnapshotFile(
      const std::string& path, exec::Backend* backend = nullptr);

  /// The snapshot file this view was read from; empty when it was built
  /// by FromSnapshot. Labels `upskill_model_snapshot_info`.
  const std::string& path() const { return path_; }

  int num_levels() const { return snapshot_.config.num_levels; }
  int num_items() const { return snapshot_.items.num_items(); }

  /// Item-major log P(i | s) matrix, entry [item * S + (level-1)] — the
  /// same layout the batch assignment step consumes, bitwise equal to
  /// SkillModel::ItemLogProbCache on the snapshot's item table.
  const std::vector<double>& item_log_probs() const { return log_probs_; }

  /// S-sized row of item_log_probs() for one item.
  std::span<const double> ItemRow(ItemId item) const {
    return std::span<const double>(
        log_probs_.data() +
            static_cast<size_t>(item) * static_cast<size_t>(num_levels()),
        static_cast<size_t>(num_levels()));
  }

  /// Per-item difficulty (NaN for items without an estimate).
  const std::vector<double>& difficulty() const {
    return snapshot_.difficulty;
  }

  /// Transition weights for the streaming DP; null when the snapshot was
  /// built without a progression component (free start, zero costs).
  const TransitionWeights* transitions() const {
    return snapshot_.has_transitions ? &snapshot_.transitions : nullptr;
  }

  const ForgettingConfig& forgetting() const {
    return snapshot_.config.forgetting;
  }
  /// log(drop_probability), precomputed for the streaming DP.
  double log_down() const { return log_down_; }

  const std::string& item_name(ItemId item) const {
    return snapshot_.items.name(item);
  }
  const ModelSnapshot& snapshot() const { return snapshot_; }

  /// All items ordered by log P(i | level) descending, ties toward the
  /// smaller id — the ranking RecommendForUpskilling sorts out per call.
  std::span<const ItemId> RankedItems(int level) const;

  /// Difficulty-windowed recommendation for a user currently at
  /// `current_level`: walks RankedItems at the target level (next level
  /// when `options.rank_by_next_level`, clamped to S) and keeps the first
  /// `options.max_results` items whose difficulty lies in
  /// (current_level, current_level + stretch]; NaN difficulties are
  /// skipped. Returns the same items in the same order as
  /// RecommendForUpskilling with exclude_tried=false for a user whose
  /// last assigned level is `current_level`. A user at the top level gets
  /// an empty list (the stretch window is empty), never an error.
  Result<std::vector<UpskillRecommendation>> Recommend(
      int current_level, const UpskillRecommendationOptions& options) const;

 private:
  ServingModel() = default;

  static Result<std::shared_ptr<const ServingModel>> Build(
      ModelSnapshot snapshot, std::string path, exec::Backend* backend);

  ModelSnapshot snapshot_;
  std::string path_;
  // [item * S + (level-1)]
  std::vector<double> log_probs_;
  // ranked_[(level-1) * num_items + rank] = item id.
  std::vector<ItemId> ranked_;
  double log_down_ = 0.0;
};

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_SERVING_MODEL_H_
