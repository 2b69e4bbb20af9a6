#ifndef UPSKILL_CORE_ONLINE_TRAINER_H_
#define UPSKILL_CORE_ONLINE_TRAINER_H_

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dp.h"
#include "core/skill_model.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace upskill {

/// Outcome of one OnlineTrainer::Refresh pass.
struct OnlineRefreshStats {
  /// Users whose sequences changed (or appeared) since the previous
  /// dataset and were re-solved by the DP.
  size_t dirty_users = 0;
  /// Subset of dirty_users that did not exist in the previous dataset.
  size_t new_users = 0;
  /// Users whose sequences were byte-identical and kept their paths.
  size_t clean_users = 0;
  /// Actions removed from / added to the count grid.
  size_t actions_removed = 0;
  size_t actions_added = 0;
  /// L2 norm of the flattened model-parameter change this refresh made
  /// vs the previous fit (`upskill_online_param_delta_l2`; 0.0 when
  /// metrics are disabled or nothing was dirty).
  double param_delta_l2 = 0.0;
  double refresh_seconds = 0.0;
};

/// Online / mini-batch EM over a growing action log (the continuous-
/// learning half of the serving loop; see DESIGN.md, "Continuous
/// learning").
///
/// The trainer's update step is a pure function of the per-(level, item)
/// action-count grid (see FitCellsFromCountGrid), and that grid holds
/// exact integer sums in doubles — so it can be maintained incrementally
/// (subtract a user's old counts, add the new ones) with bitwise-exact
/// results: the incrementally maintained grid is bit-for-bit the grid a
/// full sweep over (dataset, assignments) would build, and therefore the
/// refit parameters are bit-for-bit what FitParameters would produce.
///
/// Two entry points:
///
///  - TrainFullReplay(dataset): the full-batch anchor. Delegates to
///    Trainer::Train (identical to the offline path by construction —
///    this is the determinism story: replaying base + compacted log
///    through TrainFullReplay is bitwise equal to an offline retrain on
///    the merged dataset) and adopts the result as the online state.
///
///  - Refresh(previous, current): one mini-batch EM step. Detects dirty
///    users by comparing action bytes between the two dataset versions
///    (compaction can interleave log records anywhere in a sequence, so
///    the comparison is per-user, not append-only), re-solves only their
///    assignment DPs against the current model, patches the count grid,
///    refits every (feature, level) cell from the patched grid, and
///    refits the transition component. Clean users keep their paths and
///    contribute nothing but their existing counts — the cost scales with
///    the delta, not the corpus.
///
/// Refresh is a coordinate-ascent step from the previous converged state,
/// not a full retrain; TrainFullReplay is the exactness anchor operators
/// fall back to (and the replay-equivalence tests pin). State round-trips
/// through CRC-protected checkpoints bitwise, so a resumed trainer
/// refreshes identically to one that never stopped.
///
/// TransitionModel::kPerClass is rejected (per-user class posteriors are
/// not maintained incrementally); kNone and kGlobal are supported.
class OnlineTrainer {
 public:
  explicit OnlineTrainer(SkillModelConfig config) : config_(config) {}

  /// Full-batch training over `dataset` via Trainer::Train; adopts the
  /// fitted model, assignments, and transition weights, and rebuilds the
  /// count grid from the final assignments (CountAssignedActions).
  Result<TrainResult> TrainFullReplay(const Dataset& dataset);

  /// One incremental EM step moving the state from `previous` to
  /// `current`. `previous` must be the dataset the current state was
  /// trained/refreshed on (user names must match on the shared prefix and
  /// the item catalog must be unchanged); `current` may append users
  /// and/or grow or reshuffle existing sequences (compaction merges by
  /// time). Requires a prior TrainFullReplay or LoadCheckpoint. The
  /// cache refresh and the cell refit dispatch through `backend` (null =
  /// serial).
  Result<OnlineRefreshStats> Refresh(const Dataset& previous,
                                     const Dataset& current,
                                     exec::Backend* backend = nullptr);

  /// Serializes the full online state (config echo, schema, component
  /// parameters, assignments, count grid, transition weights) with a
  /// trailing CRC-32, atomically through ReplaceFile (temp file, fsync,
  /// rename, directory fsync). Same state, same bytes.
  Status SaveCheckpoint(const std::string& path) const;

  /// Restores a checkpoint written by SaveCheckpoint. `config` must agree
  /// with the checkpoint on num_levels and the transition model; the
  /// schema is restored from the checkpoint itself. A path that cannot be
  /// read whole (a directory, say) is an IoError.
  static Result<OnlineTrainer> LoadCheckpoint(const std::string& path,
                                              const SkillModelConfig& config);

  bool trained() const { return trained_; }
  const SkillModel& model() const { return model_; }
  const SkillAssignments& assignments() const { return assignments_; }
  /// [(level-1) * num_items + item] exact action counts; valid once
  /// trained.
  std::span<const double> level_counts() const { return level_counts_; }
  /// Valid when config().transitions == TransitionModel::kGlobal;
  /// default-constructed (a free start) otherwise.
  const TransitionWeights& transitions() const { return transitions_; }
  const SkillModelConfig& config() const { return config_; }

 private:
  Status ValidateConfig() const;
  /// All component parameters concatenated in (feature, level) order —
  /// the vector the refresh's param-delta L2 gauge is computed over.
  std::vector<double> FlattenedParameters() const;

  SkillModelConfig config_;
  bool trained_ = false;
  SkillModel model_;
  SkillAssignments assignments_;
  std::vector<double> level_counts_;
  TransitionWeights transitions_;
  // log P(i | s) cache + per-user DP scratch reused across Refresh calls
  // (allocation-free in the steady state).
  LogProbCache cache_;
  DpScratch scratch_;
};

}  // namespace upskill

#endif  // UPSKILL_CORE_ONLINE_TRAINER_H_
