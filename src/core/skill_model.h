#ifndef UPSKILL_CORE_SKILL_MODEL_H_
#define UPSKILL_CORE_SKILL_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "dist/distribution.h"

namespace upskill {

namespace exec {
class Backend;
}  // namespace exec

/// Which of the three parallelization axes from Section IV-C the trainer
/// uses (Table XIII / Figure 7 sweep them independently):
///  - `users`:    the assignment step runs one user sequence per task;
///  - `levels`:   the update step fans out over skill levels;
///  - `features`: the update step fans out over features (only available
///                in the multi-faceted model, as the paper notes).
/// This is an ablation knob, not a way to request threads: the training
/// drivers build one exec::Backend with `num_threads` workers when any()
/// holds and hand the assignment step a serial one when `users` is off;
/// FitCellsFromCountGrid reads `levels` and `features` to shape its cell
/// fan-out.
struct ParallelOptions {
  int num_threads = 1;
  bool users = false;
  bool levels = false;
  bool features = false;

  bool any() const { return num_threads > 1 && (users || levels || features); }
};

/// Optional probabilistic progression component (the paper's base model
/// has one; Section VI-D excludes it "for simplicity and fair comparison",
/// and this library follows that default). kGlobal learns a single
/// level-up probability plus an initial-level distribution, scored inside
/// the assignment DP. kPerClass is the full progression-class component
/// of Yang et al.: each user belongs to one of `num_progression_classes`
/// latent classes, each with its own initial distribution and level-up
/// probability (fast vs. slow learners); the assignment step picks every
/// user's best (class, path) pair jointly.
enum class TransitionModel {
  kNone,
  kGlobal,
  kPerClass,
};

/// The forgetting extension sketched in Section VII (Ebbinghaus): after a
/// long break between consecutive actions, a user's skill may drop one
/// level. When enabled, the assignment DP gains a penalized down-edge at
/// positions whose time gap exceeds `gap_threshold`, relaxing strict
/// monotonicity exactly there.
struct ForgettingConfig {
  bool enabled = false;
  /// A gap strictly greater than this (in the dataset's time unit)
  /// activates the down-edge.
  int64_t gap_threshold = 0;
  /// Probability weight of the drop; the DP charges log(drop_probability)
  /// per down-step (and nothing extra for not dropping — the forgetting
  /// component is a penalty, not a full distribution).
  double drop_probability = 0.05;

  /// The gap rule, for the trainers and the serving session alike: true
  /// when forgetting is enabled and the time between two consecutive
  /// actions is strictly greater than gap_threshold.
  bool OpensDownEdge(int64_t gap) const {
    return enabled && gap > gap_threshold;
  }
};

/// Hyper-parameters of the progression model (Section IV).
struct SkillModelConfig {
  /// Number of skill levels S.
  int num_levels = 5;
  /// Additive-smoothing pseudo-count lambda for categorical components
  /// (Equation 6; paper uses 0.01 after Shin et al.).
  double smoothing = 0.01;
  /// Minimum sequence length N for a user to participate in
  /// initialization (Section IV-B; paper uses 50).
  int min_init_actions = 50;
  /// Training stops after this many alternation rounds.
  int max_iterations = 100;
  /// ... or when the relative log-likelihood improvement drops below this.
  double relative_tolerance = 1e-6;
  /// Log per-iteration progress at INFO level.
  bool verbose = false;
  ParallelOptions parallel;
  /// Progression component (see TransitionModel).
  TransitionModel transitions = TransitionModel::kNone;
  /// Number of latent progression classes when transitions == kPerClass.
  int num_progression_classes = 2;
  /// Skill-decay extension (see ForgettingConfig).
  ForgettingConfig forgetting;
  /// Number of user-axis shards for the sharded execution core
  /// (src/exec): the dataset's user range is cut into this many
  /// contiguous, action-count-balanced runs, each one task of the
  /// training driver's user loop with its own scratch. 0 resolves
  /// automatically from the user loop's backend. Fitted parameters,
  /// assignments, and objectives are bitwise identical for ANY value —
  /// sharding only changes scheduling, never reduction order (see
  /// DESIGN.md, "Sharded execution core").
  int num_shards = 0;
  /// Execution backend name passed to exec::CreateBackend ("serial" or
  /// "pool"). Empty or "auto" picks "pool" when parallel.any() and
  /// "serial" otherwise. Backend choice only moves scheduling across
  /// threads; fitted parameters, assignments, objectives, eval reports,
  /// and snapshot bytes are bitwise identical for every backend (enforced
  /// by the tests/exec backend sweep).
  std::string backend;
};

/// Per-action skill levels Sigma: assignments[u][n] is the 1-based level of
/// user u's n-th action. Levels are 1-based throughout the public API to
/// match the paper's notation S = {1, ..., S}.
using SkillAssignments = std::vector<std::vector<int>>;

/// True when every sequence is monotone non-decreasing with unit steps and
/// levels lie in [1, S] (the constraint of Equation 1).
bool AssignmentsAreMonotone(const SkillAssignments& assignments,
                            int num_levels);

/// The multi-faceted progression model: a grid of per-(feature, level)
/// generative components theta_f(s), plus the item-level joint
/// log-likelihood log P(i | s) = sum_f log P_f(i_f | theta_f(s))
/// (Equation 2). Yang et al.'s ID-only baseline is this model with a
/// schema containing only the item-ID feature.
class SkillModel {
 public:
  SkillModel() = default;

  /// Builds a model whose components match `schema`: Categorical(lambda)
  /// for categorical features, Poisson for counts, Gamma or LogNormal for
  /// reals. All components start at their default (uniform/unit)
  /// parameters.
  static Result<SkillModel> Create(const FeatureSchema& schema,
                                   const SkillModelConfig& config);

  /// Deep-copying value semantics (components are cloned).
  SkillModel(const SkillModel& other);
  SkillModel& operator=(const SkillModel& other);
  SkillModel(SkillModel&&) = default;
  SkillModel& operator=(SkillModel&&) = default;

  int num_levels() const { return config_.num_levels; }
  int num_features() const { return schema_.num_features(); }
  const FeatureSchema& schema() const { return schema_; }
  const SkillModelConfig& config() const { return config_; }

  /// Component P_f(. | theta_f(s)); `level` is 1-based.
  const Distribution& component(int feature, int level) const;
  Distribution* mutable_component(int feature, int level);

  /// log P(i | s) for an item row in `items` (Equation 2); `level` is
  /// 1-based.
  double ItemLogProb(const ItemTable& items, ItemId item, int level) const;

  /// Precomputes log P(i | s) for every (item, level) pair; entry
  /// [item * S + (level-1)]. The assignment step reuses this across all
  /// occurrences of an item. Parallelizes over items through `backend`
  /// (null = serial).
  std::vector<double> ItemLogProbCache(const ItemTable& items,
                                       exec::Backend* backend = nullptr) const;

  /// Serializes all component parameters as CSV.
  Status Save(const std::string& path) const;

  /// Restores a model saved by Save(); `schema` must match the one the
  /// model was created with.
  static Result<SkillModel> Load(const std::string& path,
                                 const FeatureSchema& schema,
                                 const SkillModelConfig& config);

 private:
  SkillModel(FeatureSchema schema, SkillModelConfig config);

  size_t GridIndex(int feature, int level) const {
    return static_cast<size_t>(feature) *
               static_cast<size_t>(config_.num_levels) +
           static_cast<size_t>(level - 1);
  }

  FeatureSchema schema_;
  SkillModelConfig config_;
  // components_[f * S + (s-1)]
  std::vector<std::unique_ptr<Distribution>> components_;
};

/// Per-(item, level) log-probability cache. Computes one log-prob column
/// per (feature, level) component, then the item-major totals that the
/// assignment step consumes (same [item * S + (level-1)] layout as
/// SkillModel::ItemLogProbCache), summing features in ascending order so
/// every total stays bitwise equal to ItemLogProb. Its buffers persist
/// across Update() calls, so a trainer refreshing it every iteration does
/// not reallocate them.
class LogProbCache {
 public:
  LogProbCache() = default;

  /// Recomputes every cell and total against `model`'s current
  /// parameters. The block loops dispatch through `backend` (null =
  /// serial).
  void Update(const SkillModel& model, const ItemTable& items,
              exec::Backend* backend = nullptr);

  /// Item-major totals, valid after Update(); entry [item * S + (level-1)].
  const std::vector<double>& values() const { return totals_; }

  /// Moves the totals out (for one-shot use).
  std::vector<double> TakeValues() && { return std::move(totals_); }

 private:
  // Feature-major log-prob columns: [(f * S + (s-1)) * I + item].
  std::vector<double> columns_;
  // Scratch for per-feature log(value) columns, shared by every level of
  // the same feature within one Update (log-support kinds only): the
  // std::log pass is the dominant cost of the Gamma/LogNormal batches,
  // and the S cells of a feature score the same item column, so the
  // cache computes each feature's logs once and feeds
  // LogProbBatchWithLogs instead of paying for them per cell.
  std::vector<double> log_scratch_;
  // Item-major totals: [item * S + (s-1)].
  std::vector<double> totals_;
};

}  // namespace upskill

#endif  // UPSKILL_CORE_SKILL_MODEL_H_
