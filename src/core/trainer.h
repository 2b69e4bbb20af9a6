#ifndef UPSKILL_CORE_TRAINER_H_
#define UPSKILL_CORE_TRAINER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/dp.h"
#include "core/skill_model.h"
#include "data/dataset.h"
#include "exec/shard.h"

namespace upskill {

/// Log-space transition weights consumed by the assignment step when a
/// progression component is enabled. Default-constructed weights are the
/// free start with zero stay/up costs, the plain model's lattice.
struct TransitionWeights {
  /// log pi(s), one entry per level (may be empty: free start).
  std::vector<double> log_initial;
  /// log(1 - p_up); the top level's self-transition is always free.
  double log_stay = 0.0;
  /// log p_up.
  double log_up = 0.0;
};

/// One learned progression class (TransitionModel::kPerClass): its
/// transition weights plus the (log) fraction of users it claims.
struct ProgressionClassWeights {
  TransitionWeights weights;
  double log_prior = 0.0;
};

/// Output of Trainer::Train.
struct TrainResult {
  SkillModel model;
  SkillAssignments assignments;
  /// Total log-likelihood measured at each assignment step (Equation 3);
  /// non-decreasing by the coordinate-ascent argument of Section IV-B.
  std::vector<double> log_likelihood_trace;
  int iterations = 0;
  bool converged = false;
  double final_log_likelihood = 0.0;
  /// Wall-clock split, for the efficiency experiments (Section VI-F).
  /// `cache_seconds` is the per-iteration item log-prob cache recompute,
  /// which the paper folds into the assignment step; it is kept separate
  /// here so its share of the pass is visible.
  double assignment_seconds = 0.0;
  double cache_seconds = 0.0;
  double update_seconds = 0.0;
  double init_seconds = 0.0;
  /// User DPs solved across all assignment passes: every pass solves
  /// every user, so this is num_users * iterations.
  size_t reassigned_users = 0;
  /// Always 0: every pass solves every user. Kept only because
  /// bench/e2e/bench_e2e.cc reads it for `core.train.dp_skip_ratio`;
  /// ROADMAP.md's benchmark-housekeeping item deletes both.
  size_t skipped_users = 0;
  /// Learned progression component (meaningful when the config enables
  /// TransitionModel::kGlobal; otherwise left at defaults).
  std::vector<double> initial_distribution;
  double level_up_probability = 0.0;
  /// Learned classes and per-user class labels (kPerClass only).
  std::vector<ProgressionClassWeights> progression_classes;
  std::vector<int> user_classes;
};

/// Hard-assignment coordinate-ascent trainer for the progression model
/// (Section IV-B): initialize from uniformly segmented long sequences,
/// then alternate the DP assignment step and the per-(feature, level)
/// maximum-likelihood update step until the likelihood stops improving.
class Trainer {
 public:
  explicit Trainer(SkillModelConfig config) : config_(config) {}

  /// Runs the full training loop on `dataset`. Fails when the dataset is
  /// empty or the schema/config are invalid.
  Result<TrainResult> Train(const Dataset& dataset) const;

  const SkillModelConfig& config() const { return config_; }

 private:
  SkillModelConfig config_;
};

/// The one backend a training driver (Trainer::Train, EmTrainer::Train,
/// the CLI's online refresh and snapshot) runs on:
/// exec::CreateBackend(config.backend, config.parallel.num_threads) when
/// config.parallel.any(), with one thread otherwise.
Result<std::shared_ptr<exec::Backend>> CreateTrainingBackend(
    const SkillModelConfig& config);

/// Uniform-segmentation levels for one sequence length: action n of len
/// gets level 1 + floor(n * S / len). Shared by the initializer and the
/// Uniform baseline.
std::vector<int> SegmentUniformly(size_t length, int num_levels);

/// Initialization assignments (Section IV-B): users with at least
/// `min_init_actions` actions get uniform segmentation; everyone else gets
/// an empty vector (excluded from the initial parameter fit). Falls back
/// to including all users when nobody qualifies.
SkillAssignments InitializeAssignments(const Dataset& dataset, int num_levels,
                                       int min_init_actions);

/// The per-(level, item) action counts of `assignments` in one serial
/// sweep: [(level-1) * num_items + item], size num_levels * num_items.
/// Users with empty assignment vectors are skipped.
std::vector<double> CountAssignedActions(const Dataset& dataset,
                                         const SkillAssignments& assignments,
                                         int num_levels);

/// The update step (Equations 5-7) for one-shot callers:
/// FitCellsFromCountGrid over CountAssignedActions. Users with empty
/// assignment vectors are skipped; levels with no assigned actions keep
/// their current parameters. Trainer::Train refits from its
/// AssignmentEngine's grid instead (AssignmentEngine::TrackCounts).
void FitParameters(const Dataset& dataset, const SkillAssignments& assignments,
                   SkillModel* model, exec::Backend* backend = nullptr,
                   ParallelOptions parallel = {});

/// The refit half of the update step. Hard assignments weight every
/// action equally, so the per-(level, item) action counts are all the
/// statistics need: every (feature, level) cell of `model` reduces its row
/// of `level_counts` ([(level-1) * num_items + item]) against the
/// feature's item column in fixed item order into sufficient statistics
/// and refits (gamma/log-normal log-sums reassociate relative to a flat
/// loop, but deterministically so). The counts are exact integer sums, so
/// any path to the same grid — one sweep, the assignment engine's patched
/// grid, the online trainer's subtract/add — refits to bitwise-identical
/// parameters. The per-axis cell fan-out and the large-catalog column
/// transforms dispatch through `backend` (null = serial) as `parallel`
/// selects.
void FitCellsFromCountGrid(const ItemTable& items,
                           std::span<const double> level_counts,
                           SkillModel* model, exec::Backend* backend = nullptr,
                           ParallelOptions parallel = {});

/// The assignment step (Equation 4): per-user DP against the item
/// log-probability cache. Returns the new assignments and, via
/// `total_log_likelihood`, the objective value of Equation 3 under them
/// (including transition terms when `transitions` is non-null). Runs the
/// users through `backend` (null = serial). When `item_log_probs` is
/// non-null it must be a [item * S + (level-1)] cache (e.g.
/// LogProbCache::values()) and is used as-is; otherwise the cache is
/// computed internally.
SkillAssignments AssignSkills(const Dataset& dataset, const SkillModel& model,
                              exec::Backend* backend = nullptr,
                              double* total_log_likelihood = nullptr,
                              const TransitionWeights* transitions = nullptr,
                              const std::vector<double>* item_log_probs =
                                  nullptr);

/// Maximum-likelihood refit of the global progression component from hard
/// assignments: pi from (smoothed) first-action level counts, p_up from
/// the fraction of below-top transitions that step up. Requires every
/// level in [1, num_levels].
TransitionWeights FitTransitionWeights(const SkillAssignments& assignments,
                                       int num_levels, double smoothing);

/// One user's assignment DP (Equation 4) over the item ids of its
/// actions, against the [item * S + (level-1)] cache. `allow_down` holds
/// one ForgettingConfig::OpensDownEdge flag per transition (ids.size() -
/// 1) when forgetting is enabled, and is empty otherwise: non-empty, it
/// selects the forgetting solver with the down-edge opened where a flag
/// is set; empty, the plain kernel. `log_down` is
/// log(forgetting.drop_probability), computed once per pass by the
/// caller. Either span may alias scratch.items / scratch.allow_down.
/// Writes the path into scratch.levels and returns its log-likelihood.
/// AssignmentEngine's passes and OnlineTrainer::Refresh all solve through
/// it, so a refresh gives a user exactly the path a full pass would.
double SolveUserPath(std::span<const int32_t> ids,
                     std::span<const uint8_t> allow_down,
                     std::span<const double> item_log_probs, int num_levels,
                     const TransitionWeights& transitions, double log_down,
                     DpScratch& scratch);

/// Outcome of one AssignmentEngine pass.
struct AssignmentStats {
  /// Objective value of Equation 3 under the new assignments (including
  /// transition terms when enabled).
  double log_likelihood = 0.0;
  /// True when any user's levels differ from the previous pass (always
  /// true on the first pass).
  bool changed = true;
};

/// Fused, arena-backed assignment step. Every pass solves every user.
/// Owns the state that makes repeated passes over one dataset cheap:
///  - the user-shard plan (exec::PlanDatasetShards from the backend of
///    the first pass, kept for every later pass) and one scratch struct
///    per shard holding its DP arenas and move lists — zero steady-state
///    allocation; each pass runs one Backend::Run task per shard;
///  - the assignments of the previous pass, which tell whether a pass
///    changed any path (AssignmentStats::changed) and which count-grid
///    cells it moved;
///  - every action's item id, packed as int32 in user order: the first
///    pass copies them out of the records, and every pass then solves
///    from this column, the plain pass (no forgetting) two users per
///    kernel call (SolveMonotonePathItemsPair);
///  - with forgetting, a byte per action beside the id column: whether
///    the gap before it opens the down-edge, filled by the first pass
///    that runs with forgetting (again if the gap threshold changes);
///  - optionally (TrackCounts), the count grid of those paths: the first
///    pass recounts it from its new paths; later passes' shard tasks list
///    the cells their users' paths moved, and the caller applies the
///    lists after the join.
/// Results are bitwise identical to the one-shot AssignSkills for any
/// thread count and any shard count: the objective is reduced per-user
/// by exec::ReduceOrderedSum, never from per-shard partials. The dataset
/// must outlive the engine and keep its sequences unchanged.
class AssignmentEngine {
 public:
  /// `num_shards` <= 0 resolves automatically from the backend of the
  /// first pass.
  explicit AssignmentEngine(const Dataset& dataset, int num_levels,
                            int num_shards = 0);

  /// Adopts `initial` (empty path = not counted) as the paths the first
  /// pass starts from and counts them into level_counts(), which every
  /// later pass keeps equal to the counts of assignments(). Call once,
  /// before the first pass; the first pass still solves every user.
  void TrackCounts(SkillAssignments initial);

  /// Per-(level, item) action counts of assignments(), in the layout
  /// FitCellsFromCountGrid reads; empty unless TrackCounts was called.
  std::span<const double> level_counts() const { return level_counts_; }

  /// One assignment pass (Equation 4), plain or with global transition
  /// weights (`transitions` may be null), its user shards run through
  /// `backend` (null = serial). Forgetting is honored per
  /// `model.config()`.
  AssignmentStats Assign(const SkillModel& model,
                         const std::vector<double>& item_log_probs,
                         const TransitionWeights* transitions,
                         exec::Backend* backend = nullptr);

  /// Per-class variant (one DP per class per user, best pair wins), each
  /// through SolveUserPath, so forgetting is honored as in Assign.
  AssignmentStats AssignWithClasses(
      const SkillModel& model, const std::vector<double>& item_log_probs,
      std::span<const ProgressionClassWeights> classes,
      exec::Backend* backend = nullptr);

  /// Assignments of the most recent pass.
  const SkillAssignments& assignments() const { return assignments_; }
  /// Per-user class labels of the most recent AssignWithClasses pass.
  const std::vector<int>& user_classes() const { return user_classes_; }
  /// Moves the assignments out (one-shot use); the engine must not be
  /// reused afterwards.
  SkillAssignments TakeAssignments() && { return std::move(assignments_); }

 private:
  // One shard's scratch, reused by every pass. Each sits on its own cache
  // lines: shard tasks on different threads write their vectors' headers
  // once per user.
  struct alignas(64) ShardScratch {
    DpScratch dp;
    // The second user's arena when a pass solves two users per kernel
    // call.
    DpScratch pair_dp;
    // Count-grid moves of the shard's users in the last pass: the
    // (level, item) cell offsets their old paths left and their new paths
    // entered. Applied as exact -1 / +1 in shard order after the join.
    std::vector<uint32_t> removed_cells;
    std::vector<uint32_t> added_cells;
    // Whether any of the shard's paths moved in the last pass.
    bool changed = false;
  };

  // Runs one pass: solve_user(scratch, user) solves one user into
  // scratch.levels and returns its log-likelihood; a non-null
  // solve_pair(first_scratch, second_scratch, first, second) solves two
  // at once and returns both. Its shard tasks fill the item column on
  // the first pass, and the down-edge flags on the first pass with
  // `forgetting` enabled (again when its gap threshold changes).
  template <typename SolveUser, typename SolvePair = std::nullptr_t>
  AssignmentStats RunPass(exec::Backend* user_backend,
                          const ForgettingConfig& forgetting,
                          const SolveUser& solve_user,
                          const SolvePair& solve_pair = nullptr);
  // Sizes the item column from the dataset; the first pass fills it.
  void BuildItemColumn();
  // `user`'s item ids in the column.
  std::span<const int32_t> ItemIds(size_t user) const;
  // `user`'s down-edge flags, one per transition (SolveUserPath's
  // allow_down).
  std::span<const uint8_t> DownFlags(size_t user) const;

  const Dataset* dataset_;
  int num_levels_;
  int num_shards_request_;
  // Every action's item id in user order, [column_offsets_[u],
  // column_offsets_[u + 1]) for user u: what the plain pass solves from,
  // and what the grid's cell offsets read.
  std::unique_ptr<int32_t[]> item_column_;
  std::vector<size_t> column_offsets_;
  // Per action, at the column's offsets: 1 when the gap from the user's
  // previous action opens the down-edge under down_threshold_ (0 for a
  // first action). Built only when a pass runs with forgetting.
  std::unique_ptr<uint8_t[]> down_column_;
  int64_t down_threshold_ = 0;
  SkillAssignments assignments_;
  std::vector<double> level_counts_;
  std::vector<double> user_ll_;
  std::vector<int> user_classes_;
  bool have_previous_ = false;
  exec::ShardPlan plan_;
  std::vector<ShardScratch> shards_;
};

}  // namespace upskill

#endif  // UPSKILL_CORE_TRAINER_H_
