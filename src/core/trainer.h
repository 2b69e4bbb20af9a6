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
#include "exec/workspace.h"

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
  /// `cache_seconds` is the per-iteration item log-prob cache refresh,
  /// which the paper folds into the assignment step; it is kept separate
  /// here so the incremental cache's effect is visible.
  double assignment_seconds = 0.0;
  double cache_seconds = 0.0;
  double update_seconds = 0.0;
  double init_seconds = 0.0;
  /// Dirty-user skipping totals across all assignment iterations:
  /// `skipped_users` counts user-iterations whose DP was skipped because
  /// no item in their sequence had a dirtied cache row (and the
  /// transition weights were unchanged); `reassigned_users` counts DPs
  /// actually solved. Their sum is num_users * iterations.
  size_t skipped_users = 0;
  size_t reassigned_users = 0;
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

/// One user's assignment DP (Equation 4) against the [item * S +
/// (level-1)] cache: the forgetting solver, with the down-edge opened per
/// ForgettingConfig::OpensDownEdge, when forgetting is enabled and the
/// sequence has a transition; the plain kernel otherwise. `log_down` is
/// log(forgetting.drop_probability), computed once per pass by the
/// caller. Writes the path into scratch.levels and returns its
/// log-likelihood. AssignmentEngine::Assign and OnlineTrainer::Refresh
/// both solve through it, so a refresh gives a user exactly the path a
/// full pass would.
double SolveUserPath(std::span<const Action> sequence,
                     std::span<const double> item_log_probs, int num_levels,
                     const TransitionWeights& transitions,
                     const ForgettingConfig& forgetting, double log_down,
                     DpScratch& scratch);

/// Outcome of one AssignmentEngine pass.
struct AssignmentStats {
  /// Objective value of Equation 3 under the new assignments (including
  /// transition terms when enabled); carried-forward users contribute
  /// their previous per-user log-likelihood.
  double log_likelihood = 0.0;
  /// Users whose DP was skipped (previous path carried forward).
  size_t skipped_users = 0;
  /// Users whose DP was solved this pass.
  size_t reassigned_users = 0;
  /// True when any user's levels differ from the previous pass (always
  /// true on the first pass).
  bool changed = true;
};

/// Fused, arena-backed assignment step with incremental reassignment.
/// Owns the state that makes repeated passes over one dataset cheap:
///  - an exec::ExecContext (borrowed from the caller or owned) whose
///    per-shard workspaces hold the DP arenas — zero steady-state
///    allocation; the user loop runs as exec::MapShards over the
///    context's balanced user shards;
///  - the persistent assignments + per-user log-likelihoods of the
///    previous pass, so users untouched by the last update step carry
///    their path forward without re-running the DP. Each shard task
///    decides this per user: a user is re-solved iff one of its items is
///    flagged in LogProbCache::dirty_items();
///  - every action's item id, packed as int32 in user order: the first
///    pass copies them out of the records, and the plain pass (no
///    forgetting) then solves its users two per kernel call
///    (SolveMonotonePathItemsPair) from this column;
///  - optionally (TrackCounts), the count grid of those paths: the first
///    pass recounts it from its new paths; later passes' shard tasks list
///    the cells their re-solved users' paths moved, and the caller
///    applies the lists after the join.
/// Results are bitwise identical to the one-shot AssignSkills* functions
/// for any thread count, any shard count, and any skipping pattern: the
/// objective is reduced per-user by exec::ReduceOrderedSum, never from
/// per-shard partials. The dataset must outlive the engine and keep its
/// sequences unchanged.
class AssignmentEngine {
 public:
  /// `num_shards` <= 0 resolves automatically from the backend of the
  /// first pass. `context` (optional) shares one ExecContext across
  /// drivers — e.g. Trainer::Train builds the plan from its full backend
  /// before the engine's first pass.
  explicit AssignmentEngine(const Dataset& dataset, int num_levels,
                            int num_shards = 0,
                            exec::ExecContext* context = nullptr);

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
  /// `backend` (null = serial). `dirty_items` enables skipping: when
  /// non-null and `weights_changed` is false, users none of whose items
  /// are flagged keep their previous path. Pass null / true to force a
  /// full pass. Forgetting is honored per `model.config()`.
  AssignmentStats Assign(const SkillModel& model,
                         const std::vector<double>& item_log_probs,
                         const TransitionWeights* transitions,
                         exec::Backend* backend = nullptr,
                         const std::vector<uint8_t>* dirty_items = nullptr,
                         bool weights_changed = true);

  /// Per-class variant (one DP per class per user, best pair wins), each
  /// through SolveUserPath, so forgetting is honored as in Assign; the
  /// chosen class is carried forward for skipped users.
  AssignmentStats AssignWithClasses(
      const SkillModel& model, const std::vector<double>& item_log_probs,
      std::span<const ProgressionClassWeights> classes,
      exec::Backend* backend = nullptr,
      const std::vector<uint8_t>* dirty_items = nullptr,
      bool weights_changed = true);

  /// Assignments of the most recent pass.
  const SkillAssignments& assignments() const { return assignments_; }
  /// Per-user class labels of the most recent AssignWithClasses pass.
  const std::vector<int>& user_classes() const { return user_classes_; }
  /// Moves the assignments out (one-shot use); the engine must not be
  /// reused afterwards.
  SkillAssignments TakeAssignments() && { return std::move(assignments_); }

 private:
  // Runs one pass: solve_user(scratch, user) solves one user into
  // scratch.levels and returns its log-likelihood; a non-null
  // solve_pair(first_scratch, second_scratch, first, second) solves two
  // at once and returns both.
  template <typename SolveUser, typename SolvePair = std::nullptr_t>
  AssignmentStats RunPass(exec::Backend* user_backend,
                          const std::vector<uint8_t>* dirty_items,
                          bool weights_changed, const SolveUser& solve_user,
                          const SolvePair& solve_pair = nullptr);
  // Sizes the item column from the dataset; the first pass fills it.
  void BuildItemColumn();
  // `user`'s item ids in the column.
  std::span<const int32_t> ItemIds(size_t user) const;

  const Dataset* dataset_;
  int num_levels_;
  int num_shards_request_;
  // Every action's item id in user order, [column_offsets_[u],
  // column_offsets_[u + 1]) for user u: what the plain pass solves from,
  // and what the dirty scan and the grid's cell offsets read.
  std::unique_ptr<int32_t[]> item_column_;
  std::vector<size_t> column_offsets_;
  SkillAssignments assignments_;
  std::vector<double> level_counts_;
  std::vector<double> user_ll_;
  std::vector<int> user_classes_;
  bool have_previous_ = false;
  // Sharded-execution state: borrowed from the caller or owned here.
  exec::ExecContext* context_;
  std::unique_ptr<exec::ExecContext> owned_context_;
};

/// The per-class assignment step (Yang et al.'s progression classes):
/// for every user, solves one DP per class (transition weights + class
/// log-prior) and keeps the best-scoring pair. Outputs the chosen class
/// per user via `user_classes` (resized to num_users).
SkillAssignments AssignSkillsWithClasses(
    const Dataset& dataset, const SkillModel& model,
    std::span<const ProgressionClassWeights> classes,
    exec::Backend* backend = nullptr, double* total_log_likelihood = nullptr,
    std::vector<int>* user_classes = nullptr,
    const std::vector<double>* item_log_probs = nullptr);

}  // namespace upskill

#endif  // UPSKILL_CORE_TRAINER_H_
