#ifndef UPSKILL_CORE_EM_TRAINER_H_
#define UPSKILL_CORE_EM_TRAINER_H_

#include <vector>

#include "common/status.h"
#include "core/skill_model.h"
#include "data/dataset.h"

namespace upskill {

/// Configuration of the soft-assignment (EM / Baum-Welch) trainer —
/// the approach the paper declines in favour of hard assignment because
/// it is "1,000 times" slower at comparable fit (Section IV-B). It is
/// implemented here so that the trade-off can be measured
/// (bench_ablation_trainers) rather than taken on faith.
struct EmTrainerConfig {
  /// Base model hyper-parameters (num_levels, smoothing, init, ...).
  SkillModelConfig model;
  /// Starting value for the global level-up probability.
  double initial_level_up_probability = 0.1;
  /// When false, transitions stay fixed at the initial value and only the
  /// emission components and initial distribution are learned.
  bool learn_transitions = true;
};

/// Output of EmTrainer::Train.
struct EmTrainResult {
  SkillModel model;
  /// Hard readout: the Viterbi path under the final parameters (with the
  /// learned transition weights), so downstream consumers see the same
  /// monotone assignment format as the hard trainer.
  SkillAssignments assignments;
  /// Marginal data log-likelihood after each EM iteration (monotone
  /// non-decreasing by the EM guarantee).
  std::vector<double> log_likelihood_trace;
  int iterations = 0;
  bool converged = false;
  double final_log_likelihood = 0.0;
  /// Learned initial level distribution pi(s), size S.
  std::vector<double> initial_distribution;
  /// Learned global level-up probability.
  double level_up_probability = 0.1;
};

/// Soft-assignment trainer for the same monotone progression model: the
/// E-step runs the forward-backward algorithm over the action-skill
/// lattice (stay / up-one transitions), the M-step refits every component
/// with posterior weights (Distribution::FitWeighted), the initial level
/// distribution, and (optionally) the level-up probability. The lattice
/// has no down-edge, so Train refuses a config with forgetting enabled.
class EmTrainer {
 public:
  explicit EmTrainer(EmTrainerConfig config) : config_(config) {}

  Result<EmTrainResult> Train(const Dataset& dataset) const;

  const EmTrainerConfig& config() const { return config_; }

 private:
  EmTrainerConfig config_;
};

}  // namespace upskill

#endif  // UPSKILL_CORE_EM_TRAINER_H_
