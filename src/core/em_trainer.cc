#include "core/em_trainer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "core/posterior.h"
#include "core/trainer.h"
#include "exec/backend.h"
#include "exec/map_reduce.h"
#include "exec/shard.h"

namespace upskill {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();
constexpr double kMinTransitionProb = 1e-4;

// One E-step shard's forward/backward arenas (n x S per user, resized per
// sequence), on their own cache lines.
struct alignas(64) ForwardBackwardScratch {
  std::vector<double> alpha;
  std::vector<double> beta;
};

// Flat per-action offsets so worker threads can write disjoint gamma
// regions.
std::vector<size_t> ActionOffsets(const Dataset& dataset) {
  std::vector<size_t> offsets(static_cast<size_t>(dataset.num_users()) + 1,
                              0);
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    offsets[static_cast<size_t>(u) + 1] =
        offsets[static_cast<size_t>(u)] + dataset.sequence(u).size();
  }
  return offsets;
}

}  // namespace

Result<EmTrainResult> EmTrainer::Train(const Dataset& dataset) const {
  if (dataset.num_actions() == 0) {
    return Status::InvalidArgument("cannot train on an empty dataset");
  }
  // Without one E-step there is no likelihood to report.
  if (config_.model.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (!(config_.initial_level_up_probability > 0.0 &&
        config_.initial_level_up_probability < 1.0)) {
    return Status::InvalidArgument("initial_level_up_probability in (0,1)");
  }
  // The E-step lattice has no down-edge, so a forgetting config would
  // train without forgetting.
  if (config_.model.forgetting.enabled) {
    return Status::InvalidArgument("EM does not model forgetting");
  }
  Result<SkillModel> created =
      SkillModel::Create(dataset.schema(), config_.model);
  if (!created.ok()) return created.status();

  EmTrainResult result;
  result.model = std::move(created).value();
  const int S = config_.model.num_levels;
  const size_t levels = static_cast<size_t>(S);

  Result<std::shared_ptr<exec::Backend>> backend_result =
      CreateTrainingBackend(config_.model);
  if (!backend_result.ok()) return backend_result.status();
  std::shared_ptr<exec::Backend> backend = std::move(backend_result).value();
  exec::Backend* user_backend =
      (config_.model.parallel.users && backend->concurrency() > 1)
          ? backend.get()
          : exec::Backend::Serial();

  // The E-step's user shards, planned from the backend they run on, each
  // with forward/backward arenas that persist across iterations.
  const exec::ShardPlan plan =
      exec::PlanDatasetShards(dataset, config_.model.num_shards, user_backend);
  std::vector<ForwardBackwardScratch> shard_scratch(
      static_cast<size_t>(plan.num_shards()));

  // Initialization: same uniform-segmentation hard fit as the hard
  // trainer, so the two are directly comparable.
  {
    const SkillAssignments init = InitializeAssignments(
        dataset, S, config_.model.min_init_actions);
    FitParameters(dataset, init, &result.model, backend.get(),
                  config_.model.parallel);
  }
  result.initial_distribution.assign(levels, 1.0 / static_cast<double>(S));
  result.level_up_probability = config_.initial_level_up_probability;

  const std::vector<size_t> offsets = ActionOffsets(dataset);
  const size_t total_actions = dataset.num_actions();
  std::vector<double> gamma(total_actions * levels, 0.0);
  std::vector<double> per_user_ll(static_cast<size_t>(dataset.num_users()));
  std::vector<double> per_user_ups(static_cast<size_t>(dataset.num_users()));
  std::vector<double> per_user_stays(
      static_cast<size_t>(dataset.num_users()));
  std::vector<double> masked_ll(static_cast<size_t>(dataset.num_users()));
  std::vector<double> initial_counts(levels);

  // Persistent across iterations, so its buffers are allocated once.
  LogProbCache log_prob_cache;

  double previous_ll = kNegInf;
  for (int iteration = 0; iteration < config_.model.max_iterations;
       ++iteration) {
    log_prob_cache.Update(result.model, dataset.items(), user_backend);
    const std::vector<double>& cache = log_prob_cache.values();
    std::vector<double> log_initial(levels);
    for (size_t s = 0; s < levels; ++s) {
      log_initial[s] = result.initial_distribution[s] > 0.0
                           ? std::log(result.initial_distribution[s])
                           : kNegInf;
    }
    const double log_up = std::log(result.level_up_probability);
    const double log_stay = std::log(1.0 - result.level_up_probability);

    // ---- E-step: forward-backward per user, one task per user shard.
    // All outputs (gamma, the per-user ll/ups/stays vectors) are written
    // at user granularity, so nothing depends on which thread ran which
    // shard.
    user_backend->Run(plan.num_shards(), [&](int shard_index) {
      const exec::IndexRange users = plan.range(shard_index);
      ForwardBackwardScratch& ws =
          shard_scratch[static_cast<size_t>(shard_index)];
      for (size_t u = users.begin; u < users.end; ++u) {
      std::span<const Action> seq = dataset.sequence(static_cast<UserId>(u));
      per_user_ll[u] = 0.0;
      per_user_ups[u] = 0.0;
      per_user_stays[u] = 0.0;
      if (seq.empty()) continue;
      const size_t n = seq.size();
      auto row = [&](size_t t) {
        return cache.data() + static_cast<size_t>(seq[t].item) * levels;
      };
      // stay cost: free at the top level (no other move exists there).
      auto stay_cost = [&](size_t s) {
        return s + 1 < levels ? log_stay : 0.0;
      };
      const double log_z = ForwardBackward(n, levels, log_initial, log_stay,
                                           log_up, row, ws.alpha, ws.beta);
      const std::vector<double>& alpha = ws.alpha;
      const std::vector<double>& beta = ws.beta;
      per_user_ll[u] = log_z;
      double* user_gamma = &gamma[offsets[u] * levels];
      if (!std::isfinite(log_z)) {
        // Sequence impossible under the current parameters (can happen
        // with zero smoothing); contribute nothing this round.
        std::fill(user_gamma, user_gamma + n * levels, 0.0);
        continue;
      }
      for (size_t t = 0; t < n; ++t) {
        for (size_t s = 0; s < levels; ++s) {
          user_gamma[t * levels + s] =
              std::exp(alpha[t * levels + s] + beta[t * levels + s] - log_z);
        }
      }
      // Expected transition counts for the level-up probability.
      for (size_t t = 0; t + 1 < n; ++t) {
        const double* next = row(t + 1);
        for (size_t s = 0; s + 1 < levels; ++s) {
          const double stay = alpha[t * levels + s] + stay_cost(s) + next[s] +
                              beta[(t + 1) * levels + s];
          const double up = alpha[t * levels + s] + log_up + next[s + 1] +
                            beta[(t + 1) * levels + (s + 1)];
          per_user_stays[u] += std::exp(stay - log_z);
          per_user_ups[u] += std::exp(up - log_z);
        }
      }
      }
    });

    // Mask non-finite per-user terms to zero, then reduce with the fixed
    // per-user tree: the objective is a pure function of the per-user
    // values in index order — bitwise identical for any thread count and
    // any shard count.
    for (size_t u = 0; u < per_user_ll.size(); ++u) {
      masked_ll[u] = std::isfinite(per_user_ll[u]) ? per_user_ll[u] : 0.0;
    }
    const double ll = exec::ReduceOrderedSum(masked_ll);
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iteration + 1;
    result.final_log_likelihood = ll;
    if (config_.model.verbose) {
      UPSKILL_LOG(Info) << "EM iteration " << iteration + 1
                        << " log-likelihood " << ll;
    }
    const bool small_gain =
        std::isfinite(previous_ll) &&
        ll - previous_ll <=
            config_.model.relative_tolerance * std::abs(previous_ll);
    if (small_gain) {
      result.converged = true;
      break;
    }
    previous_ll = ll;

    // ---- M-step. ------------------------------------------------------
    // Initial distribution from first-action posteriors. Intentionally
    // serial: S accumulators over a float (not exact-integer) stream, so
    // sharding it would change summation order with the shard count. One
    // read per user is cheap next to the E-step anyway.
    std::fill(initial_counts.begin(), initial_counts.end(), 0.0);
    for (UserId u = 0; u < dataset.num_users(); ++u) {
      if (dataset.sequence(u).empty()) continue;
      const double* user_gamma =
          &gamma[offsets[static_cast<size_t>(u)] * levels];
      for (size_t s = 0; s < levels; ++s) initial_counts[s] += user_gamma[s];
    }
    double initial_total = 0.0;
    for (double c : initial_counts) initial_total += c;
    if (initial_total > 0.0) {
      for (size_t s = 0; s < levels; ++s) {
        result.initial_distribution[s] =
            (initial_counts[s] + config_.model.smoothing) /
            (initial_total +
             config_.model.smoothing * static_cast<double>(S));
      }
    }
    // Level-up probability from expected transition counts, reduced with
    // the same fixed per-user tree as the objective. (Below
    // kReduceLeafElements users this matches the old serial sum bitwise;
    // above it the reassociation is deterministic.)
    if (config_.learn_transitions) {
      const double ups = exec::ReduceOrderedSum(per_user_ups);
      const double stays = exec::ReduceOrderedSum(per_user_stays);
      if (ups + stays > 0.0) {
        result.level_up_probability =
            std::clamp(ups / (ups + stays), kMinTransitionProb,
                       1.0 - kMinTransitionProb);
      }
    }
    // Emission components: weighted sufficient-statistics refits. One pass
    // over the actions per feature feeds all S level statistics at once
    // (gamma rows are action-major), replacing the former dense
    // value/weight buffer copies. Each feature's pass is intentionally
    // serial in global action order — the gamma-weighted sums are inexact,
    // so sharding the user axis here would make the fitted parameters
    // depend on the shard count. Parallelism comes from the feature axis
    // only (independent components, disjoint writes).
    const int num_features = result.model.num_features();
    exec::Backend* feature_backend =
        (config_.model.parallel.features && backend->concurrency() > 1)
            ? backend.get()
            : exec::Backend::Serial();
    feature_backend->Run(num_features, [&](int f) {
      const double* column = dataset.items().column(f).data();
      std::vector<SufficientStats> stats(
          levels, result.model.component(f, 1).MakeStats());
      size_t index = 0;
      for (UserId u = 0; u < dataset.num_users(); ++u) {
        for (const Action& a : dataset.sequence(u)) {
          const double x = column[a.item];
          const double* weights = &gamma[index * levels];
          for (size_t s = 0; s < levels; ++s) stats[s].Add(x, weights[s]);
          ++index;
        }
      }
      for (int s = 1; s <= S; ++s) {
        const SufficientStats& cell = stats[static_cast<size_t>(s - 1)];
        if (!cell.empty()) {
          result.model.mutable_component(f, s)->FitFromStats(cell);
        }
      }
    });
  }

  // Hard readout: one assignment pass under the learned transition
  // weights, the model EM fitted (which has no forgetting).
  TransitionWeights learned;
  learned.log_initial.resize(levels);
  for (size_t s = 0; s < levels; ++s) {
    learned.log_initial[s] = std::log(result.initial_distribution[s]);
  }
  learned.log_up = std::log(result.level_up_probability);
  learned.log_stay = std::log(1.0 - result.level_up_probability);
  log_prob_cache.Update(result.model, dataset.items(), user_backend);
  result.assignments = AssignSkills(dataset, result.model, user_backend,
                                    nullptr, &learned,
                                    &log_prob_cache.values());
  return result;
}

}  // namespace upskill
