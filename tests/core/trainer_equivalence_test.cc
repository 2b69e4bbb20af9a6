// End-to-end equivalence of the sufficient-statistics update step and the
// incremental log-prob cache against the reference implementations:
//  - FitParameters vs FitParametersReference (exact for integer-statistic
//    kinds, <= 1e-12 relative where log-sums reassociate);
//  - serial vs multi-threaded training is bitwise identical (the chunk
//    structure depends only on the data);
//  - Trainer::Train vs a hand-rolled reference loop built from
//    FitParametersReference + AssignSkills;
//  - Trainer::Train, which refits from the assignment engine's patched
//    count grid, vs a loop that re-sweeps every path through
//    FitParameters each iteration (bitwise);
//  - a reused LogProbCache vs a fresh one after each parameter change.

#include "core/trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/skill_model.h"
#include "data/dataset.h"
#include "datagen/synthetic.h"
#include "dist/distribution.h"
#include "exec/backend.h"

namespace upskill {
namespace {

// Reference implementation of the update step, the oracle FitParameters
// is checked against: groups item occurrences into per-level buckets,
// then copies each (feature, level) cell's values into a buffer and calls
// Distribution::Fit. Levels with no assigned actions keep their current
// parameters.
void FitParametersReference(const Dataset& dataset,
                            const SkillAssignments& assignments,
                            SkillModel* model) {
  const int num_levels = model->num_levels();
  // Group item occurrences by assigned level (O(|A|), as in Section IV-C).
  std::vector<std::vector<ItemId>> by_level(static_cast<size_t>(num_levels));
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const std::vector<int>& levels = assignments[static_cast<size_t>(u)];
    if (levels.empty()) continue;  // user excluded (initialization)
    std::span<const Action> seq = dataset.sequence(u);
    ASSERT_EQ(levels.size(), seq.size());
    for (size_t n = 0; n < seq.size(); ++n) {
      by_level[static_cast<size_t>(levels[n] - 1)].push_back(seq[n].item);
    }
  }
  const ItemTable& items = dataset.items();
  for (int level = 1; level <= num_levels; ++level) {
    const std::vector<ItemId>& members =
        by_level[static_cast<size_t>(level - 1)];
    if (members.empty()) continue;
    for (int feature = 0; feature < model->num_features(); ++feature) {
      std::vector<double> values;
      values.reserve(members.size());
      for (ItemId item : members) values.push_back(items.value(item, feature));
      model->mutable_component(feature, level)->Fit(values);
    }
  }
}

const Dataset& TestData() {
  static const Dataset* dataset = [] {
    datagen::SyntheticConfig config;
    config.num_levels = 4;
    config.num_users = 150;
    config.num_items = 400;
    config.mean_sequence_length = 35.0;
    auto generated = datagen::GenerateSynthetic(config);
    return new Dataset(std::move(generated).value().dataset);
  }();
  return *dataset;
}

SkillModelConfig TestConfig() {
  SkillModelConfig config;
  config.num_levels = 4;
  config.min_init_actions = 20;
  config.max_iterations = 8;
  return config;
}

bool IsExactKind(DistributionKind kind) {
  return kind == DistributionKind::kCategorical ||
         kind == DistributionKind::kPoisson;
}

void ExpectModelsMatch(const SkillModel& actual, const SkillModel& expected,
                       double rel_tol) {
  ASSERT_EQ(actual.num_features(), expected.num_features());
  ASSERT_EQ(actual.num_levels(), expected.num_levels());
  for (int f = 0; f < actual.num_features(); ++f) {
    for (int s = 1; s <= actual.num_levels(); ++s) {
      const std::vector<double> got = actual.component(f, s).Parameters();
      const std::vector<double> want = expected.component(f, s).Parameters();
      ASSERT_EQ(got.size(), want.size());
      if (IsExactKind(actual.component(f, s).kind())) {
        EXPECT_EQ(got, want) << "feature " << f << " level " << s;
        continue;
      }
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i], want[i],
                    rel_tol * std::max(1.0, std::abs(want[i])))
            << "feature " << f << " level " << s << " parameter " << i;
      }
    }
  }
}

TEST(FitParametersEquivalenceTest, MatchesReferenceImplementation) {
  const Dataset& dataset = TestData();
  const SkillModelConfig config = TestConfig();
  const SkillAssignments assignments = InitializeAssignments(
      dataset, config.num_levels, config.min_init_actions);

  SkillModel fast = SkillModel::Create(dataset.schema(), config).value();
  SkillModel reference = SkillModel::Create(dataset.schema(), config).value();
  FitParameters(dataset, assignments, &fast);
  FitParametersReference(dataset, assignments, &reference);
  ExpectModelsMatch(fast, reference, 1e-12);
}

TEST(FitParametersEquivalenceTest, ParallelIsBitwiseIdenticalToSerial) {
  const Dataset& dataset = TestData();
  const SkillModelConfig config = TestConfig();
  const SkillAssignments assignments = InitializeAssignments(
      dataset, config.num_levels, config.min_init_actions);

  SkillModel serial = SkillModel::Create(dataset.schema(), config).value();
  FitParameters(dataset, assignments, &serial);

  exec::Backend pool(8);
  for (const bool levels : {false, true}) {
    for (const bool features : {false, true}) {
      ParallelOptions parallel;
      parallel.num_threads = 8;
      parallel.levels = levels;
      parallel.features = features;
      SkillModel model = SkillModel::Create(dataset.schema(), config).value();
      FitParameters(dataset, assignments, &model, &pool, parallel);
      for (int f = 0; f < model.num_features(); ++f) {
        for (int s = 1; s <= model.num_levels(); ++s) {
          EXPECT_EQ(model.component(f, s).Parameters(),
                    serial.component(f, s).Parameters())
              << "levels=" << levels << " features=" << features
              << " feature " << f << " level " << s;
        }
      }
    }
  }
}

TEST(TrainerEquivalenceTest, SerialAndParallelTrainingAreBitwiseIdentical) {
  const Dataset& dataset = TestData();

  Trainer serial_trainer(TestConfig());
  const TrainResult serial = serial_trainer.Train(dataset).value();

  SkillModelConfig parallel_config = TestConfig();
  parallel_config.parallel.num_threads = 8;
  parallel_config.parallel.users = true;
  parallel_config.parallel.levels = true;
  parallel_config.parallel.features = true;
  Trainer parallel_trainer(parallel_config);
  const TrainResult parallel = parallel_trainer.Train(dataset).value();

  EXPECT_EQ(parallel.iterations, serial.iterations);
  EXPECT_EQ(parallel.converged, serial.converged);
  EXPECT_EQ(parallel.assignments, serial.assignments);
  EXPECT_EQ(parallel.log_likelihood_trace, serial.log_likelihood_trace);
  ExpectModelsMatch(parallel.model, serial.model, 0.0);
}

// Reference coordinate-ascent loop assembled from the reference update
// step and the standalone assignment step, mirroring Trainer::Train's
// convergence logic without the incremental cache.
TrainResult ReferenceTrain(const Dataset& dataset,
                           const SkillModelConfig& config) {
  TrainResult result;
  result.model = SkillModel::Create(dataset.schema(), config).value();
  const SkillAssignments init = InitializeAssignments(
      dataset, config.num_levels, config.min_init_actions);
  FitParametersReference(dataset, init, &result.model);

  double previous_ll = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < config.max_iterations; ++iteration) {
    double ll = 0.0;
    SkillAssignments assignments =
        AssignSkills(dataset, result.model, nullptr, &ll);
    const bool unchanged = iteration > 0 && assignments == result.assignments;
    result.assignments = std::move(assignments);
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iteration + 1;
    const bool small_gain =
        std::isfinite(previous_ll) &&
        ll - previous_ll <= config.relative_tolerance * std::abs(previous_ll);
    if (unchanged || small_gain) {
      result.converged = true;
      result.final_log_likelihood = ll;
      break;
    }
    previous_ll = ll;
    FitParametersReference(dataset, result.assignments, &result.model);
    result.final_log_likelihood = ll;
  }
  return result;
}

TEST(TrainerEquivalenceTest, MatchesReferenceTrainingLoop) {
  const Dataset& dataset = TestData();
  const SkillModelConfig config = TestConfig();

  Trainer trainer(config);
  const TrainResult fast = trainer.Train(dataset).value();
  const TrainResult reference = ReferenceTrain(dataset, config);

  // The gamma cells differ from the reference at the last few ulps, so the
  // hard argmax assignments must coincide while the traces agree to a
  // tight relative tolerance.
  EXPECT_EQ(fast.iterations, reference.iterations);
  EXPECT_EQ(fast.converged, reference.converged);
  EXPECT_EQ(fast.assignments, reference.assignments);
  ASSERT_EQ(fast.log_likelihood_trace.size(),
            reference.log_likelihood_trace.size());
  for (size_t i = 0; i < fast.log_likelihood_trace.size(); ++i) {
    EXPECT_NEAR(fast.log_likelihood_trace[i],
                reference.log_likelihood_trace[i],
                1e-9 * std::abs(reference.log_likelihood_trace[i]))
        << "iteration " << i;
  }
  ExpectModelsMatch(fast.model, reference.model, 1e-12);
}

// Trainer::Train's loop with an update step that sweeps every path
// through FitParameters each iteration: the oracle for the engine's
// patched count grid. Covers kNone and kGlobal (the engine honors
// forgetting from the model config).
TrainResult SweepingTrain(const Dataset& dataset,
                          const SkillModelConfig& config) {
  const std::shared_ptr<exec::Backend> backend =
      CreateTrainingBackend(config).value();
  exec::Backend* user_backend =
      config.parallel.users && backend->concurrency() > 1 ? backend.get()
                                                          : nullptr;
  const bool use_transitions = config.transitions == TransitionModel::kGlobal;
  TrainResult result;
  result.model = SkillModel::Create(dataset.schema(), config).value();
  const SkillAssignments init = InitializeAssignments(
      dataset, config.num_levels, config.min_init_actions);
  FitParameters(dataset, init, &result.model, backend.get(), config.parallel);
  TransitionWeights weights;
  if (use_transitions) {
    weights = FitTransitionWeights(init, config.num_levels, config.smoothing);
  }

  LogProbCache cache;
  AssignmentEngine engine(dataset, config.num_levels, config.num_shards);
  double previous_ll = -std::numeric_limits<double>::infinity();
  for (int iteration = 0; iteration < config.max_iterations; ++iteration) {
    cache.Update(result.model, dataset.items(), user_backend);
    const AssignmentStats stats = engine.Assign(
        result.model, cache.values(), use_transitions ? &weights : nullptr,
        user_backend);
    const double ll = stats.log_likelihood;
    result.log_likelihood_trace.push_back(ll);
    result.iterations = iteration + 1;
    const bool small_gain =
        std::isfinite(previous_ll) &&
        ll - previous_ll <= config.relative_tolerance * std::abs(previous_ll);
    if ((iteration > 0 && !stats.changed) || small_gain) {
      result.converged = true;
      result.final_log_likelihood = ll;
      break;
    }
    previous_ll = ll;
    FitParameters(dataset, engine.assignments(), &result.model, backend.get(),
                  config.parallel);
    if (use_transitions) {
      weights = FitTransitionWeights(engine.assignments(), config.num_levels,
                                     config.smoothing);
    }
    result.final_log_likelihood = ll;
  }
  result.assignments = engine.assignments();
  return result;
}

TEST(TrainerEquivalenceTest, PatchedCountGridMatchesFullSweeps) {
  const Dataset& dataset = TestData();
  // About half the users fall below the bar and start from an empty path,
  // so the first pass adds their whole path to the grid.
  SkillModelConfig base = TestConfig();
  base.min_init_actions = 35;
  struct Case {
    const char* label;
    SkillModelConfig config;
  };
  std::vector<Case> cases;
  cases.push_back({"kNone", base});
  Case global{"kGlobal + forgetting", base};
  global.config.transitions = TransitionModel::kGlobal;
  global.config.forgetting.enabled = true;
  global.config.forgetting.gap_threshold = 30;
  global.config.forgetting.drop_probability = 0.1;
  cases.push_back(global);

  for (const Case& c : cases) {
    for (const int threads : {1, 8}) {
      SCOPED_TRACE(std::string(c.label) + " threads=" +
                   std::to_string(threads));
      SkillModelConfig config = c.config;
      if (threads > 1) {
        config.parallel.num_threads = threads;
        config.parallel.users = true;
        config.parallel.levels = true;
        config.parallel.features = true;
        config.num_shards = 7;
      }
      const TrainResult patched = Trainer(config).Train(dataset).value();
      const TrainResult swept = SweepingTrain(dataset, config);
      EXPECT_GT(patched.iterations, 2);
      EXPECT_EQ(patched.iterations, swept.iterations);
      EXPECT_EQ(patched.converged, swept.converged);
      EXPECT_EQ(patched.assignments, swept.assignments);
      EXPECT_EQ(patched.log_likelihood_trace, swept.log_likelihood_trace);
      EXPECT_EQ(patched.final_log_likelihood, swept.final_log_likelihood);
      ExpectModelsMatch(patched.model, swept.model, 0.0);
    }
  }
}

TEST(LogProbCacheTest, ReusedCacheMatchesFullRecompute) {
  const Dataset& dataset = TestData();
  const SkillModelConfig config = TestConfig();
  SkillModel model = SkillModel::Create(dataset.schema(), config).value();
  const SkillAssignments assignments = InitializeAssignments(
      dataset, config.num_levels, config.min_init_actions);
  FitParameters(dataset, assignments, &model);

  LogProbCache cache;
  cache.Update(model, dataset.items());
  EXPECT_EQ(cache.values(), model.ItemLogProbCache(dataset.items()));

  // No parameter changed: the totals are stable.
  const std::vector<double> before = cache.values();
  cache.Update(model, dataset.items());
  EXPECT_EQ(cache.values(), before);

  // Perturb exactly one component (the gamma "intensity" feature, whose
  // SetParameters accepts any positive values); the reused cache's
  // totals must equal a from-scratch cache bitwise.
  ASSERT_EQ(model.component(2, 2).kind(), DistributionKind::kGamma);
  const std::vector<double> original = model.component(2, 2).Parameters();
  std::vector<double> params = original;
  params[0] += 0.125;
  ASSERT_TRUE(model.mutable_component(2, 2)->SetParameters(params).ok());
  cache.Update(model, dataset.items());
  EXPECT_EQ(cache.values(), model.ItemLogProbCache(dataset.items()));

  // And back: the cache follows the model to its old parameters.
  ASSERT_TRUE(model.mutable_component(2, 2)->SetParameters(original).ok());
  cache.Update(model, dataset.items());
  EXPECT_EQ(cache.values(), model.ItemLogProbCache(dataset.items()));
}

}  // namespace
}  // namespace upskill
