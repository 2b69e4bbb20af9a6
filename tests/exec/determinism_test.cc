// The sharded execution core's contract: fitted parameters, assignments,
// per-iteration objectives, and serialized snapshots are bitwise
// identical for ANY thread count and ANY shard count. These tests sweep
// threads {1, 2, 8} x shards {1, 3, 7} over the hard trainer (with and
// without the global progression component), the EM trainer, and the
// eval harness, comparing everything with operator== (no tolerances).
// The suite also runs under UPSKILL_SANITIZE=thread, where the same
// sweeps double as race detectors for the drivers' per-shard scratch.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/difficulty.h"
#include "core/em_trainer.h"
#include "core/trainer.h"
#include "data/split.h"
#include "datagen/synthetic.h"
#include "eval/tasks.h"
#include "exec/backend.h"
#include "serve/snapshot.h"
#include "simd/simd.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace upskill {
namespace {

constexpr int kThreadCounts[] = {1, 2, 8};
constexpr int kShardCounts[] = {1, 3, 7};
constexpr const char* kExecBackends[] = {"serial", "pool"};

datagen::GeneratedData MakeData() {
  datagen::SyntheticConfig config;
  config.num_users = 120;
  config.num_items = 100;
  config.mean_sequence_length = 20.0;
  config.seed = 20260806;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

SkillModelConfig MakeConfig(int threads, int shards) {
  SkillModelConfig config;
  config.num_levels = 4;
  config.max_iterations = 6;
  config.min_init_actions = 10;
  config.num_shards = shards;
  config.parallel.num_threads = threads;
  config.parallel.users = threads > 1;
  config.parallel.levels = threads > 1;
  config.parallel.features = threads > 1;
  return config;
}

// Every component's parameter vector, in (feature, level) order. Bitwise
// vector equality here means the fitted model is bitwise identical.
std::vector<std::vector<double>> ModelParams(const SkillModel& model) {
  std::vector<std::vector<double>> params;
  for (int f = 0; f < model.num_features(); ++f) {
    for (int s = 1; s <= model.num_levels(); ++s) {
      params.push_back(model.component(f, s).Parameters());
    }
  }
  return params;
}

std::string SnapshotBytes(const TrainResult& result, const Dataset& dataset,
                          const TransitionWeights* transitions,
                          const std::string& path) {
  auto snapshot = serve::MakeSnapshot(
      result.model, dataset.items(),
      EstimateDifficultyByAssignment(dataset, result.assignments),
      transitions);
  EXPECT_TRUE(snapshot.ok());
  EXPECT_TRUE(serve::SaveSnapshot(snapshot.value(), path).ok());
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TransitionWeights WeightsFromResult(const TrainResult& result) {
  TransitionWeights weights;
  weights.log_initial.reserve(result.initial_distribution.size());
  for (const double p : result.initial_distribution) {
    weights.log_initial.push_back(std::log(p));
  }
  weights.log_up = std::log(result.level_up_probability);
  weights.log_stay = std::log(1.0 - result.level_up_probability);
  return weights;
}

void ExpectSameTrainResult(const TrainResult& base, const TrainResult& run,
                           const std::string& label) {
  EXPECT_EQ(base.log_likelihood_trace, run.log_likelihood_trace) << label;
  EXPECT_EQ(base.assignments, run.assignments) << label;
  EXPECT_EQ(ModelParams(base.model), ModelParams(run.model)) << label;
  EXPECT_EQ(base.iterations, run.iterations) << label;
  EXPECT_EQ(base.converged, run.converged) << label;
  EXPECT_EQ(base.final_log_likelihood, run.final_log_likelihood) << label;
  EXPECT_EQ(base.reassigned_users, run.reassigned_users) << label;
}

TEST(ShardDeterminismTest, TrainerBitwiseInvariantAcrossThreadsAndShards) {
  const datagen::GeneratedData data = MakeData();
  const std::string path = testing::TempDir() + "/det_trainer.snap";

  TrainResult base;
  std::string base_bytes;
  bool have_base = false;
  for (const int threads : kThreadCounts) {
    for (const int shards : kShardCounts) {
      const Trainer trainer(MakeConfig(threads, shards));
      auto result = trainer.Train(data.dataset);
      ASSERT_TRUE(result.ok());
      const std::string bytes =
          SnapshotBytes(result.value(), data.dataset, nullptr, path);
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      if (!have_base) {
        base = std::move(result).value();
        base_bytes = bytes;
        have_base = true;
        ASSERT_FALSE(base.log_likelihood_trace.empty());
        continue;
      }
      ExpectSameTrainResult(base, result.value(), label);
      EXPECT_EQ(base_bytes, bytes) << label;
    }
  }
}

TEST(ShardDeterminismTest, TrainerWithGlobalTransitionsBitwiseInvariant) {
  const datagen::GeneratedData data = MakeData();
  const std::string path = testing::TempDir() + "/det_transitions.snap";

  TrainResult base;
  std::string base_bytes;
  bool have_base = false;
  for (const int threads : kThreadCounts) {
    for (const int shards : kShardCounts) {
      SkillModelConfig config = MakeConfig(threads, shards);
      config.transitions = TransitionModel::kGlobal;
      const Trainer trainer(config);
      auto result = trainer.Train(data.dataset);
      ASSERT_TRUE(result.ok());
      const TransitionWeights weights = WeightsFromResult(result.value());
      const std::string bytes =
          SnapshotBytes(result.value(), data.dataset, &weights, path);
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      if (!have_base) {
        base = std::move(result).value();
        base_bytes = bytes;
        have_base = true;
        continue;
      }
      ExpectSameTrainResult(base, result.value(), label);
      EXPECT_EQ(base.initial_distribution, result.value().initial_distribution)
          << label;
      EXPECT_EQ(base.level_up_probability,
                result.value().level_up_probability)
          << label;
      EXPECT_EQ(base_bytes, bytes) << label;
    }
  }
}

TEST(ShardDeterminismTest, EmTrainerBitwiseInvariantAcrossThreadsAndShards) {
  const datagen::GeneratedData data = MakeData();

  EmTrainResult base;
  bool have_base = false;
  for (const int threads : kThreadCounts) {
    for (const int shards : kShardCounts) {
      EmTrainerConfig config;
      config.model = MakeConfig(threads, shards);
      config.model.max_iterations = 4;
      const EmTrainer trainer(config);
      auto result = trainer.Train(data.dataset);
      ASSERT_TRUE(result.ok());
      const std::string label = "threads=" + std::to_string(threads) +
                                " shards=" + std::to_string(shards);
      if (!have_base) {
        base = std::move(result).value();
        have_base = true;
        ASSERT_FALSE(base.log_likelihood_trace.empty());
        continue;
      }
      const EmTrainResult& run = result.value();
      EXPECT_EQ(base.log_likelihood_trace, run.log_likelihood_trace) << label;
      EXPECT_EQ(base.assignments, run.assignments) << label;
      EXPECT_EQ(ModelParams(base.model), ModelParams(run.model)) << label;
      EXPECT_EQ(base.initial_distribution, run.initial_distribution) << label;
      EXPECT_EQ(base.level_up_probability, run.level_up_probability) << label;
    }
  }
}

TEST(ShardDeterminismTest, TrainerBitwiseInvariantAcrossSimdBackends) {
  // The SIMD kernel layer's contract (src/simd): forcing the scalar
  // fallback — what UPSKILL_FORCE_SCALAR=1 does at process start — must
  // leave every training output bitwise unchanged, on every thread/shard
  // combination, for the plain trainer and for the transitions+forgetting
  // configuration that exercises the down-edge DP kernel. On scalar-only
  // hardware both sweeps run the fallback and the test is vacuously
  // green; on AVX2/NEON hosts it pins the vector kernels to the scalar
  // reference through the full training stack.
  const datagen::GeneratedData data = MakeData();
  const std::string path = testing::TempDir() + "/det_simd.snap";

  for (const bool forgetting : {false, true}) {
    TrainResult base;
    std::string base_bytes;
    bool have_base = false;
    for (const bool force_scalar : {false, true}) {
      simd::ForceScalarForTest(force_scalar);
      for (const int threads : {1, 8}) {
        SkillModelConfig config = MakeConfig(threads, threads > 1 ? 7 : 1);
        if (forgetting) {
          config.transitions = TransitionModel::kGlobal;
          config.forgetting.enabled = true;
          config.forgetting.gap_threshold = 40;
          config.forgetting.drop_probability = 0.05;
        }
        const Trainer trainer(config);
        auto result = trainer.Train(data.dataset);
        ASSERT_TRUE(result.ok());
        const std::string bytes =
            SnapshotBytes(result.value(), data.dataset, nullptr, path);
        const std::string label =
            std::string("backend=") +
            (force_scalar ? "scalar" : simd::BackendName()) +
            " threads=" + std::to_string(threads) +
            " forgetting=" + (forgetting ? "on" : "off");
        if (!have_base) {
          base = std::move(result).value();
          base_bytes = bytes;
          have_base = true;
          continue;
        }
        ExpectSameTrainResult(base, result.value(), label);
        EXPECT_EQ(base_bytes, bytes) << label;
      }
    }
    simd::ForceScalarForTest(false);
  }
}

TEST(ShardDeterminismTest, TrainingFromMappedStoreBitwiseMatchesInRam) {
  // The out-of-core contract (src/store): training on the zero-copy
  // mmap view of a packed dataset is bitwise identical — parameters,
  // assignments, objective traces, serialized snapshot bytes — to
  // training on the in-RAM dataset it was packed from, for any thread
  // and shard count. The store changes where the actions live, never
  // what the trainer computes.
  const datagen::GeneratedData data = MakeData();
  const std::string store_path = testing::TempDir() + "/det_store.store";
  const std::string path = testing::TempDir() + "/det_store.snap";
  ASSERT_TRUE(store::PackDataset(data.dataset, store_path).ok());
  auto reader = store::StoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  for (const bool transitions : {false, true}) {
    TrainResult base;
    std::string base_bytes;
    bool have_base = false;
    for (const int threads : kThreadCounts) {
      for (const int shards : kShardCounts) {
        SkillModelConfig config = MakeConfig(threads, shards);
        if (transitions) config.transitions = TransitionModel::kGlobal;
        const Trainer trainer(config);
        // The in-RAM run only for the first combination: the sweeps above
        // already pin in-RAM results across threads/shards, so one anchor
        // suffices and every combination compares mapped against it.
        if (!have_base) {
          auto in_ram = trainer.Train(data.dataset);
          ASSERT_TRUE(in_ram.ok());
          base = std::move(in_ram).value();
          base_bytes = SnapshotBytes(base, data.dataset, nullptr, path);
          have_base = true;
        }
        auto from_store = trainer.Train(mapped.value());
        ASSERT_TRUE(from_store.ok());
        const std::string bytes =
            SnapshotBytes(from_store.value(), mapped.value(), nullptr, path);
        const std::string label = "store threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards) +
                                  (transitions ? " transitions" : "");
        ExpectSameTrainResult(base, from_store.value(), label);
        EXPECT_EQ(base_bytes, bytes) << label;
      }
    }
  }
}

TEST(BackendSweepTest, TrainerBitwiseInvariantAcrossExecBackends) {
  // The acceptance bar for the pluggable backends: fitted parameters,
  // assignments, per-iteration objectives, and snapshot bytes are bitwise
  // identical across serial|pool x threads {1,2,8} x shards {1,3,7}.
  // Backends only move scheduling; every reduction is per-element or an
  // exact integer count merged in fixed shard order, so this sweep holds
  // with operator== and no tolerances.
  const datagen::GeneratedData data = MakeData();
  const std::string path = testing::TempDir() + "/det_backend.snap";

  TrainResult base;
  std::string base_bytes;
  bool have_base = false;
  for (const char* backend : kExecBackends) {
    for (const int threads : kThreadCounts) {
      for (const int shards : kShardCounts) {
        SkillModelConfig config = MakeConfig(threads, shards);
        config.backend = backend;
        const Trainer trainer(config);
        auto result = trainer.Train(data.dataset);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        const std::string bytes =
            SnapshotBytes(result.value(), data.dataset, nullptr, path);
        const std::string label = std::string("backend=") + backend +
                                  " threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards);
        if (!have_base) {
          base = std::move(result).value();
          base_bytes = bytes;
          have_base = true;
          ASSERT_FALSE(base.log_likelihood_trace.empty());
          continue;
        }
        ExpectSameTrainResult(base, result.value(), label);
        EXPECT_EQ(base_bytes, bytes) << label;
      }
    }
  }
}

TEST(BackendSweepTest, EmTrainerBitwiseInvariantAcrossExecBackends) {
  const datagen::GeneratedData data = MakeData();

  EmTrainResult base;
  bool have_base = false;
  for (const char* backend : kExecBackends) {
    for (const int threads : {1, 8}) {
      EmTrainerConfig config;
      config.model = MakeConfig(threads, threads > 1 ? 7 : 1);
      config.model.max_iterations = 4;
      config.model.backend = backend;
      const EmTrainer trainer(config);
      auto result = trainer.Train(data.dataset);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const std::string label = std::string("backend=") + backend +
                                " threads=" + std::to_string(threads);
      if (!have_base) {
        base = std::move(result).value();
        have_base = true;
        continue;
      }
      const EmTrainResult& run = result.value();
      EXPECT_EQ(base.log_likelihood_trace, run.log_likelihood_trace) << label;
      EXPECT_EQ(base.assignments, run.assignments) << label;
      EXPECT_EQ(ModelParams(base.model), ModelParams(run.model)) << label;
      EXPECT_EQ(base.initial_distribution, run.initial_distribution) << label;
      EXPECT_EQ(base.level_up_probability, run.level_up_probability) << label;
    }
  }
}

TEST(BackendSweepTest, MappedStoreBitwiseMatchesInRamAcrossExecBackends) {
  // The PR 8 mapped-store sweep, re-run through registry-constructed
  // backends: training on the zero-copy mmap view must stay bitwise
  // identical to the in-RAM anchor on every backend.
  const datagen::GeneratedData data = MakeData();
  const std::string store_path = testing::TempDir() + "/det_backend.store";
  const std::string path = testing::TempDir() + "/det_backend_store.snap";
  ASSERT_TRUE(store::PackDataset(data.dataset, store_path).ok());
  auto reader = store::StoreReader::Open(store_path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();

  TrainResult base;
  std::string base_bytes;
  bool have_base = false;
  for (const char* backend : kExecBackends) {
    for (const int threads : {1, 8}) {
      for (const int shards : {1, 7}) {
        SkillModelConfig config = MakeConfig(threads, shards);
        config.backend = backend;
        const Trainer trainer(config);
        if (!have_base) {
          auto in_ram = trainer.Train(data.dataset);
          ASSERT_TRUE(in_ram.ok());
          base = std::move(in_ram).value();
          base_bytes = SnapshotBytes(base, data.dataset, nullptr, path);
          have_base = true;
        }
        auto from_store = trainer.Train(mapped.value());
        ASSERT_TRUE(from_store.ok());
        const std::string bytes =
            SnapshotBytes(from_store.value(), mapped.value(), nullptr, path);
        const std::string label = std::string("store backend=") + backend +
                                  " threads=" + std::to_string(threads) +
                                  " shards=" + std::to_string(shards);
        ExpectSameTrainResult(base, from_store.value(), label);
        EXPECT_EQ(base_bytes, bytes) << label;
      }
    }
  }
}

TEST(BackendSweepTest, EvalReportBitwiseInvariantAcrossExecBackends) {
  const datagen::GeneratedData data = MakeData();
  Rng rng(7);
  auto split = MakeHoldoutSplit(data.dataset, HoldoutPosition::kLast, rng);
  ASSERT_TRUE(split.ok());

  const Trainer trainer(MakeConfig(1, 1));
  auto trained = trainer.Train(split.value().train);
  ASSERT_TRUE(trained.ok());

  auto base = eval::EvaluateItemPrediction(
      split.value().train, trained.value().assignments, trained.value().model,
      split.value().test, /*k=*/10, exec::Backend::Serial());
  ASSERT_TRUE(base.ok());
  ASSERT_GT(base.value().num_cases, 0u);

  for (const char* name : kExecBackends) {
    for (const int threads : kThreadCounts) {
      auto backend = exec::CreateBackend(name, threads);
      ASSERT_TRUE(backend.ok());
      auto report = eval::EvaluateItemPrediction(
          split.value().train, trained.value().assignments,
          trained.value().model, split.value().test, /*k=*/10,
          backend.value().get());
      ASSERT_TRUE(report.ok());
      const std::string label = std::string("backend=") + name +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(base.value().accuracy_at_k, report.value().accuracy_at_k)
          << label;
      EXPECT_EQ(base.value().mean_reciprocal_rank,
                report.value().mean_reciprocal_rank)
          << label;
      EXPECT_EQ(base.value().reciprocal_ranks, report.value().reciprocal_ranks)
          << label;
      EXPECT_EQ(base.value().num_cases, report.value().num_cases) << label;
    }
  }
}

}  // namespace
}  // namespace upskill
