// The online-EM contract (core/online_trainer.h): TrainFullReplay is
// bitwise equal to the offline trainer; Refresh maintains the count grid
// incrementally with exact parity against a from-scratch rebuild and
// refits to exactly what the full update step would produce; state
// round-trips through checkpoints bitwise, so a resumed trainer refreshes
// identically to one that never stopped.

#include "core/online_trainer.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "data/schema_io.h"
#include "datagen/synthetic.h"

namespace upskill {
namespace {

datagen::GeneratedData MakeData() {
  datagen::SyntheticConfig config;
  config.num_users = 60;
  config.num_items = 40;
  config.mean_sequence_length = 16.0;
  config.seed = 20260808;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

SkillModelConfig MakeConfig(TransitionModel transitions) {
  SkillModelConfig config;
  config.num_levels = 3;
  config.max_iterations = 5;
  config.min_init_actions = 5;
  config.transitions = transitions;
  return config;
}

std::vector<std::vector<double>> ModelParams(const SkillModel& model) {
  std::vector<std::vector<double>> params;
  for (int f = 0; f < model.num_features(); ++f) {
    for (int s = 1; s <= model.num_levels(); ++s) {
      params.push_back(model.component(f, s).Parameters());
    }
  }
  return params;
}

// Rebuilds an owned copy of `base` so the copy can grow independently.
Dataset CopyOwned(const Dataset& base) {
  Dataset out(base.items());
  for (UserId u = 0; u < base.num_users(); ++u) {
    out.AddUser(base.user_name(u));
    for (const Action& a : base.sequence(u)) {
      EXPECT_TRUE(out.AddAction(u, a.time, a.item, a.rating).ok());
    }
  }
  return out;
}

// The "current" dataset of a refresh: `base` plus a handful of appended
// actions on a few existing users and one brand-new user. Deterministic.
Dataset GrowDataset(const Dataset& base, int* expected_dirty) {
  Dataset out = CopyOwned(base);
  const int num_items = base.items().num_items();
  const std::vector<UserId> touched = {0, 3, static_cast<UserId>(
                                                 base.num_users() - 1)};
  for (UserId u : touched) {
    const auto seq = base.sequence(u);
    const int64_t start = seq.empty() ? 0 : seq.back().time + 1;
    for (int k = 0; k < 4; ++k) {
      EXPECT_TRUE(
          out.AddAction(u, start + k, (u * 7 + k * 3) % num_items).ok());
    }
  }
  const UserId fresh = out.AddUser("newcomer");
  for (int k = 0; k < 8; ++k) {
    EXPECT_TRUE(out.AddAction(fresh, 100 + k, (k * 5) % num_items).ok());
  }
  *expected_dirty = static_cast<int>(touched.size()) + 1;
  return out;
}

// From-scratch grid rebuild — the oracle the incremental maintenance must
// match bit for bit (counts are exact integer sums in doubles).
std::vector<double> RebuildGrid(const Dataset& dataset,
                                const SkillAssignments& assignments,
                                int num_levels) {
  const size_t num_items = static_cast<size_t>(dataset.items().num_items());
  std::vector<double> grid(static_cast<size_t>(num_levels) * num_items, 0.0);
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    const auto seq = dataset.sequence(u);
    const auto& path = assignments[static_cast<size_t>(u)];
    EXPECT_EQ(path.size(), seq.size());
    for (size_t n = 0; n < seq.size(); ++n) {
      grid[static_cast<size_t>(path[n] - 1) * num_items +
           static_cast<size_t>(seq[n].item)] += 1.0;
    }
  }
  return grid;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class OnlineTrainerTest : public ::testing::TestWithParam<TransitionModel> {};

TEST_P(OnlineTrainerTest, FullReplayMatchesOfflineTrainer) {
  const auto data = MakeData();
  const SkillModelConfig config = MakeConfig(GetParam());

  auto offline = Trainer(config).Train(data.dataset);
  ASSERT_TRUE(offline.ok());

  OnlineTrainer online(config);
  auto replay = online.TrainFullReplay(data.dataset);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();

  EXPECT_TRUE(online.trained());
  EXPECT_EQ(ModelParams(offline.value().model), ModelParams(online.model()));
  EXPECT_EQ(offline.value().assignments, online.assignments());
  // The adopted grid is exactly what the final assignments imply.
  const auto grid = RebuildGrid(data.dataset, online.assignments(),
                                config.num_levels);
  EXPECT_EQ(grid, std::vector<double>(online.level_counts().begin(),
                                      online.level_counts().end()));
}

TEST_P(OnlineTrainerTest, RefreshOnIdenticalDataIsANoOp) {
  const auto data = MakeData();
  OnlineTrainer online(MakeConfig(GetParam()));
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());

  const auto before = ModelParams(online.model());
  const auto assignments_before = online.assignments();
  auto stats = online.Refresh(data.dataset, data.dataset);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().dirty_users, 0u);
  EXPECT_EQ(stats.value().clean_users,
            static_cast<size_t>(data.dataset.num_users()));
  EXPECT_EQ(stats.value().actions_added, 0u);
  EXPECT_EQ(before, ModelParams(online.model()));
  EXPECT_EQ(assignments_before, online.assignments());
}

TEST_P(OnlineTrainerTest, RefreshPatchesGridExactlyAndRefitsFromIt) {
  const auto data = MakeData();
  const SkillModelConfig config = MakeConfig(GetParam());
  OnlineTrainer online(config);
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());

  int expected_dirty = 0;
  const Dataset current = GrowDataset(data.dataset, &expected_dirty);
  auto stats = online.Refresh(data.dataset, current);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().dirty_users, static_cast<size_t>(expected_dirty));
  EXPECT_EQ(stats.value().new_users, 1u);
  EXPECT_EQ(stats.value().clean_users,
            static_cast<size_t>(data.dataset.num_users()) -
                (static_cast<size_t>(expected_dirty) - 1));
  EXPECT_GT(stats.value().actions_added, stats.value().actions_removed);

  // Incremental grid == from-scratch rebuild over (current, assignments).
  const auto grid = RebuildGrid(current, online.assignments(),
                                config.num_levels);
  EXPECT_EQ(grid, std::vector<double>(online.level_counts().begin(),
                                      online.level_counts().end()));

  // The refit is a pure function of the grid: re-applying the update step
  // to the rebuilt grid reproduces the refreshed parameters bitwise.
  SkillModel anchor = online.model();
  FitCellsFromCountGrid(current.items(), grid, &anchor);
  EXPECT_EQ(ModelParams(anchor), ModelParams(online.model()));
}

TEST_P(OnlineTrainerTest, CheckpointRoundTripIsBitwise) {
  const auto data = MakeData();
  const SkillModelConfig config = MakeConfig(GetParam());
  OnlineTrainer online(config);
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());

  const std::string p1 = testing::TempDir() + "/online_ckpt_1.bin";
  const std::string p2 = testing::TempDir() + "/online_ckpt_2.bin";
  ASSERT_TRUE(online.SaveCheckpoint(p1).ok());
  auto resumed = OnlineTrainer::LoadCheckpoint(p1, config);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_TRUE(resumed.value().SaveCheckpoint(p2).ok());
  EXPECT_EQ(FileBytes(p1), FileBytes(p2));  // same state, same bytes

  // A resumed trainer refreshes identically to one that never stopped.
  int expected_dirty = 0;
  const Dataset current = GrowDataset(data.dataset, &expected_dirty);
  ASSERT_TRUE(online.Refresh(data.dataset, current).ok());
  ASSERT_TRUE(resumed.value().Refresh(data.dataset, current).ok());
  EXPECT_EQ(ModelParams(online.model()), ModelParams(resumed.value().model()));
  EXPECT_EQ(online.assignments(), resumed.value().assignments());
  EXPECT_EQ(std::vector<double>(online.level_counts().begin(),
                                online.level_counts().end()),
            std::vector<double>(resumed.value().level_counts().begin(),
                                resumed.value().level_counts().end()));
}

// Byte offset of a checkpoint's user count: the magic, four u32 header
// fields, the schema, the u64 item count, then one length-prefixed
// parameter vector per (feature, level) cell.
size_t UserCountOffset(const OnlineTrainer& trainer) {
  ByteWriter schema;
  SerializeSchema(trainer.model().schema(), &schema);
  size_t offset = 8 + 4 * sizeof(uint32_t) + schema.buffer().size() +
                  sizeof(uint64_t);
  for (int f = 0; f < trainer.model().num_features(); ++f) {
    for (int s = 1; s <= trainer.model().num_levels(); ++s) {
      offset += sizeof(uint32_t) +
                trainer.model().component(f, s).Parameters().size() *
                    sizeof(double);
    }
  }
  return offset;
}

// `bytes` with `value` stored at `offset` and the trailing CRC re-sealed,
// so only the decoder's own checks can reject it.
template <typename T>
std::string Resealed(std::string bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof value);
  const uint32_t crc = Crc32(bytes.data(), bytes.size() - sizeof crc);
  std::memcpy(bytes.data() + bytes.size() - sizeof crc, &crc, sizeof crc);
  return bytes;
}

TEST_P(OnlineTrainerTest, CheckpointRejectsCorruption) {
  const auto data = MakeData();
  const SkillModelConfig config = MakeConfig(GetParam());
  OnlineTrainer online(config);
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());

  const std::string path = testing::TempDir() + "/online_ckpt_corrupt.bin";
  ASSERT_TRUE(online.SaveCheckpoint(path).ok());
  const std::string bytes = FileBytes(path);
  ASSERT_GT(bytes.size(), 64u);
  const size_t users_at = UserCountOffset(online);
  uint64_t num_users = 0;
  std::memcpy(&num_users, bytes.data() + users_at, sizeof num_users);
  ASSERT_EQ(num_users, static_cast<uint64_t>(data.dataset.num_users()));

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;  // flip one bit mid-file
  // Counts the decoder must check before sizing anything from them, each
  // behind a valid CRC: a user count of 2^40 and a first path length of
  // 0xFFFFFFF0.
  const std::string corrupt[] = {
      flipped,
      Resealed(bytes, users_at, uint64_t{1} << 40),
      Resealed(bytes, users_at + sizeof(uint64_t), uint32_t{0xFFFFFFF0u}),
  };
  for (const std::string& input : corrupt) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(input.data(), static_cast<std::streamsize>(input.size()));
    }
    auto resumed = OnlineTrainer::LoadCheckpoint(path, config);
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.status().code(), StatusCode::kCorruption)
        << resumed.status().ToString();
  }
}

TEST_P(OnlineTrainerTest, CheckpointRejectsConfigMismatch) {
  const auto data = MakeData();
  const SkillModelConfig config = MakeConfig(GetParam());
  OnlineTrainer online(config);
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());

  const std::string path = testing::TempDir() + "/online_ckpt_mismatch.bin";
  ASSERT_TRUE(online.SaveCheckpoint(path).ok());
  SkillModelConfig other = config;
  other.num_levels = config.num_levels + 1;
  auto resumed = OnlineTrainer::LoadCheckpoint(path, other);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.status().code(), StatusCode::kFailedPrecondition);
}

INSTANTIATE_TEST_SUITE_P(Transitions, OnlineTrainerTest,
                         ::testing::Values(TransitionModel::kNone,
                                           TransitionModel::kGlobal),
                         [](const auto& info) {
                           return info.param == TransitionModel::kGlobal
                                      ? "Global"
                                      : "None";
                         });

// Refresh re-solves each dirty user with the solve a full assignment pass
// runs, so its path is bitwise the one AssignSkills gives under the
// pre-refresh model and weights, with and without transitions and
// forgetting. The appended actions follow gaps above the forgetting
// threshold, so with forgetting on their down-edges are open.
class RefreshMatchesEngineTest
    : public ::testing::TestWithParam<std::tuple<TransitionModel, bool>> {};

TEST_P(RefreshMatchesEngineTest, DirtyUsersGetTheEnginePaths) {
  const auto [transitions, forgetting] = GetParam();
  datagen::SyntheticConfig gen;
  gen.num_users = 60;
  gen.num_items = 40;
  gen.mean_sequence_length = 16.0;
  gen.break_probability = 0.1;
  gen.break_gap = 1000;
  gen.forget_probability = 0.5;
  gen.seed = 20261018;
  auto data = datagen::GenerateSynthetic(gen);
  ASSERT_TRUE(data.ok());
  const Dataset& base = data.value().dataset;

  SkillModelConfig config = MakeConfig(transitions);
  config.forgetting.enabled = forgetting;
  config.forgetting.gap_threshold = 100;
  config.forgetting.drop_probability = 0.1;
  OnlineTrainer online(config);
  ASSERT_TRUE(online.TrainFullReplay(base).ok());

  // Actions 500 time units apart on a few existing users and one new user.
  Dataset current = CopyOwned(base);
  const int num_items = base.items().num_items();
  std::vector<UserId> dirty = {1, 4, 17, base.num_users() - 1};
  for (const UserId u : dirty) {
    const auto seq = base.sequence(u);
    const int64_t start = seq.empty() ? 0 : seq.back().time;
    for (int k = 1; k <= 5; ++k) {
      ASSERT_TRUE(
          current.AddAction(u, start + 500 * k, (u * 11 + k * 7) % num_items)
              .ok());
    }
  }
  const UserId fresh = current.AddUser("newcomer");
  for (int k = 0; k < 6; ++k) {
    ASSERT_TRUE(current.AddAction(fresh, 500 * k, (k * 13) % num_items).ok());
  }
  dirty.push_back(fresh);

  const SkillModel model_before = online.model();
  const TransitionWeights weights_before = online.transitions();
  const SkillAssignments expected = AssignSkills(
      current, model_before, /*backend=*/nullptr,
      /*total_log_likelihood=*/nullptr,
      transitions == TransitionModel::kGlobal ? &weights_before : nullptr);

  auto stats = online.Refresh(base, current);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats.value().dirty_users, dirty.size());
  int down_steps = 0;
  for (const UserId u : dirty) {
    const size_t us = static_cast<size_t>(u);
    const std::vector<int>& path = online.assignments()[us];
    EXPECT_EQ(path, expected[us]) << "user " << u;
    for (size_t n = 1; n < path.size(); ++n) {
      down_steps += path[n] < path[n - 1];
    }
  }
  // Forgetting paths take the down-edge somewhere, so it is compared too.
  EXPECT_EQ(down_steps > 0, forgetting);
}

INSTANTIATE_TEST_SUITE_P(
    TransitionsAndForgetting, RefreshMatchesEngineTest,
    ::testing::Combine(::testing::Values(TransitionModel::kNone,
                                         TransitionModel::kGlobal),
                       ::testing::Bool()),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == TransitionModel::kGlobal
                             ? "Global"
                             : "None") +
             (std::get<1>(info.param) ? "Forgetting" : "Monotone");
    });

TEST(OnlineTrainerErrorsTest, RejectsPerClassTransitions) {
  const auto data = MakeData();
  SkillModelConfig config = MakeConfig(TransitionModel::kPerClass);
  config.num_progression_classes = 2;
  OnlineTrainer online(config);
  auto replay = online.TrainFullReplay(data.dataset);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OnlineTrainerErrorsTest, FullReplayRejectsNonPositiveMaxIterations) {
  const auto data = MakeData();
  SkillModelConfig config = MakeConfig(TransitionModel::kNone);
  config.max_iterations = 0;
  OnlineTrainer online(config);
  auto replay = online.TrainFullReplay(data.dataset);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(online.trained());
}

// A directory cannot be read whole: an IoError, not an exception
// escaping from a stream.
TEST(OnlineTrainerErrorsTest, LoadCheckpointOfADirectoryIsAnIoError) {
  const std::string dir = testing::TempDir() + "/online_ckpt_dir";
  std::filesystem::create_directories(dir);
  auto loaded =
      OnlineTrainer::LoadCheckpoint(dir, MakeConfig(TransitionModel::kNone));
  std::filesystem::remove(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
}

// The save renames a new file into place, which would swap a FIFO or a
// device node at the path for a regular file: it is refused instead.
TEST(OnlineTrainerErrorsTest, SaveCheckpointRefusesAFifo) {
  const auto data = MakeData();
  OnlineTrainer online(MakeConfig(TransitionModel::kNone));
  ASSERT_TRUE(online.TrainFullReplay(data.dataset).ok());
  const std::string fifo = testing::TempDir() + "/online_ckpt.fifo";
  std::filesystem::remove(fifo);
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const Status saved = online.SaveCheckpoint(fifo);
  const bool still_fifo = std::filesystem::is_fifo(fifo);
  std::filesystem::remove(fifo);
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument) << saved.ToString();
  EXPECT_TRUE(still_fifo);
}

TEST(OnlineTrainerErrorsTest, RefreshRequiresTraining) {
  const auto data = MakeData();
  OnlineTrainer online(MakeConfig(TransitionModel::kNone));
  EXPECT_FALSE(online.Refresh(data.dataset, data.dataset).ok());
}

TEST(OnlineTrainerErrorsTest, RefreshRejectsMismatchedPrevious) {
  const auto data = MakeData();
  OnlineTrainer online(MakeConfig(TransitionModel::kNone));
  int expected_dirty = 0;
  const Dataset current = GrowDataset(data.dataset, &expected_dirty);
  ASSERT_TRUE(online.TrainFullReplay(current).ok());
  // `previous` must be the dataset the state was trained on; passing the
  // larger dataset as previous (users would disappear) is rejected.
  EXPECT_FALSE(online.Refresh(current, data.dataset).ok());
}

}  // namespace
}  // namespace upskill
