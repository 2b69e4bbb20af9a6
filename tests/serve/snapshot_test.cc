// Snapshot round-trip guarantees: bitwise parity of every parameter,
// rejection of corrupted / truncated / foreign files, and equivalence of
// the CSV model path and the snapshot path under the assignment DP.

#include "serve/snapshot.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "common/crc32.h"
#include "core/difficulty.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "serve/serving_model.h"

namespace upskill {
namespace serve {
namespace {

// Bitwise comparison that treats NaN == NaN (memcmp on the payload), the
// same notion of equality the snapshot format promises.
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 60;
    data_config.num_items = 120;
    data_config.mean_sequence_length = 25.0;
    data_config.seed = 2026;
    auto data = datagen::GenerateSynthetic(data_config);
    ASSERT_TRUE(data.ok());
    dataset_ = std::make_unique<Dataset>(std::move(data).value().dataset);

    SkillModelConfig config;
    config.num_levels = 4;
    config.min_init_actions = 15;
    config.max_iterations = 8;
    auto trained = Trainer(config).Train(*dataset_);
    ASSERT_TRUE(trained.ok());
    model_ = std::make_unique<SkillModel>(std::move(trained).value().model);
    assignments_ = AssignSkills(*dataset_, *model_);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset_->items(), *model_, DifficultyPrior::kEmpirical, assignments_);
    ASSERT_TRUE(difficulty.ok());
    difficulty_ = std::move(difficulty).value();
    transitions_ = FitTransitionWeights(assignments_, config.num_levels,
                                        config.smoothing);

    path_ = (std::filesystem::temp_directory_path() /
             ("upskill_snap_" + std::to_string(::getpid()) + ".snap"))
                .string();
    auto snapshot =
        MakeSnapshot(*model_, dataset_->items(), difficulty_, &transitions_);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_TRUE(SaveSnapshot(snapshot.value(), path_).ok());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string ReadBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  }
  void WriteBytes(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<SkillModel> model_;
  SkillAssignments assignments_;
  std::vector<double> difficulty_;
  TransitionWeights transitions_;
  std::string path_;
};

TEST_F(SnapshotTest, RoundTripIsBitwise) {
  const auto loaded = LoadSnapshot(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const ModelSnapshot& snap = loaded.value();

  EXPECT_EQ(snap.config.num_levels, model_->config().num_levels);
  EXPECT_EQ(snap.config.smoothing, model_->config().smoothing);
  EXPECT_EQ(snap.config.transitions, model_->config().transitions);
  EXPECT_EQ(snap.schema.num_features(), dataset_->schema().num_features());
  EXPECT_EQ(snap.items.num_items(), dataset_->items().num_items());

  // Every component's parameter vector survives bit for bit.
  for (int f = 0; f < model_->num_features(); ++f) {
    for (int s = 1; s <= model_->num_levels(); ++s) {
      EXPECT_TRUE(BitwiseEqual(snap.model.component(f, s).Parameters(),
                               model_->component(f, s).Parameters()))
          << "feature " << f << " level " << s;
    }
  }
  // Item feature columns and names survive.
  for (int f = 0; f < snap.schema.num_features(); ++f) {
    const auto col = snap.items.column(f);
    const auto original = dataset_->items().column(f);
    ASSERT_EQ(col.size(), original.size());
    EXPECT_EQ(std::memcmp(col.data(), original.data(),
                          col.size() * sizeof(double)),
              0);
  }
  for (ItemId i = 0; i < snap.items.num_items(); ++i) {
    EXPECT_EQ(snap.items.name(i), dataset_->items().name(i));
  }
  EXPECT_TRUE(BitwiseEqual(snap.difficulty, difficulty_));
  ASSERT_TRUE(snap.has_transitions);
  EXPECT_TRUE(BitwiseEqual(snap.transitions.log_initial,
                           transitions_.log_initial));
  EXPECT_EQ(snap.transitions.log_stay, transitions_.log_stay);
  EXPECT_EQ(snap.transitions.log_up, transitions_.log_up);

  // The strongest single check: the derived scoring surface is identical.
  EXPECT_TRUE(BitwiseEqual(snap.model.ItemLogProbCache(snap.items),
                           model_->ItemLogProbCache(dataset_->items())));
}

TEST_F(SnapshotTest, SnapshotModelAssignsIdenticallyToCsvModel) {
  // CSV path: Save + Load (the interchange format)...
  const std::string csv = path_ + ".csv";
  ASSERT_TRUE(model_->Save(csv).ok());
  const auto csv_model =
      SkillModel::Load(csv, dataset_->schema(), model_->config());
  ASSERT_TRUE(csv_model.ok());
  // ...snapshot path: LoadSnapshot (the serving format).
  const auto snap = LoadSnapshot(path_);
  ASSERT_TRUE(snap.ok());

  double ll_csv = 0.0;
  double ll_snap = 0.0;
  const SkillAssignments from_csv =
      AssignSkills(*dataset_, csv_model.value(), nullptr, &ll_csv);
  const SkillAssignments from_snap =
      AssignSkills(*dataset_, snap.value().model, nullptr, &ll_snap);
  EXPECT_EQ(from_csv, from_snap);
  EXPECT_EQ(ll_csv, ll_snap);
  std::filesystem::remove(csv);
}

TEST_F(SnapshotTest, RejectsCorruptedPayload) {
  std::string bytes = ReadBytes();
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x40;  // flip one payload bit
  WriteBytes(bytes);
  const auto loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

// Payload offsets (after the 28-byte header) of the counts LoadSnapshot
// sizes allocations from, found by walking the format: the config section
// (level count first), the schema, one length-prefixed parameter vector
// per (feature, level) cell, the transitions, then the item count.
struct CountOffsets {
  size_t levels = 0;
  size_t id_cardinality = 0;
  size_t id_labels = 0;
  size_t items = 0;
};

CountOffsets FindCountOffsets(const ModelSnapshot& snapshot) {
  constexpr size_t kConfigBytes = 4 + 8 + 4 + 4 + 1 + 8 + 8;
  const FeatureSchema& schema = snapshot.schema;
  CountOffsets offsets;
  size_t at = kConfigBytes + 2 * sizeof(int32_t);
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    at += sizeof(uint32_t) + spec.name.size() + 2;  // name, type, dist
    if (f == schema.id_feature()) {
      offsets.id_cardinality = at;
      offsets.id_labels = at + sizeof(int32_t);
    }
    at += sizeof(int32_t) + sizeof(uint32_t);
    for (const std::string& label : spec.labels) {
      at += sizeof(uint32_t) + label.size();
    }
  }
  for (int f = 0; f < schema.num_features(); ++f) {
    for (int s = 1; s <= snapshot.config.num_levels; ++s) {
      at += sizeof(uint32_t) +
            snapshot.model.component(f, s).Parameters().size() *
                sizeof(double);
    }
  }
  at += 1;  // has_transitions
  if (snapshot.has_transitions) {
    at += sizeof(uint32_t) +
          snapshot.transitions.log_initial.size() * sizeof(double) +
          2 * sizeof(double);
  }
  offsets.items = at;
  return offsets;
}

// Counts from which an unchecked decoder would size a huge allocation,
// each written behind a re-sealed payload CRC so only the decoder's own
// checks can reject them: the level count, the item-ID cardinality, the
// item count, and a schema label count.
TEST_F(SnapshotTest, RejectsCountsTheFileCannotBack) {
  constexpr size_t kHeaderSize = 28;
  constexpr size_t kCrcOffset = 24;
  const std::string bytes = ReadBytes();
  const auto original = LoadSnapshot(path_);
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  ASSERT_GE(original.value().schema.id_feature(), 0);
  const CountOffsets offsets = FindCountOffsets(original.value());
  const auto read_i32 = [&](size_t offset) {
    int32_t value = 0;
    std::memcpy(&value, bytes.data() + kHeaderSize + offset, sizeof value);
    return value;
  };
  ASSERT_EQ(read_i32(offsets.levels), original.value().config.num_levels);
  ASSERT_EQ(read_i32(offsets.id_cardinality),
            original.value().items.num_items());
  ASSERT_EQ(read_i32(offsets.id_labels), 0);
  ASSERT_EQ(read_i32(offsets.items), original.value().items.num_items());

  const std::pair<size_t, uint32_t> cases[] = {
      {offsets.levels, 0x7ffffff0u},
      {offsets.id_cardinality, 0x7ffffff0u},
      {offsets.items, 0x7ffffff0u},
      {offsets.id_labels, 0xfffffff0u},
  };
  for (const auto& [offset, value] : cases) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + kHeaderSize + offset, &value, sizeof value);
    const uint32_t crc = Crc32(corrupt.data() + kHeaderSize,
                               corrupt.size() - kHeaderSize);
    std::memcpy(corrupt.data() + kCrcOffset, &crc, sizeof crc);
    WriteBytes(corrupt);
    const auto loaded = LoadSnapshot(path_);
    ASSERT_FALSE(loaded.ok()) << "offset " << offset;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "offset " << offset << ": " << loaded.status().ToString();
  }
}

TEST_F(SnapshotTest, RejectsTruncatedFile) {
  const std::string bytes = ReadBytes();
  // Truncated payload.
  WriteBytes(bytes.substr(0, bytes.size() - 9));
  EXPECT_FALSE(LoadSnapshot(path_).ok());
  // Truncated inside the header.
  WriteBytes(bytes.substr(0, 11));
  EXPECT_FALSE(LoadSnapshot(path_).ok());
  // Empty file.
  WriteBytes("");
  EXPECT_FALSE(LoadSnapshot(path_).ok());
}

TEST_F(SnapshotTest, RejectsBadMagicAndUnknownVersion) {
  std::string bytes = ReadBytes();
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteBytes(bad_magic);
  ASSERT_FALSE(LoadSnapshot(path_).ok());

  std::string bad_version = bytes;
  bad_version[8] = static_cast<char>(0xEF);  // version u32 at offset 8
  WriteBytes(bad_version);
  const auto loaded = LoadSnapshot(path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, MissingFileFails) {
  EXPECT_FALSE(LoadSnapshot(path_ + ".does-not-exist").ok());
}

// Short and truncated files are corrupt snapshots; a path that cannot be
// read whole (a directory, or a file that yields fewer bytes than its
// size) is an I/O error, reported without a file-sized allocation.
TEST_F(SnapshotTest, ErrorClassesForShortFilesAndUnreadablePaths) {
  const std::string bytes = ReadBytes();
  WriteBytes(bytes.substr(0, 11));
  Result<ModelSnapshot> loaded = LoadSnapshot(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("shorter than header"),
            std::string::npos)
      << loaded.status().ToString();
  WriteBytes(bytes.substr(0, bytes.size() - 9));
  loaded = LoadSnapshot(path_);
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos)
      << loaded.status().ToString();

  const std::string dir = path_ + ".dir";
  std::filesystem::create_directory(dir);
  loaded = LoadSnapshot(dir);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
  std::filesystem::remove(dir);

  // sysfs attributes report a page-sized st_size but read back far
  // fewer bytes: a real short read, no injection needed.
  const std::string sysfs = "/sys/devices/system/cpu/online";
  std::error_code error;
  if (std::filesystem::file_size(sysfs, error) <= 64 || error) {
    GTEST_SKIP() << sysfs << " does not report a padded size here";
  }
  loaded = LoadSnapshot(sysfs);
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("short read"), std::string::npos)
      << loaded.status().ToString();
}

// A pipe has no size: it is read until end of file, across several
// buffer growths, and loads the same snapshot as the file does.
TEST_F(SnapshotTest, LoadsFromAPipe) {
  const std::string bytes = ReadBytes();
  ASSERT_GT(bytes.size(), 2 * 4096u);  // two buffer growths
  const std::string fifo = path_ + ".fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  // Opening a FIFO blocks until both ends are open, so the writer runs on
  // its own thread.
  std::thread writer([&] {
    std::ofstream out(fifo, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  });
  Result<ModelSnapshot> loaded = LoadSnapshot(fifo);
  writer.join();
  std::filesystem::remove(fifo);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(SaveSnapshot(loaded.value(), resaved).ok());
  std::ifstream in(resaved, std::ios::binary);
  const std::string resaved_bytes(std::istreambuf_iterator<char>(in), {});
  std::filesystem::remove(resaved);
  EXPECT_EQ(resaved_bytes, bytes);
}

// The file-size limit makes the kernel take only the first 1000 bytes of
// the save, then fail it with EFBIG: a real short write, with no
// fault-injection layer. The save replaces the file atomically, so the
// previous snapshot survives whole.
TEST_F(SnapshotTest, FailedSaveKeepsThePreviousSnapshot) {
  const std::string previous = ReadBytes();
  ASSERT_GT(previous.size(), 1000u);
  const Result<ModelSnapshot> snapshot = LoadSnapshot(path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  rlimit saved;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit lowered = saved;
  lowered.rlim_cur = 1000;
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  const Status failed = SaveSnapshot(snapshot.value(), path_);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  EXPECT_FALSE(failed.ok());
  EXPECT_TRUE(ReadBytes() == previous) << "the previous snapshot was damaged";
  const Result<ModelSnapshot> loaded = LoadSnapshot(path_);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

// The save renames a new file into place, which would swap a FIFO or a
// device node at the path for a regular file: it is refused instead.
TEST_F(SnapshotTest, SaveRefusesAFifo) {
  const Result<ModelSnapshot> snapshot = LoadSnapshot(path_);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const std::string fifo = path_ + ".fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const Status saved = SaveSnapshot(snapshot.value(), fifo);
  const bool still_fifo = std::filesystem::is_fifo(fifo);
  std::filesystem::remove(fifo);
  EXPECT_EQ(saved.code(), StatusCode::kInvalidArgument) << saved.ToString();
  EXPECT_TRUE(still_fifo);
}

TEST_F(SnapshotTest, MakeSnapshotValidatesDifficultyCoverage) {
  std::vector<double> short_table(difficulty_.begin(),
                                  difficulty_.end() - 1);
  EXPECT_FALSE(
      MakeSnapshot(*model_, dataset_->items(), short_table).ok());
}

TEST_F(SnapshotTest, ServingModelMatchesBatchCache) {
  const auto model = ServingModel::FromSnapshotFile(path_);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_TRUE(BitwiseEqual(model.value()->item_log_probs(),
                           model_->ItemLogProbCache(dataset_->items())));
  EXPECT_EQ(model.value()->num_levels(), model_->num_levels());
  EXPECT_EQ(model.value()->num_items(), dataset_->items().num_items());
  ASSERT_NE(model.value()->transitions(), nullptr);
}

}  // namespace
}  // namespace serve
}  // namespace upskill
