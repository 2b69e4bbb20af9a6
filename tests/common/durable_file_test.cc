// The durable-file module under a fail-at-syscall-k sweep: each replacing
// writer (snapshot, store, checkpoint) and the ingest log runs once per
// syscall it makes, with that one call failing (or, for a write, writing
// only half its bytes), and must keep the invariants an I/O error may not
// break. Plus the directory a commit syncs, and the targets a replacement
// refuses.

#include "common/durable_file.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/online_trainer.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "serve/snapshot.h"
#include "store/ingest_log.h"
#include "store/store_writer.h"

namespace upskill {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

int Fail(int error) {
  errno = error;
  return -1;
}

// Routes every DurableFile call through `table` while in scope.
class SyscallScope {
 public:
  explicit SyscallScope(const FileSyscalls& table) {
    SetFileSyscallsForTest(&table);
  }
  ~SyscallScope() { SetFileSyscallsForTest(nullptr); }
  SyscallScope(const SyscallScope&) = delete;
  SyscallScope& operator=(const SyscallScope&) = delete;
};

// --- A libc table that counts every call and fails the k-th. ---

struct Fault {
  size_t fail_at = 0;       // 1-based index of the call to fail; 0: none
  bool half_write = false;  // that call, a write, writes half its bytes
  std::vector<std::string> calls;  // every call made, by name
};
Fault g_fault;

// Records a call named `name`; true if it is the one to fail.
bool Failing(const char* name) {
  g_fault.calls.push_back(name);
  return g_fault.calls.size() == g_fault.fail_at;
}

int CountedOpen(const char* path, int flags, mode_t mode) {
  return Failing("open") ? Fail(EIO) : ::open(path, flags, mode);
}
ssize_t CountedWrite(int fd, const void* data, size_t size) {
  if (!Failing("write")) return ::write(fd, data, size);
  return g_fault.half_write ? ::write(fd, data, size / 2) : Fail(ENOSPC);
}
ssize_t CountedPwrite(int fd, const void* data, size_t size, off_t offset) {
  if (!Failing("pwrite")) return ::pwrite(fd, data, size, offset);
  return g_fault.half_write ? ::pwrite(fd, data, size / 2, offset)
                            : Fail(EIO);
}
int CountedFsync(int fd) { return Failing("fsync") ? Fail(EIO) : ::fsync(fd); }
int CountedFtruncate(int fd, off_t size) {
  return Failing("ftruncate") ? Fail(EIO) : ::ftruncate(fd, size);
}
int CountedRename(const char* from, const char* to) {
  return Failing("rename") ? Fail(EIO) : ::rename(from, to);
}
int CountedClose(int fd) {
  // Linux releases the descriptor even when close fails.
  const int closed = ::close(fd);
  return Failing("close") ? Fail(EIO) : closed;
}
constexpr FileSyscalls kCounting = {
    CountedOpen,      CountedWrite,  CountedPwrite, CountedFsync,
    CountedFtruncate, CountedRename, CountedClose};

// Runs `run` with the `fail_at`-th call failing (0: none) and returns the
// calls it made.
std::vector<std::string> RunFailing(size_t fail_at, bool half_write,
                                    const std::function<void()>& run) {
  g_fault = Fault{fail_at, half_write, {}};
  {
    SyscallScope scope(kCounting);
    run();
  }
  return std::move(g_fault.calls);
}

// Calls `check(k, half_write)` once per call in `calls` with half_write
// false, then once per write call with half_write true.
void ForEachFault(const std::vector<std::string>& calls,
                  const std::function<void(size_t, bool)>& check) {
  for (const bool half_write : {false, true}) {
    for (size_t k = 1; k <= calls.size(); ++k) {
      const std::string& call = calls[k - 1];
      if (half_write && call != "write" && call != "pwrite") continue;
      SCOPED_TRACE(testing::Message() << "call " << k << " of "
                                      << calls.size() << ": " << call
                                      << (half_write ? " (half)" : ""));
      check(k, half_write);
    }
  }
}

// --- The replacing writers. ---

using Save = std::function<Status(const std::string& path)>;

// Starts from `path` as `save_old` writes it, then replaces it with
// `save_new` once per call a clean save makes, failing that call. The
// target is only ever the old file or the new one: the old one until the
// rename, the new one after it. Every failed call is reported, and no
// temp file outlives a save. A write cut short is retried, so it saves
// the new file whole.
void SweepReplacement(const std::string& path, const Save& save_old,
                      const Save& save_new) {
  ASSERT_TRUE(save_old(path).ok());
  const std::string old_bytes = Slurp(path);
  const std::vector<std::string> calls = RunFailing(0, false, [&] {
    ASSERT_TRUE(save_new(path).ok());
  });
  const std::string new_bytes = Slurp(path);
  ASSERT_NE(new_bytes, old_bytes);
  // The save ends in Commit: fsync, close, rename, directory sync.
  const std::vector<std::string> commit = {"fsync", "close", "rename",
                                           "open",  "fsync", "close"};
  ASSERT_GT(calls.size(), commit.size());
  ASSERT_TRUE(std::equal(commit.begin(), commit.end(),
                         calls.end() - static_cast<ptrdiff_t>(commit.size())));
  const size_t rename_at = calls.size() - 3;
  const auto which = [&](const std::string& bytes) {
    return bytes == old_bytes ? "old" : bytes == new_bytes ? "new" : "neither";
  };
  ForEachFault(calls, [&](size_t k, bool half_write) {
    WriteBytes(path, old_bytes);
    Status status;
    RunFailing(k, half_write, [&] { status = save_new(path); });
    EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
    if (half_write) {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_STREQ(which(Slurp(path)), "new");
    } else {
      EXPECT_FALSE(status.ok());
      EXPECT_STREQ(which(Slurp(path)), k <= rename_at ? "old" : "new");
    }
  });
  std::remove(path.c_str());
}

Dataset Generate(uint64_t seed) {
  datagen::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 20;
  config.mean_sequence_length = 12.0;
  config.seed = seed;
  auto data = datagen::GenerateSynthetic(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value().dataset;
}

SkillModelConfig Config() {
  SkillModelConfig config;
  config.num_levels = 3;
  config.max_iterations = 3;
  config.min_init_actions = 5;
  return config;
}

TEST(DurableFileSweepTest, SaveSnapshot) {
  const Dataset data = Generate(1);
  auto trained = Trainer(Config()).Train(data);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  const auto snapshot = [&](double difficulty) {
    return serve::MakeSnapshot(
               trained.value().model, data.items(),
               std::vector<double>(data.items().num_items(), difficulty))
        .value();
  };
  const serve::ModelSnapshot old_snapshot = snapshot(1.0);
  const serve::ModelSnapshot new_snapshot = snapshot(2.0);
  SweepReplacement(
      TempPath("sweep.snap"),
      [&](const std::string& p) { return SaveSnapshot(old_snapshot, p); },
      [&](const std::string& p) { return SaveSnapshot(new_snapshot, p); });
}

TEST(DurableFileSweepTest, PackDataset) {
  const Dataset old_data = Generate(1);
  const Dataset new_data = Generate(2);
  SweepReplacement(
      TempPath("sweep.store"),
      [&](const std::string& p) { return store::PackDataset(old_data, p); },
      [&](const std::string& p) { return store::PackDataset(new_data, p); });
}

TEST(DurableFileSweepTest, SaveCheckpoint) {
  const Dataset old_data = Generate(1);
  const Dataset new_data = Generate(2);
  OnlineTrainer old_state(Config());
  OnlineTrainer new_state(Config());
  ASSERT_TRUE(old_state.TrainFullReplay(old_data).ok());
  ASSERT_TRUE(new_state.TrainFullReplay(new_data).ok());
  SweepReplacement(
      TempPath("sweep.ckpt"),
      [&](const std::string& p) { return old_state.SaveCheckpoint(p); },
      [&](const std::string& p) { return new_state.SaveCheckpoint(p); });
}

// --- The ingest log. ---

store::IngestRecord Record(int64_t n) {
  store::IngestRecord record;
  record.user = "user-" + std::to_string(n % 5);
  record.time = n;
  record.item = static_cast<ItemId>(n % 11);
  return record;
}

// The times of the records a replay of `path` yields, each checked
// against the record it names.
std::vector<int64_t> Replay(const std::string& path) {
  std::vector<int64_t> times;
  Result<store::IngestScan> scan = store::ReplayIngestLog(
      path, [&](const store::IngestRecord& record) {
        const store::IngestRecord want = Record(record.time);
        EXPECT_EQ(record.user, want.user);
        EXPECT_EQ(record.item, want.item);
        times.push_back(record.time);
        return Status::OK();
      });
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  return times;
}

struct Appended {
  std::vector<int64_t> taken;  // records the writer took, in order
  size_t synced = 0;  // how many of them a Sync that returned OK covered
};

// Appends records 100.. in frames of three, with a Sync after every
// fourth record; the writer's destructor flushes and syncs the rest.
Appended AppendRecords(const std::string& path) {
  Appended out;
  store::IngestLogOptions options;
  options.batch_records = 3;
  options.fsync_batches = 2;
  auto writer = store::IngestLogWriter::Open(path, options);
  if (!writer.ok()) return out;
  store::IngestLogWriter& log = *writer.value();
  for (int64_t n = 100; n < 114; ++n) {
    const uint64_t before = log.appended();
    (void)log.Append(Record(n));
    if (log.appended() > before) out.taken.push_back(n);
    if (n % 4 == 3 && log.Sync().ok()) out.synced = out.taken.size();
  }
  return out;
}

// After any one failed call, recovery leaves the synced frames the log
// started with, then a prefix of the records the writer took that holds
// every record a successful Sync covered; a writer reopened on the file
// appends after that prefix. A write cut short is retried, giving the
// file a clean run gives.
TEST(DurableFileSweepTest, IngestLog) {
  const std::string path = TempPath("sweep.ingest");
  std::remove(path.c_str());
  {
    auto writer = store::IngestLogWriter::Open(path);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int64_t n = 0; n < 5; ++n) {
      ASSERT_TRUE(writer.value()->Append(Record(n)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  const std::string base_bytes = Slurp(path);
  const std::vector<int64_t> base = Replay(path);
  ASSERT_EQ(base.size(), 5u);

  Appended clean;
  const std::vector<std::string> calls =
      RunFailing(0, false, [&] { clean = AppendRecords(path); });
  ASSERT_EQ(clean.taken.size(), 14u);
  ASSERT_EQ(calls.front(), "open");
  ASSERT_EQ(calls.back(), "close");
  const std::string clean_bytes = Slurp(path);

  ForEachFault(calls, [&](size_t k, bool half_write) {
    WriteBytes(path, base_bytes);
    Appended appended;
    RunFailing(k, half_write, [&] { appended = AppendRecords(path); });
    if (half_write) {
      EXPECT_TRUE(Slurp(path) == clean_bytes);
      return;
    }
    ASSERT_TRUE(store::RecoverIngestLog(path).ok());
    std::vector<int64_t> want = base;
    want.insert(want.end(), appended.taken.begin(), appended.taken.end());
    std::vector<int64_t> got = Replay(path);
    ASSERT_GE(got.size(), base.size() + appended.synced);
    ASSERT_LE(got.size(), want.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin()));

    {
      auto writer = store::IngestLogWriter::Open(path);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ASSERT_TRUE(writer.value()->Append(Record(999)).ok());
      ASSERT_TRUE(writer.value()->Sync().ok());
    }
    got.push_back(999);
    EXPECT_EQ(Replay(path), got);
  });
  std::remove(path.c_str());
}

// --- A fake table that touches no file. ---

constexpr int kFileFd = 1000;
constexpr int kDirectoryFd = 1001;
std::vector<std::string> g_opened;
bool g_fail_directory_fsync = false;

int FakeOpen(const char* path, int flags, mode_t) {
  g_opened.push_back(path);
  return (flags & O_DIRECTORY) != 0 ? kDirectoryFd : kFileFd;
}
ssize_t FakeWrite(int, const void*, size_t size) {
  return static_cast<ssize_t>(size);
}
ssize_t FakePwrite(int, const void*, size_t size, off_t) {
  return static_cast<ssize_t>(size);
}
int FakeFsync(int fd) {
  return fd == kDirectoryFd && g_fail_directory_fsync ? Fail(EIO) : 0;
}
int FakeFtruncate(int, off_t) { return 0; }
int FakeRename(const char*, const char*) { return 0; }
int FakeClose(int) { return 0; }
constexpr FileSyscalls kFake = {FakeOpen,      FakeWrite,  FakePwrite,
                                FakeFsync,     FakeFtruncate, FakeRename,
                                FakeClose};

// The rename is made durable by syncing the directory that holds the
// target's entry; a failed directory sync is reported, naming it.
TEST(DurableFileTest, CommitSyncsTheParentDirectory) {
  SyscallScope scope(kFake);
  const std::pair<std::string, std::string> cases[] = {
      {"x", "."}, {"/x", "/"}, {"a/b", "a"}};
  for (const auto& [path, directory] : cases) {
    g_opened.clear();
    EXPECT_TRUE(ReplaceFile(path, "bytes").ok()) << path;
    EXPECT_EQ(g_opened, (std::vector<std::string>{path + ".tmp", directory}));
  }
  g_fail_directory_fsync = true;
  const Status failed = ReplaceFile("a/b", "bytes");
  g_fail_directory_fsync = false;
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_NE(failed.message().find("fsync a: "), std::string::npos)
      << failed.ToString();
}

// A replacement swaps in a regular file, so it refuses a target that is
// something else before touching anything. The check follows links: a
// symlink to a regular file is replaced by a regular file.
TEST(DurableFileTest, ReplacementRefusesTargetsThatAreNotRegularFiles) {
  const std::string dir = TempPath("durable_targets");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string fifo = dir + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  for (const std::string& target : {fifo, dir}) {
    const Status refused = ReplaceFile(target, "bytes");
    EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument)
        << refused.ToString();
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp"));
  }
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));

  const std::string file = dir + "/file";
  const std::string link = dir + "/link";
  ASSERT_TRUE(ReplaceFile(file, "old").ok());
  std::filesystem::create_symlink(file, link);
  ASSERT_TRUE(ReplaceFile(link, "new").ok());
  EXPECT_TRUE(std::filesystem::is_regular_file(
      std::filesystem::symlink_status(link)));
  EXPECT_EQ(Slurp(link), "new");
  EXPECT_EQ(Slurp(file), "old");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace upskill
