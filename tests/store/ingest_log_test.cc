// Ingest log: append/replay round trip, crash recovery with randomized
// torn-tail injection (the recovered state must equal the longest
// durable prefix), idempotence, concurrent appends, and a frame torn by a
// real short write (RLIMIT_FSIZE) that must not cost acknowledged data.
// The torn-tail sweep runs under ASan in CI (see .github/workflows).

#include "store/ingest_log.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace upskill {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

IngestRecord MakeRecord(int n) {
  IngestRecord record;
  record.user = "user-" + std::to_string(n % 7);
  record.time = 1000 + n;
  record.item = n % 13;
  record.rating = (n % 3 == 0) ? static_cast<double>(n)
                               : std::numeric_limits<double>::quiet_NaN();
  return record;
}

std::vector<IngestRecord> ReplayAll(const std::string& path,
                                    IngestScan* scan_out = nullptr) {
  std::vector<IngestRecord> records;
  Result<IngestScan> scan =
      ReplayIngestLog(path, [&](const IngestRecord& record) {
        records.push_back(record);
        return Status::OK();
      });
  EXPECT_TRUE(scan.ok()) << scan.status().ToString();
  if (scan_out != nullptr && scan.ok()) *scan_out = scan.value();
  return records;
}

void ExpectSameRecord(const IngestRecord& got, const IngestRecord& want) {
  EXPECT_EQ(got.user, want.user);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.item, want.item);
  EXPECT_EQ(std::memcmp(&got.rating, &want.rating, sizeof(double)), 0);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(IngestLogTest, AppendSyncReplayRoundTrip) {
  const std::string path = TempPath("roundtrip.ingest");
  std::remove(path.c_str());
  IngestLogOptions options;
  options.batch_records = 5;  // several frames plus a short tail frame
  std::vector<IngestRecord> written;
  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int n = 0; n < 23; ++n) {
      written.push_back(MakeRecord(n));
      ASSERT_TRUE(writer.value()->Append(written.back()).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
    EXPECT_EQ(writer.value()->appended(), 23u);
  }
  IngestScan scan;
  const std::vector<IngestRecord> replayed = ReplayAll(path, &scan);
  ASSERT_EQ(replayed.size(), written.size());
  for (size_t n = 0; n < written.size(); ++n) {
    ExpectSameRecord(replayed[n], written[n]);
  }
  EXPECT_EQ(scan.num_records, 23u);
  EXPECT_EQ(scan.num_batches, 5u);  // 4 full frames of 5 + tail of 3
}

TEST(IngestLogTest, MissingFileIsAnEmptyLog) {
  const std::string path = TempPath("missing.ingest");
  std::remove(path.c_str());
  EXPECT_TRUE(ReplayAll(path).empty());
  Result<IngestRecovery> recovered = RecoverIngestLog(path);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().scan.valid_bytes, 0u);
  EXPECT_EQ(recovered.value().truncated_bytes, 0u);
}

TEST(IngestLogTest, WriterRejectsBadRecords) {
  const std::string path = TempPath("badrecords.ingest");
  std::remove(path.c_str());
  Result<std::unique_ptr<IngestLogWriter>> writer = IngestLogWriter::Open(path);
  ASSERT_TRUE(writer.ok());
  IngestRecord record = MakeRecord(0);
  record.user = "";
  EXPECT_EQ(writer.value()->Append(record).code(),
            StatusCode::kInvalidArgument);
  record = MakeRecord(0);
  record.item = -2;
  EXPECT_EQ(writer.value()->Append(record).code(), StatusCode::kOutOfRange);
}

// The crash-recovery contract: for ANY prefix of the log bytes (a crash
// can stop a write anywhere), recovery yields exactly the records of the
// frames that made it to disk intact.
TEST(IngestLogTest, TornTailSweepRecoversLongestDurablePrefix) {
  const std::string path = TempPath("torn_src.ingest");
  std::remove(path.c_str());
  IngestLogOptions options;
  options.batch_records = 4;
  std::vector<IngestRecord> written;
  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (int n = 0; n < 20; ++n) {  // exactly 5 full frames
      written.push_back(MakeRecord(n));
      ASSERT_TRUE(writer.value()->Append(written.back()).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  const std::string bytes = ReadFile(path);
  ASSERT_FALSE(bytes.empty());

  // Frame boundaries, in bytes, recovered by a clean replay per prefix.
  // 25 randomized cuts plus the exact frame boundaries as edge cases.
  std::mt19937 rng(20260808u);
  std::vector<size_t> cuts;
  for (int c = 0; c < 25; ++c) {
    cuts.push_back(std::uniform_int_distribution<size_t>(0, bytes.size())(rng));
  }
  cuts.push_back(0);
  cuts.push_back(bytes.size());

  const std::string torn = TempPath("torn_cut.ingest");
  for (const size_t cut : cuts) {
    WriteFile(torn, bytes.substr(0, cut));
    Result<IngestRecovery> recovered = RecoverIngestLog(torn);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    // Recovery truncated the file to the valid prefix...
    EXPECT_EQ(recovered.value().scan.valid_bytes +
                  recovered.value().truncated_bytes,
              cut);
    EXPECT_EQ(ReadFile(torn).size(), recovered.value().scan.valid_bytes);
    // ...whose records are exactly the fully-durable frames.
    const std::vector<IngestRecord> replayed = ReplayAll(torn);
    EXPECT_EQ(replayed.size(), recovered.value().scan.num_records);
    ASSERT_LE(replayed.size(), written.size());
    EXPECT_EQ(replayed.size() % options.batch_records, 0u) << cut;
    for (size_t n = 0; n < replayed.size(); ++n) {
      ExpectSameRecord(replayed[n], written[n]);
    }
    // A second recovery is a no-op (idempotence).
    Result<IngestRecovery> again = RecoverIngestLog(torn);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().truncated_bytes, 0u);
  }
}

// Bit flips (not just truncation): a corrupt frame ends the valid
// prefix even when intact frames follow it.
TEST(IngestLogTest, CorruptMiddleFrameEndsThePrefix) {
  const std::string path = TempPath("bitflip_src.ingest");
  std::remove(path.c_str());
  IngestLogOptions options;
  options.batch_records = 2;
  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (int n = 0; n < 10; ++n) {
      ASSERT_TRUE(writer.value()->Append(MakeRecord(n)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  const std::string bytes = ReadFile(path);
  const std::string corrupt_path = TempPath("bitflip_cut.ingest");
  // (byte, bit) flips: 25 random ones, plus the top bit of the middle
  // frame's record count, which they never hit. The count sits outside
  // the frame CRC.
  std::vector<std::pair<size_t, int>> flips;
  std::mt19937 rng(123u);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t at =
        std::uniform_int_distribution<size_t>(0, bytes.size() - 1)(rng);
    flips.emplace_back(at, std::uniform_int_distribution<int>(0, 7)(rng));
  }
  size_t middle_frame = 0;  // frame 2 of 5: skip two 16-byte headers
  for (int frame = 0; frame < 2; ++frame) {
    uint32_t payload_bytes = 0;
    std::memcpy(&payload_bytes, bytes.data() + middle_frame + 4, 4);
    middle_frame += 16 + payload_bytes;
  }
  flips.emplace_back(middle_frame + 11, 7);  // count is bytes 8..11
  for (const auto& [at, bit] : flips) {
    std::string corrupt = bytes;
    corrupt[at] ^= static_cast<char>(1 << bit);
    WriteFile(corrupt_path, corrupt);
    Result<IngestRecovery> recovered = RecoverIngestLog(corrupt_path);
    ASSERT_TRUE(recovered.ok());
    const std::vector<IngestRecord> replayed = ReplayAll(corrupt_path);
    // Whatever survives is a frame-aligned prefix of what was written.
    EXPECT_EQ(replayed.size() % options.batch_records, 0u);
    for (size_t n = 0; n < replayed.size(); ++n) {
      ExpectSameRecord(replayed[n], MakeRecord(static_cast<int>(n)));
    }
    EXPECT_LT(replayed.size(), 10u) << "flip at " << at << " went unnoticed";
  }
}

TEST(IngestLogTest, OpenAfterCrashTruncatesThenAppends) {
  const std::string path = TempPath("reopen.ingest");
  std::remove(path.c_str());
  IngestLogOptions options;
  options.batch_records = 3;
  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (int n = 0; n < 6; ++n) {
      ASSERT_TRUE(writer.value()->Append(MakeRecord(n)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  // Simulate a crash mid-frame: chop 5 bytes off the tail.
  const std::string bytes = ReadFile(path);
  WriteFile(path, bytes.substr(0, bytes.size() - 5));

  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (int n = 100; n < 103; ++n) {
      ASSERT_TRUE(writer.value()->Append(MakeRecord(n)).ok());
    }
    ASSERT_TRUE(writer.value()->Sync().ok());
  }
  const std::vector<IngestRecord> replayed = ReplayAll(path);
  ASSERT_EQ(replayed.size(), 6u);  // first frame survived + 3 new records
  for (int n = 0; n < 3; ++n) {
    ExpectSameRecord(replayed[static_cast<size_t>(n)], MakeRecord(n));
    ExpectSameRecord(replayed[static_cast<size_t>(n + 3)], MakeRecord(100 + n));
  }
}

TEST(IngestLogTest, ConcurrentAppendsAllSurvive) {
  const std::string path = TempPath("concurrent.ingest");
  std::remove(path.c_str());
  IngestLogOptions options;
  options.batch_records = 7;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;
  {
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int n = 0; n < kPerThread; ++n) {
          IngestRecord record = MakeRecord(n);
          record.user = "thread-" + std::to_string(t);
          if (!writer.value()->Append(record).ok()) failures.fetch_add(1);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(writer.value()->Sync().ok());
    EXPECT_EQ(writer.value()->appended(),
              static_cast<uint64_t>(kThreads * kPerThread));
  }
  IngestScan scan;
  const std::vector<IngestRecord> replayed = ReplayAll(path, &scan);
  EXPECT_EQ(replayed.size(), static_cast<size_t>(kThreads * kPerThread));
  // Per-thread order is preserved even though threads interleave.
  std::vector<int> seen(kThreads, 0);
  for (const IngestRecord& record : replayed) {
    const int t = record.user.back() - '0';
    ASSERT_GE(t, 0);
    ASSERT_LT(t, kThreads);
    ExpectSameRecord(record, [&] {
      IngestRecord want = MakeRecord(seen[static_cast<size_t>(t)]);
      want.user = "thread-" + std::to_string(t);
      return want;
    }());
    ++seen[static_cast<size_t>(t)];
  }
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0);
  return static_cast<uint64_t>(st.st_size);
}

// A frame torn mid-write must be cut off the file before the next frame
// is appended, or recovery would stop at the torn bytes and drop every
// later record. The file-size limit makes the kernel accept only part of
// the frame's write() (then fail it with EFBIG): a real short write, with
// no fault-injection layer.
TEST(IngestLogTest, TornWriteIsTruncatedAndAcknowledgedRecordsSurvive) {
  const std::string path = TempPath("ingest_torn_write.log");
  std::remove(path.c_str());
  obs::Counter& errors =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_errors_total");
  const uint64_t errors_before = errors.Value();
  std::vector<IngestRecord> acknowledged;
  {
    IngestLogOptions options;
    options.batch_records = 4;
    options.fsync_batches = 1;
    Result<std::unique_ptr<IngestLogWriter>> writer =
        IngestLogWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    IngestLogWriter& log = *writer.value();
    int n = 0;
    for (; n < 8; ++n) {  // two whole frames
      ASSERT_TRUE(log.Append(MakeRecord(n)).ok());
      acknowledged.push_back(MakeRecord(n));
    }
    const uint64_t good_bytes = FileSize(path);

    rlimit saved;
    ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
    const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
    rlimit lowered = saved;
    lowered.rlim_cur = good_bytes + 20;  // the next frame is ~136 bytes
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
    for (; n < 11; ++n) {  // buffered, not yet written: accepted
      ASSERT_TRUE(log.Append(MakeRecord(n)).ok());
      acknowledged.push_back(MakeRecord(n));
    }
    const Status torn = log.Append(MakeRecord(n));  // fills the batch
    ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
    std::signal(SIGXFSZ, old_handler);

    EXPECT_FALSE(torn.ok());
    EXPECT_EQ(FileSize(path), good_bytes) << "torn frame left in the file";
    EXPECT_EQ(errors.Value(), errors_before + 1);
    EXPECT_TRUE(log.status().ok()) << "a cut-back tear is not sticky";

    // The refused record is retried; the writer carries on.
    for (; n < 16; ++n) {
      ASSERT_TRUE(log.Append(MakeRecord(n)).ok()) << n;
      acknowledged.push_back(MakeRecord(n));
    }
    ASSERT_TRUE(log.Sync().ok());
    EXPECT_EQ(log.appended(), acknowledged.size());
  }
  ASSERT_TRUE(RecoverIngestLog(path).ok());
  IngestScan scan;
  const std::vector<IngestRecord> replayed = ReplayAll(path, &scan);
  EXPECT_EQ(scan.valid_bytes, FileSize(path));
  ASSERT_EQ(replayed.size(), acknowledged.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    ExpectSameRecord(replayed[i], acknowledged[i]);
  }
}

// A write that fails and cannot be cut back off the file is sticky:
// /dev/full refuses every write (ENOSPC) and every ftruncate (EINVAL), a
// real device with no injection layer. From then on status() and every
// Append, Flush and Sync report the same error.
TEST(IngestLogTest, FailedTruncateIsStickyAndReported) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "no /dev/full";
  obs::Counter& errors =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_errors_total");
  const uint64_t errors_before = errors.Value();
  IngestLogOptions options;
  options.batch_records = 1;
  Result<std::unique_ptr<IngestLogWriter>> writer =
      IngestLogWriter::Open("/dev/full", options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  IngestLogWriter& log = *writer.value();
  ASSERT_TRUE(log.status().ok());

  const Status failed = log.Append(MakeRecord(0));
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.code(), StatusCode::kIoError);
  EXPECT_NE(failed.message().find("truncate"), std::string::npos)
      << failed.ToString();
  EXPECT_EQ(errors.Value(), errors_before + 1);
  EXPECT_EQ(log.status().ToString(), failed.ToString());
  EXPECT_EQ(log.Append(MakeRecord(1)).ToString(), failed.ToString());
  EXPECT_EQ(log.Flush().ToString(), failed.ToString());
  EXPECT_EQ(log.Sync().ToString(), failed.ToString());
  EXPECT_EQ(log.appended(), 0u);
  EXPECT_EQ(errors.Value(), errors_before + 1) << "counted once, when it hit";
}

}  // namespace
}  // namespace store
}  // namespace upskill
