// Columnar store round trip and defensive header validation: pack an
// in-RAM dataset, map it back, and require the mapped view to be
// logically identical and zero-copy; then corrupt the file byte-by-byte
// and require each corruption class to be rejected with its distinct
// machine-parseable token.

#include "store/format.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace upskill {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Dataset MakeDataset(int num_users = 7, int num_items = 5) {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddCount("steps").ok());
  EXPECT_TRUE(schema.AddReal("duration").ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < num_items; ++i) {
    const double row[] = {static_cast<double>(i % 3),
                          0.5 + static_cast<double>(i)};
    EXPECT_TRUE(items.AddItem(row, "item-" + std::to_string(i)).ok());
  }
  std::vector<double> release(static_cast<size_t>(num_items));
  for (int i = 0; i < num_items; ++i) release[static_cast<size_t>(i)] = 10.0 * i;
  EXPECT_TRUE(items.SetMetadata("release_time", std::move(release)).ok());
  Dataset dataset(std::move(items));
  for (int u = 0; u < num_users; ++u) {
    const UserId user = dataset.AddUser("user-" + std::to_string(u));
    for (int n = 0; n < u; ++n) {  // user u has u actions; user 0 has none
      const double rating = (n % 2 == 0) ? static_cast<double>(n) / 2.0
                                         : std::numeric_limits<double>::quiet_NaN();
      EXPECT_TRUE(
          dataset.AddAction(user, 100 * u + n, static_cast<ItemId>(n % num_items),
                            rating)
              .ok());
    }
  }
  return dataset;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(StoreFormatTest, PackMapRoundTripIsLogicallyIdentical) {
  const Dataset dataset = MakeDataset();
  const std::string path = TempPath("roundtrip.store");
  ASSERT_TRUE(PackDataset(dataset, path).ok());

  Result<StoreReader> reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().header().num_users,
            static_cast<uint64_t>(dataset.num_users()));
  EXPECT_EQ(reader.value().header().num_actions, dataset.num_actions());

  Result<Dataset> mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Dataset& loaded = mapped.value();
  EXPECT_TRUE(loaded.mapped());
  ASSERT_EQ(loaded.num_users(), dataset.num_users());
  EXPECT_EQ(loaded.num_actions(), dataset.num_actions());
  ASSERT_EQ(loaded.items().num_items(), dataset.items().num_items());
  EXPECT_EQ(loaded.schema().num_features(), dataset.schema().num_features());
  for (ItemId i = 0; i < dataset.items().num_items(); ++i) {
    EXPECT_EQ(loaded.items().name(i), dataset.items().name(i));
    for (int f = 0; f < dataset.schema().num_features(); ++f) {
      EXPECT_EQ(loaded.items().value(i, f), dataset.items().value(i, f)) << i;
    }
  }
  ASSERT_TRUE(loaded.items().HasMetadata("release_time"));
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    EXPECT_EQ(loaded.user_name(u), dataset.user_name(u));
    const std::span<const Action> got = loaded.sequence(u);
    const std::span<const Action> want = dataset.sequence(u);
    ASSERT_EQ(got.size(), want.size()) << u;
    for (size_t n = 0; n < want.size(); ++n) {
      EXPECT_EQ(got[n].time, want[n].time);
      EXPECT_EQ(got[n].item, want[n].item);
      // Bitwise, so NaN ratings compare equal too.
      EXPECT_EQ(std::memcmp(&got[n].rating, &want[n].rating, sizeof(double)),
                0);
    }
  }

  // Zero-copy: sequences alias the mapping, not fresh allocations.
  const std::span<const uint8_t> file_bytes = reader.value().file()->bytes();
  for (UserId u = 0; u < loaded.num_users(); ++u) {
    if (loaded.sequence(u).empty()) continue;
    const uint8_t* p =
        reinterpret_cast<const uint8_t*>(loaded.sequence(u).data());
    EXPECT_GE(p, file_bytes.data());
    EXPECT_LT(p, file_bytes.data() + file_bytes.size());
  }

  // Mapped datasets reject mutation.
  Dataset& mutable_loaded = mapped.value();
  EXPECT_EQ(mutable_loaded.AddAction(0, 1, 0).code(),
            StatusCode::kFailedPrecondition);
}

TEST(StoreFormatTest, PackIsDeterministic) {
  const std::string a = TempPath("det_a.store");
  const std::string b = TempPath("det_b.store");
  ASSERT_TRUE(PackDataset(MakeDataset(), a).ok());
  ASSERT_TRUE(PackDataset(MakeDataset(), b).ok());
  EXPECT_EQ(ReadFile(a), ReadFile(b));
}

// The writer stages its output in 1 MiB blocks and hashes each block into
// the open segment's CRC. ~180k actions (~4.3 MB) put 24-byte records
// across several block boundaries; the verified open recomputes every
// segment CRC from the mapped file, independently of how the writer
// staged it.
TEST(StoreFormatTest, PackSpanningSeveralStagingBlocksRoundTrips) {
  const Dataset dataset = MakeDataset(/*num_users=*/600, /*num_items=*/5000);
  const std::string path = TempPath("many_blocks.store");
  ASSERT_TRUE(PackDataset(dataset, path).ok());
  ASSERT_GT(ReadFile(path).size(), size_t{4} << 20);

  Result<StoreReader> reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Result<Dataset> mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const Dataset& loaded = mapped.value();
  ASSERT_EQ(loaded.num_users(), dataset.num_users());
  ASSERT_EQ(loaded.num_actions(), dataset.num_actions());
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    ASSERT_EQ(loaded.user_name(u), dataset.user_name(u));
    const std::span<const Action> got = loaded.sequence(u);
    const std::span<const Action> want = dataset.sequence(u);
    ASSERT_EQ(got.size(), want.size()) << u;
    for (size_t n = 0; n < want.size(); ++n) {
      ASSERT_EQ(got[n].time, want[n].time);
      ASSERT_EQ(got[n].item, want[n].item);
    }
  }
  for (ItemId i = 0; i < dataset.items().num_items(); ++i) {
    ASSERT_EQ(loaded.items().name(i), dataset.items().name(i));
    ASSERT_EQ(loaded.items().value(i, 1), dataset.items().value(i, 1));
  }
}

TEST(StoreFormatTest, EmptyDatasetRoundTrips) {
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("steps").ok());
  Dataset dataset((ItemTable(std::move(schema))));
  const std::string path = TempPath("empty.store");
  ASSERT_TRUE(PackDataset(dataset, path).ok());
  Result<StoreReader> reader = StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  Result<Dataset> mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped.value().num_users(), 0);
  EXPECT_EQ(mapped.value().num_actions(), 0u);
}

TEST(StoreFormatTest, WriterRejectsBadSequences) {
  const std::string path = TempPath("writer_errors.store");
  Result<std::unique_ptr<StoreWriter>> writer = StoreWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  StoreWriter& out = *writer.value();
  EXPECT_EQ(out.Append(1, 0).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(out.BeginUser("u").ok());
  ASSERT_TRUE(out.Append(5, 2).ok());
  EXPECT_EQ(out.Append(4, 0).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(out.Append(6, -1).code(), StatusCode::kOutOfRange);
  // Item 2 was referenced but the table only holds 1 item.
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  const double row[] = {1.0};
  ASSERT_TRUE(items.AddItem(row).ok());
  EXPECT_EQ(out.Finish(items).code(), StatusCode::kOutOfRange);
}

// AppendSequence is the one record encoder; its checks must answer
// exactly as a run of Append calls would, including where the run stops.
TEST(StoreFormatTest, AppendSequenceRejectsLikeAppend) {
  const std::vector<std::vector<Action>> bad_runs = {
      {{5, 2, 1.0}, {4, 0, 1.0}},            // decreasing time
      {{5, 2, 1.0}, {6, -1, 1.0}},           // negative item
      {{5, -3, 1.0}},                        // negative item first
  };
  for (size_t r = 0; r < bad_runs.size(); ++r) {
    const std::string run_path = TempPath("append_run.store");
    const std::string one_path = TempPath("append_one.store");
    Result<std::unique_ptr<StoreWriter>> run = StoreWriter::Create(run_path);
    Result<std::unique_ptr<StoreWriter>> one = StoreWriter::Create(one_path);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(run.value()->BeginUser("u").ok());
    ASSERT_TRUE(one.value()->BeginUser("u").ok());
    const Status run_status = run.value()->AppendSequence(bad_runs[r]);
    Status one_status;
    for (const Action& a : bad_runs[r]) {
      one_status = one.value()->Append(a.time, a.item, a.rating);
      if (!one_status.ok()) break;
    }
    EXPECT_FALSE(run_status.ok()) << r;
    EXPECT_EQ(run_status.code(), one_status.code()) << r;
    EXPECT_EQ(run_status.ToString(), one_status.ToString()) << r;
    EXPECT_EQ(run.value()->num_actions(), one.value()->num_actions()) << r;
  }
  const std::string path = TempPath("append_before_user.store");
  Result<std::unique_ptr<StoreWriter>> writer = StoreWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  const std::vector<Action> one_action = {{1, 0, 1.0}};
  EXPECT_EQ(writer.value()->AppendSequence(one_action).code(),
            StatusCode::kFailedPrecondition);
}

// The source Actions' padding bytes never reach the file: a run whose
// padding is garbage packs to the same bytes as Append of the same
// fields, and the padding on disk is zero.
TEST(StoreFormatTest, AppendSequenceWritesZeroPadding) {
  constexpr size_t kCount = 700;  // several encode chunks
  std::vector<Action> actions(kCount);
  std::memset(static_cast<void*>(actions.data()), 0xAB,
              actions.size() * sizeof(Action));
  for (size_t n = 0; n < kCount; ++n) {
    actions[n].time = static_cast<int64_t>(n / 3);
    actions[n].item = static_cast<ItemId>(n % 5);
    actions[n].rating = static_cast<double>(n) * 0.5;
  }
  FeatureSchema schema;
  ASSERT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < 5; ++i) {
    const double row[] = {static_cast<double>(i)};
    ASSERT_TRUE(items.AddItem(row).ok());
  }

  const std::string run_path = TempPath("padding_run.store");
  const std::string one_path = TempPath("padding_one.store");
  {
    Result<std::unique_ptr<StoreWriter>> run = StoreWriter::Create(run_path);
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(run.value()->BeginUser("u").ok());
    ASSERT_TRUE(run.value()->AppendSequence(actions).ok());
    ASSERT_TRUE(run.value()->Finish(items).ok());
    Result<std::unique_ptr<StoreWriter>> one = StoreWriter::Create(one_path);
    ASSERT_TRUE(one.ok());
    ASSERT_TRUE(one.value()->BeginUser("u").ok());
    for (const Action& a : actions) {
      ASSERT_TRUE(one.value()->Append(a.time, a.item, a.rating).ok());
    }
    ASSERT_TRUE(one.value()->Finish(items).ok());
  }
  const std::string bytes = ReadFile(run_path);
  EXPECT_EQ(bytes, ReadFile(one_path));
  constexpr size_t kPadBegin = offsetof(Action, item) + sizeof(ItemId);
  for (size_t n = 0; n < kCount; ++n) {
    const size_t record = kFirstSegmentOffset + n * sizeof(Action);
    for (size_t b = kPadBegin; b < offsetof(Action, rating); ++b) {
      ASSERT_EQ(bytes[record + b], '\0') << "record " << n << " byte " << b;
    }
  }
}

TEST(StoreFormatTest, AbandonedWriterLeavesNoFile) {
  const std::string path = TempPath("abandoned.store");
  {
    Result<std::unique_ptr<StoreWriter>> writer = StoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->BeginUser("u").ok());
    ASSERT_TRUE(writer.value()->Append(1, 0).ok());
    // Destroyed without Finish(): the temp file must be cleaned up.
  }
  std::ifstream store(path);
  EXPECT_FALSE(store.good());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
}

// Packing renames a new file into place, which would swap a FIFO or a
// device node at the path for a regular file: it is refused instead.
TEST(StoreFormatTest, PackRefusesAFifo) {
  const std::string fifo = TempPath("pack.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  const Status packed = PackDataset(MakeDataset(), fifo);
  const bool still_fifo = std::filesystem::is_fifo(fifo);
  std::remove(fifo.c_str());
  EXPECT_EQ(packed.code(), StatusCode::kInvalidArgument) << packed.ToString();
  EXPECT_TRUE(still_fifo);
}

// --- Defensive validation: each corruption class has its own token. ---

class StoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.store");
    ASSERT_TRUE(PackDataset(MakeDataset(), path_).ok());
    bytes_ = ReadFile(path_);
    ASSERT_GE(bytes_.size(), kFirstSegmentOffset);
  }

  // Writes `bytes` to the store path and returns Open()'s status.
  Status OpenStatus(const std::string& bytes) {
    WriteFile(path_, bytes);
    Result<StoreReader> reader = StoreReader::Open(path_);
    return reader.ok() ? Status::OK() : reader.status();
  }

  static void ExpectToken(const Status& status, StoreError error) {
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
    const std::string token = StoreErrorToken(error);
    EXPECT_EQ(status.message().substr(0, token.size()), token)
        << status.ToString();
  }

  std::string path_;
  std::string bytes_;
};

TEST_F(StoreCorruptionTest, TruncatedBelowHeader) {
  ExpectToken(OpenStatus(bytes_.substr(0, sizeof(StoreHeader) - 1)),
              StoreError::kTruncated);
}

TEST_F(StoreCorruptionTest, TruncatedBody) {
  ExpectToken(OpenStatus(bytes_.substr(0, bytes_.size() - 1)),
              StoreError::kTruncated);
}

TEST_F(StoreCorruptionTest, TrailingGarbage) {
  ExpectToken(OpenStatus(bytes_ + "extra"), StoreError::kBadShape);
}

TEST_F(StoreCorruptionTest, BadMagic) {
  std::string bytes = bytes_;
  bytes[0] ^= 0x5a;
  ExpectToken(OpenStatus(bytes), StoreError::kBadMagic);
}

TEST_F(StoreCorruptionTest, UnknownVersion) {
  std::string bytes = bytes_;
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.version = kStoreVersion + 1;
  // Re-seal the prologue CRC so only the version is at fault.
  header.header_crc = 0;
  Crc32Accumulator crc;
  crc.Update(&header, sizeof(header));
  crc.Update(bytes.data() + kDirectoryOffset,
             kNumSegments * sizeof(SegmentEntry));
  header.header_crc = crc.Finish();
  std::memcpy(bytes.data(), &header, sizeof(header));
  ExpectToken(OpenStatus(bytes), StoreError::kBadVersion);
}

TEST_F(StoreCorruptionTest, HeaderBitFlip) {
  std::string bytes = bytes_;
  bytes[offsetof(StoreHeader, num_users)] ^= 1;
  ExpectToken(OpenStatus(bytes), StoreError::kHeaderCrc);
}

TEST_F(StoreCorruptionTest, DirectoryBitFlip) {
  std::string bytes = bytes_;
  bytes[kDirectoryOffset + offsetof(SegmentEntry, offset)] ^= 1;
  ExpectToken(OpenStatus(bytes), StoreError::kHeaderCrc);
}

TEST_F(StoreCorruptionTest, SegmentOutOfBounds) {
  // Point the first segment past the end of the file, re-sealing the
  // prologue CRC so the bounds check itself must catch it.
  std::string bytes = bytes_;
  SegmentEntry entry;
  std::memcpy(&entry, bytes.data() + kDirectoryOffset, sizeof(entry));
  entry.offset = bytes.size();
  entry.length = 64;
  std::memcpy(bytes.data() + kDirectoryOffset, &entry, sizeof(entry));
  StoreHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  header.header_crc = 0;
  Crc32Accumulator crc;
  crc.Update(&header, sizeof(header));
  crc.Update(bytes.data() + kDirectoryOffset,
             kNumSegments * sizeof(SegmentEntry));
  header.header_crc = crc.Finish();
  std::memcpy(bytes.data(), &header, sizeof(header));
  ExpectToken(OpenStatus(bytes), StoreError::kSegmentBounds);
}

TEST_F(StoreCorruptionTest, SegmentPayloadBitFlip) {
  std::string bytes = bytes_;
  bytes[bytes.size() - 1] ^= 0x80;  // last segment's payload tail
  ExpectToken(OpenStatus(bytes), StoreError::kSegmentCrc);
}

TEST_F(StoreCorruptionTest, ActionPayloadBitFlip) {
  std::string bytes = bytes_;
  bytes[kFirstSegmentOffset + 3] ^= 0x10;
  ExpectToken(OpenStatus(bytes), StoreError::kSegmentCrc);
}

TEST_F(StoreCorruptionTest, NotAStoreFile) {
  ExpectToken(OpenStatus("definitely not a store"), StoreError::kTruncated);
}

TEST_F(StoreCorruptionTest, EveryTokenIsDistinct) {
  std::vector<std::string> tokens;
  for (const StoreError error :
       {StoreError::kTruncated, StoreError::kBadMagic, StoreError::kBadVersion,
        StoreError::kHeaderCrc, StoreError::kBadSegment,
        StoreError::kSegmentBounds, StoreError::kSegmentCrc,
        StoreError::kBadShape, StoreError::kBadValue}) {
    tokens.push_back(StoreErrorToken(error));
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    for (size_t j = i + 1; j < tokens.size(); ++j) {
      EXPECT_NE(tokens[i], tokens[j]);
    }
  }
}

TEST_F(StoreCorruptionTest, DescribeMentionsEverySegment) {
  Result<StoreReader> reader = StoreReader::Open(path_);
  ASSERT_TRUE(reader.ok());
  const std::string description = reader.value().Describe();
  for (uint32_t kind = 1; kind <= kNumSegments; ++kind) {
    EXPECT_NE(description.find(SegmentKindName(static_cast<SegmentKind>(kind))),
              std::string::npos)
        << description;
  }
}

}  // namespace
}  // namespace store
}  // namespace upskill
