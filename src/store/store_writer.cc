#include "store/store_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/string_util.h"
#include "data/schema_io.h"
#include "store/format.h"

namespace upskill {
namespace store {
namespace {

// Best-effort fsync of the directory containing `path`, so the rename
// that publishes a finished store survives a crash.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd >= 0) {
    (void)::fsync(fd);
    ::close(fd);
  }
}

}  // namespace

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path) {
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError(StringPrintf("open %s: %s", tmp_path.c_str(),
                                        std::strerror(errno)));
  }
  // The writer stages whole blocks itself; stdio buffering would only
  // copy each block once more on its way to write().
  (void)std::setvbuf(file, nullptr, _IONBF, 0);
  std::unique_ptr<StoreWriter> writer(
      new StoreWriter(file, path, tmp_path));
  // Reserve the prologue (header + directory); both are rewritten with
  // real contents by Finish(). The action segment streams right after.
  const std::string zeros(kFirstSegmentOffset, '\0');
  UPSKILL_RETURN_IF_ERROR(writer->WriteRaw(zeros.data(), zeros.size()));
  writer->BeginSegment();
  return writer;
}

StoreWriter::StoreWriter(std::FILE* file, std::string path,
                         std::string tmp_path)
    : file_(file),
      path_(std::move(path)),
      tmp_path_(std::move(tmp_path)),
      block_(std::make_unique_for_overwrite<char[]>(kBlockBytes)) {}

StoreWriter::~StoreWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  if (!finished_) {
    // Never leave a half-written temp file behind.
    (void)std::remove(tmp_path_.c_str());
  }
}

Status StoreWriter::WriteRaw(const void* data, size_t size) {
  if (failed_) return Status::IoError("store writer already failed");
  const char* bytes = static_cast<const char*>(data);
  while (size > 0) {
    if (staged_ == kBlockBytes) UPSKILL_RETURN_IF_ERROR(FlushBlock());
    const size_t n = std::min(size, kBlockBytes - staged_);
    std::memcpy(block_.get() + staged_, bytes, n);
    staged_ += n;
    file_offset_ += n;
    bytes += n;
    size -= n;
  }
  return Status::OK();
}

void StoreWriter::HashStaged() {
  if (in_segment_) {
    segment_crc_.Update(block_.get() + hashed_, staged_ - hashed_);
  }
  hashed_ = staged_;
}

Status StoreWriter::FlushBlock() {
  HashStaged();
  if (std::fwrite(block_.get(), 1, staged_, file_) != staged_) {
    failed_ = true;
    return Status::IoError(
        StringPrintf("write %s: %s", tmp_path_.c_str(), std::strerror(errno)));
  }
  staged_ = 0;
  hashed_ = 0;
  return Status::OK();
}

void StoreWriter::BeginSegment() {
  HashStaged();  // bytes before the segment (padding) stay unhashed
  in_segment_ = true;
  segment_crc_ = Crc32Accumulator();
}

uint32_t StoreWriter::EndSegment() {
  HashStaged();
  in_segment_ = false;
  return segment_crc_.Finish();
}

Status StoreWriter::AlignSegment() {
  static const char kZeros[kSegmentAlignment] = {0};
  const size_t misalign = file_offset_ % kSegmentAlignment;
  if (misalign == 0) return Status::OK();
  return WriteRaw(kZeros, kSegmentAlignment - misalign);
}

Status StoreWriter::BeginUser(const std::string& name) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  user_names_.push_back(name);
  user_action_end_.push_back(num_actions_);
  last_time_ = std::numeric_limits<int64_t>::min();
  return Status::OK();
}

Status StoreWriter::Append(int64_t time, ItemId item, double rating) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (user_action_end_.empty()) {
    return Status::FailedPrecondition("Append before BeginUser");
  }
  if (item < 0) {
    return Status::OutOfRange(StringPrintf("item %d", item));
  }
  if (time < last_time_) {
    return Status::FailedPrecondition(StringPrintf(
        "action at time %lld precedes the sequence tail at %lld",
        static_cast<long long>(time), static_cast<long long>(last_time_)));
  }
  last_time_ = time;
  if (item > max_item_) max_item_ = item;

  // On-disk record == in-memory Action (format.h static_asserts), with
  // the padding bytes explicitly zeroed so file bytes are deterministic.
  char record[sizeof(Action)] = {0};
  std::memcpy(record + offsetof(Action, time), &time, sizeof(time));
  std::memcpy(record + offsetof(Action, item), &item, sizeof(item));
  std::memcpy(record + offsetof(Action, rating), &rating, sizeof(rating));
  UPSKILL_RETURN_IF_ERROR(WriteRaw(record, sizeof(record)));
  ++num_actions_;
  user_action_end_.back() = num_actions_;
  return Status::OK();
}

Status StoreWriter::Finish(const ItemTable& items) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (failed_) return Status::IoError("store writer already failed");
  if (max_item_ >= items.num_items()) {
    return Status::OutOfRange(StringPrintf("item %d out of range for %d items",
                                           max_item_, items.num_items()));
  }

  std::vector<SegmentEntry> directory;
  directory.reserve(kNumSegments);
  // The action segment has been streaming since Create().
  directory.push_back(SegmentEntry{
      static_cast<uint32_t>(SegmentKind::kActions), 0, kFirstSegmentOffset,
      num_actions_ * sizeof(Action), EndSegment(), 0});

  // Writes one trailing segment: `body()` stages the payload, and the
  // staged bytes are hashed into the segment's CRC.
  const auto write_segment = [&](SegmentKind kind,
                                 auto&& body) -> Status {
    UPSKILL_RETURN_IF_ERROR(AlignSegment());
    const uint64_t offset = file_offset_;
    BeginSegment();
    UPSKILL_RETURN_IF_ERROR(body());
    directory.push_back(SegmentEntry{static_cast<uint32_t>(kind), 0, offset,
                                     file_offset_ - offset, EndSegment(), 0});
    return Status::OK();
  };

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kUserOffsets, [&] {
    const uint64_t zero = 0;
    UPSKILL_RETURN_IF_ERROR(WriteRaw(&zero, sizeof(zero)));
    for (const uint64_t end : user_action_end_) {
      UPSKILL_RETURN_IF_ERROR(WriteRaw(&end, sizeof(end)));
    }
    return Status::OK();
  }));

  const auto emit_string = [&](const std::string& s) -> Status {
    const uint32_t size = static_cast<uint32_t>(s.size());
    UPSKILL_RETURN_IF_ERROR(WriteRaw(&size, sizeof(size)));
    return WriteRaw(s.data(), s.size());
  };

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kUserNames, [&] {
    for (const std::string& name : user_names_) {
      UPSKILL_RETURN_IF_ERROR(emit_string(name));
    }
    return Status::OK();
  }));

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kSchema, [&] {
    ByteWriter bytes;
    SerializeSchema(items.schema(), &bytes);
    return WriteRaw(bytes.buffer().data(), bytes.buffer().size());
  }));

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kItemColumns, [&] {
    for (int f = 0; f < items.schema().num_features(); ++f) {
      const std::span<const double> column = items.column(f);
      UPSKILL_RETURN_IF_ERROR(
          WriteRaw(column.data(), column.size() * sizeof(double)));
    }
    return Status::OK();
  }));

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kItemNames, [&] {
    for (ItemId i = 0; i < items.num_items(); ++i) {
      UPSKILL_RETURN_IF_ERROR(emit_string(items.name(i)));
    }
    return Status::OK();
  }));

  UPSKILL_RETURN_IF_ERROR(write_segment(SegmentKind::kItemMetadata, [&] {
    const uint32_t count = static_cast<uint32_t>(items.metadata().size());
    UPSKILL_RETURN_IF_ERROR(WriteRaw(&count, sizeof(count)));
    for (const auto& [key, values] : items.metadata()) {
      UPSKILL_RETURN_IF_ERROR(emit_string(key));
      UPSKILL_RETURN_IF_ERROR(
          WriteRaw(values.data(), values.size() * sizeof(double)));
    }
    return Status::OK();
  }));

  // Rewrite the prologue with real contents.
  StoreHeader header = {};
  std::memcpy(header.magic, kStoreMagic, sizeof(header.magic));
  header.version = kStoreVersion;
  header.num_segments = kNumSegments;
  header.file_size = file_offset_;
  header.num_users = user_names_.size();
  header.num_actions = num_actions_;
  header.num_items = static_cast<uint32_t>(items.num_items());
  header.num_features = static_cast<uint32_t>(items.schema().num_features());
  Crc32Accumulator header_crc;
  header_crc.Update(&header, sizeof(header));
  header_crc.Update(directory.data(),
                    directory.size() * sizeof(SegmentEntry));
  header.header_crc = header_crc.Finish();

  UPSKILL_RETURN_IF_ERROR(FlushBlock());
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    failed_ = true;
    return Status::IoError(StringPrintf("seek %s: %s", tmp_path_.c_str(),
                                        std::strerror(errno)));
  }
  file_offset_ = 0;
  UPSKILL_RETURN_IF_ERROR(WriteRaw(&header, sizeof(header)));
  UPSKILL_RETURN_IF_ERROR(
      WriteRaw(directory.data(), directory.size() * sizeof(SegmentEntry)));
  UPSKILL_RETURN_IF_ERROR(FlushBlock());

  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0 ||
      std::fclose(file_) != 0) {
    file_ = nullptr;
    failed_ = true;
    return Status::IoError(StringPrintf("flush %s: %s", tmp_path_.c_str(),
                                        std::strerror(errno)));
  }
  file_ = nullptr;
  if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    failed_ = true;
    return Status::IoError(StringPrintf("rename %s -> %s: %s",
                                        tmp_path_.c_str(), path_.c_str(),
                                        std::strerror(errno)));
  }
  SyncParentDirectory(path_);
  finished_ = true;
  return Status::OK();
}

Status PackDataset(const Dataset& dataset, const std::string& path) {
  Result<std::unique_ptr<StoreWriter>> writer = StoreWriter::Create(path);
  if (!writer.ok()) return writer.status();
  StoreWriter& out = *writer.value();
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    UPSKILL_RETURN_IF_ERROR(out.BeginUser(dataset.user_name(u)));
    for (const Action& action : dataset.sequence(u)) {
      UPSKILL_RETURN_IF_ERROR(out.Append(action.time, action.item,
                                         action.rating));
    }
  }
  return out.Finish(dataset.items());
}

}  // namespace store
}  // namespace upskill
