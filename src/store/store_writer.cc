#include "store/store_writer.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/string_util.h"
#include "data/schema_io.h"
#include "store/format.h"

namespace upskill {
namespace store {

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path) {
  Result<DurableFile> file = DurableFile::CreateReplacement(path);
  if (!file.ok()) return file.status();
  std::unique_ptr<StoreWriter> writer(
      new StoreWriter(std::move(file).value()));
  // Reserve the prologue (header + directory); both are rewritten with
  // real contents by Finish(). The action segment streams right after.
  const std::string zeros(kFirstSegmentOffset, '\0');
  UPSKILL_RETURN_IF_ERROR(writer->WriteRaw(zeros.data(), zeros.size()));
  writer->BeginSegment();
  return writer;
}

StoreWriter::StoreWriter(DurableFile file)
    : file_(std::move(file)),
      block_(std::make_unique_for_overwrite<char[]>(kBlockBytes)) {}

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
  const Status written = file_.Write(std::string_view(block_.get(), staged_));
  if (!written.ok()) {
    failed_ = true;
    return written;
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
  const Action action{time, item, rating};
  return AppendSequence(std::span<const Action>(&action, 1));
}

Status StoreWriter::AppendSequence(std::span<const Action> actions) {
  if (finished_) return Status::FailedPrecondition("writer already finished");
  if (user_action_end_.empty()) {
    return Status::FailedPrecondition("Append before BeginUser");
  }
  // On-disk record == in-memory Action (format.h static_asserts), but the
  // records are encoded field by field into a zeroed chunk rather than
  // copied, so the padding bytes on disk are zero whatever the source
  // Actions hold there. A bad record ends the run: the records before it
  // are written, as separate Append calls would have written them.
  constexpr size_t kChunkRecords = 256;
  char chunk[kChunkRecords * sizeof(Action)];
  std::memset(chunk, 0,
              std::min(actions.size(), kChunkRecords) * sizeof(Action));
  for (size_t begin = 0; begin < actions.size(); begin += kChunkRecords) {
    const size_t count = std::min(kChunkRecords, actions.size() - begin);
    Status invalid;
    size_t encoded = 0;
    for (; encoded < count; ++encoded) {
      const Action& action = actions[begin + encoded];
      if (action.item < 0) {
        invalid = Status::OutOfRange(StringPrintf("item %d", action.item));
        break;
      }
      if (action.time < last_time_) {
        invalid = Status::FailedPrecondition(StringPrintf(
            "action at time %lld precedes the sequence tail at %lld",
            static_cast<long long>(action.time),
            static_cast<long long>(last_time_)));
        break;
      }
      last_time_ = action.time;
      max_item_ = std::max(max_item_, action.item);
      char* record = chunk + encoded * sizeof(Action);
      std::memcpy(record + offsetof(Action, time), &action.time,
                  sizeof(action.time));
      std::memcpy(record + offsetof(Action, item), &action.item,
                  sizeof(action.item));
      std::memcpy(record + offsetof(Action, rating), &action.rating,
                  sizeof(action.rating));
    }
    UPSKILL_RETURN_IF_ERROR(WriteRaw(chunk, encoded * sizeof(Action)));
    num_actions_ += encoded;
    user_action_end_.back() = num_actions_;
    UPSKILL_RETURN_IF_ERROR(invalid);
  }
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
  std::string prologue(reinterpret_cast<const char*>(&header), sizeof(header));
  prologue.append(reinterpret_cast<const char*>(directory.data()),
                  directory.size() * sizeof(SegmentEntry));
  Status status = file_.WriteAt(0, prologue);
  if (status.ok()) status = file_.Commit();
  failed_ = !status.ok();
  finished_ = status.ok();
  return status;
}

Status PackDataset(const Dataset& dataset, const std::string& path) {
  Result<std::unique_ptr<StoreWriter>> writer = StoreWriter::Create(path);
  if (!writer.ok()) return writer.status();
  StoreWriter& out = *writer.value();
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    UPSKILL_RETURN_IF_ERROR(out.BeginUser(dataset.user_name(u)));
    UPSKILL_RETURN_IF_ERROR(out.AppendSequence(dataset.sequence(u)));
  }
  return out.Finish(dataset.items());
}

}  // namespace store
}  // namespace upskill
