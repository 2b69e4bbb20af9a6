#include "store/ingest_log.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/string_util.h"
#include "obs/metrics.h"

namespace upskill {
namespace store {
namespace {

constexpr uint32_t kFrameMagic = 0x42535055u;  // "UPSB" little-endian
constexpr size_t kFrameHeaderBytes = 16;
// A single observed action is tiny; anything bigger than this in the
// name-length field means we are reading garbage, not a record.
constexpr uint32_t kMaxUserNameBytes = 4096;
constexpr uint32_t kMaxFramePayloadBytes = 64u << 20;
// The smallest record: name length (4), a name of at least one byte,
// time (8), item (4), rating (8).
constexpr size_t kMinRecordBytes = 25;

obs::Counter& AppendCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_records_total");
  return counter;
}
obs::Counter& FrameCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_frames_total");
  return counter;
}
obs::Counter& FsyncCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_fsyncs_total");
  return counter;
}
obs::Counter& ErrorCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("upskill_ingest_errors_total");
  return counter;
}

}  // namespace

Result<std::unique_ptr<IngestLogWriter>> IngestLogWriter::Open(
    const std::string& path, const IngestLogOptions& options) {
  // Never append after a torn tail: recover (truncate) first, so the
  // file is a valid frame sequence before the first new frame lands.
  Result<IngestRecovery> recovered = RecoverIngestLog(path);
  if (!recovered.ok()) return recovered.status();
  Result<DurableFile> file = DurableFile::OpenAppend(path);
  if (!file.ok()) return file.status();
  IngestLogOptions sane = options;
  if (sane.batch_records == 0) sane.batch_records = 1;
  if (sane.fsync_batches == 0) sane.fsync_batches = 1;
  // Recovery cut the file to exactly its valid frames.
  return std::unique_ptr<IngestLogWriter>(new IngestLogWriter(
      std::move(file).value(), sane, recovered.value().scan.valid_bytes));
}

IngestLogWriter::IngestLogWriter(DurableFile file,
                                 const IngestLogOptions& options,
                                 uint64_t good_bytes)
    : options_(options), file_(std::move(file)), good_bytes_(good_bytes) {}

IngestLogWriter::~IngestLogWriter() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (failed_.ok() && FlushLocked().ok()) (void)file_.Sync();
}

Status IngestLogWriter::Append(const IngestRecord& record) {
  if (record.user.empty() || record.user.size() > kMaxUserNameBytes) {
    return Status::InvalidArgument(
        StringPrintf("user name of %zu bytes", record.user.size()));
  }
  if (record.item < 0) {
    return Status::OutOfRange(StringPrintf("item %d", record.item));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  UPSKILL_RETURN_IF_ERROR(failed_);
  const size_t frame_bytes = frame_.size();
  const uint32_t name_len = static_cast<uint32_t>(record.user.size());
  frame_.append(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  frame_.append(record.user.data(), record.user.size());
  frame_.append(reinterpret_cast<const char*>(&record.time),
                sizeof(record.time));
  frame_.append(reinterpret_cast<const char*>(&record.item),
                sizeof(record.item));
  frame_.append(reinterpret_cast<const char*>(&record.rating),
                sizeof(record.rating));
  ++frame_records_;
  if (frame_records_ >= options_.batch_records) {
    const Status flushed = FlushLocked();
    if (!flushed.ok()) {
      // This record is refused; the ones acknowledged before it stay
      // buffered, in order, for the next flush to retry.
      frame_.resize(frame_bytes);
      --frame_records_;
      return flushed;
    }
  }
  ++appended_;
  AppendCounter().Increment();
  if (unsynced_batches_ >= options_.fsync_batches) return SyncLocked();
  return Status::OK();
}

Status IngestLogWriter::SyncLocked() {
  const Status synced = file_.Sync();
  if (!synced.ok()) {
    // After a failed fsync the kernel may have dropped the dirty pages
    // and cleared the error, so a retry could falsely succeed: the
    // failure is sticky.
    failed_ = synced;
    ErrorCounter().Increment();
    return failed_;
  }
  FsyncCounter().Increment();
  unsynced_batches_ = 0;
  return Status::OK();
}

Status IngestLogWriter::FlushLocked() {
  UPSKILL_RETURN_IF_ERROR(failed_);
  if (frame_records_ == 0) return Status::OK();
  // One contiguous write per frame: header then payload. O_APPEND makes
  // the write atomic with respect to other appenders of this process
  // (there is only this writer), and a crash mid-write tears at most
  // this frame, which recovery drops.
  std::string out;
  out.reserve(kFrameHeaderBytes + frame_.size());
  const uint32_t payload_bytes = static_cast<uint32_t>(frame_.size());
  const uint32_t crc = Crc32(frame_.data(), frame_.size());
  out.append(reinterpret_cast<const char*>(&kFrameMagic), 4);
  out.append(reinterpret_cast<const char*>(&payload_bytes), 4);
  out.append(reinterpret_cast<const char*>(&frame_records_), 4);
  out.append(reinterpret_cast<const char*>(&crc), 4);
  out.append(frame_);
  const Status written = file_.Write(out);
  if (!written.ok()) {
    // A partial write (ENOSPC, EFBIG) leaves a torn frame mid-file, and
    // the next good frame would land after it, where recovery never
    // looks. Cut the file back to the last good frame; the frame stays
    // buffered for the next flush. If the cut fails, the file can no
    // longer be appended to safely: fail for good.
    ErrorCounter().Increment();
    const Status cut = file_.Truncate(good_bytes_);
    if (!cut.ok()) {
      failed_ = Status::IoError(written.message() + "; " + cut.message());
      return failed_;
    }
    return written;
  }
  good_bytes_ += out.size();
  frame_.clear();
  frame_records_ = 0;
  ++unsynced_batches_;
  FrameCounter().Increment();
  return Status::OK();
}

Status IngestLogWriter::Flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  return FlushLocked();
}

Status IngestLogWriter::Sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  UPSKILL_RETURN_IF_ERROR(FlushLocked());
  return SyncLocked();
}

uint64_t IngestLogWriter::appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

Status IngestLogWriter::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

Result<IngestScan> ReplayIngestLog(
    const std::string& path,
    const std::function<Status(const IngestRecord&)>& fn) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return IngestScan{};  // missing == empty log
    return Status::IoError(
        StringPrintf("open %s: %s", path.c_str(), std::strerror(errno)));
  }
  IngestScan scan;
  std::string payload;
  IngestRecord record;
  for (;;) {
    // Read one frame; any shortfall or mismatch is a torn tail — stop at
    // the last intact frame, never partway into one.
    char header[kFrameHeaderBytes];
    if (std::fread(header, 1, sizeof(header), file) != sizeof(header)) break;
    uint32_t magic, payload_bytes, record_count, crc;
    std::memcpy(&magic, header, 4);
    std::memcpy(&payload_bytes, header + 4, 4);
    std::memcpy(&record_count, header + 8, 4);
    std::memcpy(&crc, header + 12, 4);
    if (magic != kFrameMagic || payload_bytes > kMaxFramePayloadBytes) break;
    payload.resize(payload_bytes);
    if (std::fread(payload.data(), 1, payload_bytes, file) != payload_bytes) {
      break;
    }
    if (Crc32(payload.data(), payload.size()) != crc) break;
    // The frame is intact; decode its records. A decode failure here
    // means a corrupt-but-CRC-valid frame — that is real corruption, not
    // a torn tail, but the recovery contract is the same: the log is the
    // prefix up to the last good frame.
    ByteReader in(payload.data(), payload.size());
    std::vector<IngestRecord> records;
    // The CRC covers the payload, not the header's count: never reserve
    // more records than the payload can hold, so a corrupt count fails to
    // decode below instead of sizing the allocation.
    records.reserve(
        std::min<size_t>(record_count, payload_bytes / kMinRecordBytes));
    bool frame_ok = true;
    for (uint32_t r = 0; r < record_count; ++r) {
      if (!in.Str(&record.user) || record.user.empty() ||
          record.user.size() > kMaxUserNameBytes || !in.I64(&record.time) ||
          !in.I32(&record.item) || !in.F64(&record.rating) ||
          record.item < 0) {
        frame_ok = false;
        break;
      }
      records.push_back(record);
    }
    if (!frame_ok || !in.exhausted()) break;
    for (const IngestRecord& r : records) {
      const Status status = fn(r);
      if (!status.ok()) {
        std::fclose(file);
        return status;
      }
    }
    scan.valid_bytes += kFrameHeaderBytes + payload_bytes;
    scan.num_batches += 1;
    scan.num_records += record_count;
  }
  std::fclose(file);
  return scan;
}

Result<IngestRecovery> RecoverIngestLog(const std::string& path) {
  Result<IngestScan> scan =
      ReplayIngestLog(path, [](const IngestRecord&) { return Status::OK(); });
  if (!scan.ok()) return scan.status();
  IngestRecovery recovery;
  recovery.scan = scan.value();

  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return recovery;  // nothing to truncate
    return Status::IoError(
        StringPrintf("stat %s: %s", path.c_str(), std::strerror(errno)));
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (size > recovery.scan.valid_bytes) {
    recovery.truncated_bytes = size - recovery.scan.valid_bytes;
    Result<DurableFile> file = DurableFile::OpenAppend(path);
    if (!file.ok()) return file.status();
    UPSKILL_RETURN_IF_ERROR(file.value().Truncate(recovery.scan.valid_bytes));
    obs::MetricsRegistry::Global()
        .GetCounter("upskill_ingest_truncated_bytes_total")
        .Increment(recovery.truncated_bytes);
  }
  return recovery;
}

}  // namespace store
}  // namespace upskill
