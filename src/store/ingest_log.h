#ifndef UPSKILL_STORE_INGEST_LOG_H_
#define UPSKILL_STORE_INGEST_LOG_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/durable_file.h"
#include "common/status.h"
#include "data/dataset.h"

namespace upskill {
namespace store {

/// One observed action, as appended by serve sessions. Users are keyed by
/// name (the serving identity); compaction resolves names to ids against
/// the base store, appending first-seen names as new users.
struct IngestRecord {
  std::string user;
  int64_t time = 0;
  ItemId item = -1;
  double rating = std::numeric_limits<double>::quiet_NaN();
};

struct IngestLogOptions {
  /// Records buffered before a batch frame is written to the file. A
  /// frame is all-or-nothing on recovery, so larger batches trade write
  /// amplification against the amount of recent data a crash can lose.
  size_t batch_records = 64;
  /// fsync after every N batch frames (1 = every frame). This is the
  /// durability bound: at most `batch_records * fsync_batches` appended
  /// records can be lost to a power failure.
  size_t fsync_batches = 8;
};

/// Append-only crash-safe log of observed actions. Thread-safe: serve
/// worker threads append concurrently; frames are assembled under a mutex
/// and written with a single write() each, so a crash can only ever tear
/// the final frame — which recovery detects (length/CRC) and truncates.
/// A write that fails partway (ENOSPC, EFBIG) is truncated away at once,
/// so later frames never land behind a torn one; write, truncate and
/// fsync failures count in upskill_ingest_errors_total.
///
/// Frame layout (little-endian):
///   [u32 'UPSB'][u32 payload_bytes][u32 record_count][u32 crc32(payload)]
///   [payload: per record u32 name_len + name + i64 time + i32 item +
///             f64 rating]
class IngestLogWriter {
 public:
  /// Opens `path` for appending, first running RecoverIngestLog so a
  /// torn tail from a previous crash never gets appended after.
  static Result<std::unique_ptr<IngestLogWriter>> Open(
      const std::string& path, const IngestLogOptions& options = {});

  ~IngestLogWriter();
  IngestLogWriter(const IngestLogWriter&) = delete;
  IngestLogWriter& operator=(const IngestLogWriter&) = delete;

  /// Buffers one record; writes a frame when the batch fills. OK means
  /// the record is accepted: it reaches the file, in order, unless the
  /// writer later fails for good. On an error the record is refused and
  /// the records accepted before it stay buffered for the next flush.
  Status Append(const IngestRecord& record);

  /// Writes any buffered records as a (possibly short) frame.
  Status Flush();

  /// Flush + fsync: everything appended so far is durable on return.
  Status Sync();

  uint64_t appended() const;

  /// OK until the writer fails for good (see failed_ below), then that
  /// error: what every later Append, Flush and Sync returns. A write that
  /// was cut back off the file is retried, so it does not show here.
  Status status() const;

 private:
  IngestLogWriter(DurableFile file, const IngestLogOptions& options,
                  uint64_t good_bytes);

  // Writes the open batch as one frame. A failed write is cut back off
  // the file (the batch stays buffered); if the cut fails, the writer
  // fails for good.
  Status FlushLocked();
  // fsync; a failure is sticky (see failed_).
  Status SyncLocked();

  const IngestLogOptions options_;
  mutable std::mutex mutex_;
  DurableFile file_;
  uint64_t good_bytes_;  // file length after the last complete frame
  // Non-OK once the file can no longer be trusted (a failed fsync, or a
  // torn frame that could not be truncated away); every later Append,
  // Flush and Sync reports it.
  Status failed_;
  std::string frame_;  // serialized records of the open batch
  uint32_t frame_records_ = 0;
  size_t unsynced_batches_ = 0;
  uint64_t appended_ = 0;
};

/// Result of scanning a log: the byte length of the longest valid prefix
/// and what it contains.
struct IngestScan {
  uint64_t valid_bytes = 0;
  uint64_t num_batches = 0;
  uint64_t num_records = 0;
};

/// Streams every record of the longest valid frame prefix to `fn`,
/// stopping cleanly at a torn or corrupt tail (that is the crash-recovery
/// semantic, not an error). A missing file is an empty log. `fn` may
/// return a non-OK status to abort the replay.
Result<IngestScan> ReplayIngestLog(
    const std::string& path,
    const std::function<Status(const IngestRecord&)>& fn);

struct IngestRecovery {
  IngestScan scan;
  uint64_t truncated_bytes = 0;  // torn-tail bytes dropped
};

/// Truncates `path` to its longest valid prefix. Idempotent; a missing
/// file recovers to an empty log.
Result<IngestRecovery> RecoverIngestLog(const std::string& path);

}  // namespace store
}  // namespace upskill

#endif  // UPSKILL_STORE_INGEST_LOG_H_
