#ifndef UPSKILL_STORE_STORE_WRITER_H_
#define UPSKILL_STORE_STORE_WRITER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/status.h"
#include "data/dataset.h"

namespace upskill {
namespace store {

/// Streaming writer for the columnar store format (store/format.h).
/// Actions are appended user by user and flow straight to disk through a
/// fixed 1 MiB staging block the writer owns, so packing never needs the
/// dataset resident in RAM. Each full block is hashed into its segment's
/// CRC and written with one write(), instead of one per 24-byte record:
///
///   auto writer = StoreWriter::Create(path);
///   for each user:   writer->BeginUser(name);
///                    writer->Append(time, item, rating);  // chronological
///                    // or writer->AppendSequence(actions) for a run
///   writer->Finish(items);   // trailing segments + header, Commit()
///
/// The file is a DurableFile replacement of `path`: built at
/// `path + ".tmp"` and renamed into place by Finish(), so a failed or
/// crashed pack never leaves a half-written store where a reader could
/// find it, and a store already at `path` survives it.
class StoreWriter {
 public:
  static Result<std::unique_ptr<StoreWriter>> Create(const std::string& path);

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Starts the next user's sequence.
  Status BeginUser(const std::string& name);

  /// Appends an action to the current user. Times must be non-decreasing
  /// within a user; item range is validated against the table in Finish().
  Status Append(int64_t time, ItemId item,
                double rating = std::numeric_limits<double>::quiet_NaN());

  /// Appends a run of the current user's actions, validated exactly as
  /// by Append (same checks, same statuses) and encoded in chunks with
  /// zeroed padding. This is the one record encoder: Append, PackDataset
  /// and CompactStore all go through it. On a bad record the records
  /// before it stay appended.
  Status AppendSequence(std::span<const Action> actions);

  /// Writes the remaining segments, directory, and header, then commits
  /// the replacement. The writer is unusable afterwards.
  Status Finish(const ItemTable& items);

  uint64_t num_users() const { return user_action_end_.size(); }
  uint64_t num_actions() const { return num_actions_; }

 private:
  explicit StoreWriter(DurableFile file);

  // Also the write() size. Smaller writes make the kernel cache the file
  // in smaller folios, and the store is read back through mmap: with
  // 64 KiB writes, faulting in a freshly written 160 MB file took ~1.5x
  // as long and random reads ~5% longer (ext4, Linux 6.18).
  static constexpr size_t kBlockBytes = size_t{1} << 20;

  // Stages bytes for the file, writing out each block as it fills.
  Status WriteRaw(const void* data, size_t size);
  Status AlignSegment();
  // Folds the staged bytes not yet hashed into the open segment's CRC.
  void HashStaged();
  // Hashes and writes out the staged block.
  Status FlushBlock();
  // Starts a segment: later staged bytes are hashed into a fresh CRC.
  void BeginSegment();
  // Ends the segment opened by BeginSegment() and returns its CRC.
  uint32_t EndSegment();

  DurableFile file_;
  bool finished_ = false;
  bool failed_ = false;

  std::unique_ptr<char[]> block_;
  size_t staged_ = 0;  // bytes of block_ in use
  size_t hashed_ = 0;  // prefix of those already folded into segment_crc_
  bool in_segment_ = false;
  Crc32Accumulator segment_crc_;

  uint64_t num_actions_ = 0;
  std::vector<uint64_t> user_action_end_;  // prefix sums, one per user
  std::vector<std::string> user_names_;
  int64_t last_time_ = 0;
  ItemId max_item_ = -1;
  uint64_t file_offset_ = 0;  // staged bytes included
};

/// Packs an in-RAM dataset into a store file at `path`.
Status PackDataset(const Dataset& dataset, const std::string& path);

}  // namespace store
}  // namespace upskill

#endif  // UPSKILL_STORE_STORE_WRITER_H_
