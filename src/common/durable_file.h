#ifndef UPSKILL_COMMON_DURABLE_FILE_H_
#define UPSKILL_COMMON_DURABLE_FILE_H_

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace upskill {

/// The syscalls through which every DurableFile is opened, written,
/// synced, truncated, renamed and closed. Defaults to libc.
struct FileSyscalls {
  int (*open)(const char* path, int flags, mode_t mode);
  ssize_t (*write)(int fd, const void* data, size_t size);
  ssize_t (*pwrite)(int fd, const void* data, size_t size, off_t offset);
  int (*fsync)(int fd);
  int (*ftruncate)(int fd, off_t size);
  int (*rename)(const char* from, const char* to);
  int (*close)(int fd);
};

/// Routes every DurableFile call through `table` (nullptr restores libc).
/// A test seam for failing any one syscall; nothing else replaces it.
/// Call it while no other thread uses a DurableFile.
void SetFileSyscallsForTest(const FileSyscalls* table);

/// The one way this system writes the files it persists (snapshots,
/// stores, checkpoints, the ingest log). Every failure is an IoError
/// naming the call, the path and errno.
///
/// A replacement writes `path + ".tmp"`, and Commit() publishes it: fsync
/// the file, close it, rename it over `path`, fsync the parent directory.
/// Until the rename the target is untouched, and a replacement destroyed
/// before Commit() removes its temp file, so a failed save leaves the
/// previous file intact.
class DurableFile {
 public:
  /// Opens `path` for appending, creating it with mode 0644.
  static Result<DurableFile> OpenAppend(const std::string& path);
  /// Starts replacing `path`. A `path` that exists and is not a regular
  /// file (after following links) is refused with InvalidArgument before
  /// anything is touched.
  static Result<DurableFile> CreateReplacement(const std::string& path);

  DurableFile(DurableFile&& other) noexcept;
  ~DurableFile();

  /// Writes all of `bytes` at the file position, retrying EINTR and short
  /// writes.
  Status Write(std::string_view bytes) { return WriteAll(bytes, -1); }
  /// Writes all of `bytes` at `offset`, leaving the file position alone.
  Status WriteAt(uint64_t offset, std::string_view bytes) {
    return WriteAll(bytes, static_cast<int64_t>(offset));
  }
  Status Sync();
  Status Truncate(uint64_t size);
  /// Publishes a replacement (see above). The file is closed afterwards,
  /// whatever the result; an error after the rename leaves the new file
  /// in place.
  Status Commit();

 private:
  DurableFile(int fd, std::string path, std::string target);
  // Writes all of `bytes` at `offset`, or at the file position if it is
  // negative.
  Status WriteAll(std::string_view bytes, int64_t offset);

  int fd_;
  std::string path_;    // the open file; `target_ + ".tmp"` for a replacement
  std::string target_;  // what Commit() renames onto; empty once committed
};

/// Replaces `path` with `bytes`: CreateReplacement, Write, Commit.
Status ReplaceFile(const std::string& path, std::string_view bytes);

/// A file's bytes, as ReadFile returns them.
struct FileContents {
  std::unique_ptr<char[]> data;
  size_t size = 0;
  std::string_view view() const { return {data.get(), size}; }
};

/// Reads `path` whole. A regular file takes one sized read, and reading
/// back fewer bytes than its size is an IoError; a pipe or other stream
/// has no size and is read until end of file. A directory is an IoError.
Result<FileContents> ReadFile(const std::string& path);

}  // namespace upskill

#endif  // UPSKILL_COMMON_DURABLE_FILE_H_
