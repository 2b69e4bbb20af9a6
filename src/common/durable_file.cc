#include "common/durable_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace upskill {
namespace {

int LibcOpen(const char* path, int flags, mode_t mode) {
  return ::open(path, flags, mode);
}

constexpr FileSyscalls kLibc = {LibcOpen,    ::write,  ::pwrite, ::fsync,
                                ::ftruncate, ::rename, ::close};
const FileSyscalls* g_syscalls = &kLibc;

Status Failed(const char* call, const std::string& path) {
  return Status::IoError(
      StringPrintf("%s %s: %s", call, path.c_str(), std::strerror(errno)));
}

// The directory whose entry for `path` a rename changes: "x" -> ".",
// "/x" -> "/", "a/b" -> "a".
std::string ParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return path.substr(0, slash == 0 ? 1 : slash);
}

Status SyncDirectory(const std::string& dir) {
  const int fd =
      g_syscalls->open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC, 0);
  if (fd < 0) return Failed("open", dir);
  Status status =
      g_syscalls->fsync(fd) == 0 ? Status::OK() : Failed("fsync", dir);
  if (g_syscalls->close(fd) != 0 && status.ok()) status = Failed("close", dir);
  return status;
}

}  // namespace

void SetFileSyscallsForTest(const FileSyscalls* table) {
  g_syscalls = table != nullptr ? table : &kLibc;
}

DurableFile::DurableFile(int fd, std::string path, std::string target)
    : fd_(fd), path_(std::move(path)), target_(std::move(target)) {}

DurableFile::DurableFile(DurableFile&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      target_(std::exchange(other.target_, {})) {}

DurableFile::~DurableFile() {
  if (fd_ >= 0) g_syscalls->close(fd_);
  // An uncommitted replacement: the target stays as it was.
  if (!target_.empty()) ::unlink(path_.c_str());
}

Result<DurableFile> DurableFile::OpenAppend(const std::string& path) {
  const int fd = g_syscalls->open(
      path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Failed("open", path);
  return DurableFile(fd, path, "");
}

Result<DurableFile> DurableFile::CreateReplacement(const std::string& path) {
  // The rename would swap a device node or FIFO for a regular file.
  struct stat st;
  if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    return Status::InvalidArgument(path + " exists and is not a regular file");
  }
  std::string temp = path + ".tmp";
  // Mode 0666 & ~umask, as fopen and ofstream create files.
  const int fd = g_syscalls->open(
      temp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0666);
  if (fd < 0) return Failed("open", temp);
  return DurableFile(fd, std::move(temp), path);
}

Status DurableFile::WriteAll(std::string_view bytes, int64_t offset) {
  while (!bytes.empty()) {
    const ssize_t n =
        offset < 0
            ? g_syscalls->write(fd_, bytes.data(), bytes.size())
            : g_syscalls->pwrite(fd_, bytes.data(), bytes.size(), offset);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Failed(offset < 0 ? "write" : "pwrite", path_);
    bytes.remove_prefix(static_cast<size_t>(n));
    if (offset >= 0) offset += n;
  }
  return Status::OK();
}

Status DurableFile::Sync() {
  return g_syscalls->fsync(fd_) == 0 ? Status::OK() : Failed("fsync", path_);
}

Status DurableFile::Truncate(uint64_t size) {
  if (g_syscalls->ftruncate(fd_, static_cast<off_t>(size)) == 0) {
    return Status::OK();
  }
  return Status::IoError(StringPrintf("ftruncate %s to %llu bytes: %s",
                                      path_.c_str(),
                                      static_cast<unsigned long long>(size),
                                      std::strerror(errno)));
}

Status DurableFile::Commit() {
  UPSKILL_RETURN_IF_ERROR(Sync());
  if (g_syscalls->close(std::exchange(fd_, -1)) != 0) {
    return Failed("close", path_);
  }
  if (g_syscalls->rename(path_.c_str(), target_.c_str()) != 0) {
    return Status::IoError(StringPrintf("rename %s -> %s: %s", path_.c_str(),
                                        target_.c_str(), std::strerror(errno)));
  }
  path_ = std::exchange(target_, {});
  return SyncDirectory(ParentDirectory(path_));
}

Status ReplaceFile(const std::string& path, std::string_view bytes) {
  Result<DurableFile> file = DurableFile::CreateReplacement(path);
  if (!file.ok()) return file.status();
  UPSKILL_RETURN_IF_ERROR(file.value().Write(bytes));
  return file.value().Commit();
}

Result<FileContents> ReadFile(const std::string& path) {
  // A regular file takes one sized read into an uninitialized buffer; a
  // pipe or other stream has no size, so it is read until end of file
  // into a doubling buffer.
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IoError(
        StringPrintf("cannot open %s: %s", path.c_str(), std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || S_ISDIR(st.st_mode)) {
    ::close(fd);
    return Status::IoError(path + " is a directory or cannot be stat'ed");
  }
  const bool sized = S_ISREG(st.st_mode);
  size_t capacity = sized ? static_cast<size_t>(st.st_size) : 4096;
  std::unique_ptr<char[]> buffer =
      std::make_unique_for_overwrite<char[]>(capacity);
  size_t read_bytes = 0;
  ssize_t n = 0;
  for (;;) {
    if (read_bytes == capacity) {
      if (sized) break;
      std::unique_ptr<char[]> grown =
          std::make_unique_for_overwrite<char[]>(2 * capacity);
      std::memcpy(grown.get(), buffer.get(), read_bytes);
      buffer = std::move(grown);
      capacity *= 2;
    }
    n = ::read(fd, buffer.get() + read_bytes, capacity - read_bytes);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    read_bytes += static_cast<size_t>(n);
  }
  const std::string why = n < 0 ? std::strerror(errno) : "end of file";
  ::close(fd);
  if (n < 0 || (sized && read_bytes != capacity)) {
    return Status::IoError(
        StringPrintf("short read of %s: %zu of %zu bytes (%s)", path.c_str(),
                     read_bytes, capacity, why.c_str()));
  }
  return FileContents{std::move(buffer), read_bytes};
}

}  // namespace upskill
