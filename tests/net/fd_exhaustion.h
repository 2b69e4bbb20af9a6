// Test helpers for fd exhaustion: fill this process's fd table, measure
// the process's CPU time, and wait for a socket with a timeout. Shared by
// the data-plane and admin-plane tests.

#ifndef UPSKILL_TESTS_NET_FD_EXHAUSTION_H_
#define UPSKILL_TESTS_NET_FD_EXHAUSTION_H_

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <vector>

namespace upskill {
namespace net {

// Fills this process's fd table for the object's lifetime: lowers the
// soft RLIMIT_NOFILE, then dups one fd into every free slot. The
// destructor closes them and restores the limit, so a failed assertion
// cannot leave the table full.
class FdTableFiller {
 public:
  FdTableFiller() {
    const int probe = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    if (probe < 0 || ::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    fds_.push_back(probe);
    rlimit lowered = saved_;
    lowered.rlim_cur = std::min<rlim_t>(
        saved_.rlim_cur, std::max<rlim_t>(64, static_cast<rlim_t>(probe) + 16));
    if (::setrlimit(RLIMIT_NOFILE, &lowered) != 0) return;
    lowered_ = true;
    for (int fd = ::dup(probe); fd >= 0; fd = ::dup(probe)) fds_.push_back(fd);
    full_ = errno == EMFILE;
  }
  ~FdTableFiller() {
    for (const int fd : fds_) ::close(fd);
    if (lowered_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  FdTableFiller(const FdTableFiller&) = delete;
  FdTableFiller& operator=(const FdTableFiller&) = delete;

  bool full() const { return full_ && fds_.size() > 1; }
  /// Frees one slot, for the next socket to take.
  void FreeOne() {
    ::close(fds_.back());
    fds_.pop_back();
  }

 private:
  rlimit saved_{};
  bool lowered_ = false;
  bool full_ = false;
  std::vector<int> fds_;
};

inline double ProcessCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

inline bool ReadableWithin(int fd, int timeout_ms) {
  pollfd entry{fd, POLLIN, 0};
  return ::poll(&entry, 1, timeout_ms) == 1;
}

}  // namespace net
}  // namespace upskill

#endif  // UPSKILL_TESTS_NET_FD_EXHAUSTION_H_
