#include "bench/e2e/loadgen.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "net/frame.h"

namespace upskill {
namespace e2e {
namespace {

constexpr int kTopK = 10;
constexpr size_t kChunkBytes = 256 * 1024;

double ThreadCpuSeconds() {
  rusage usage{};
  ::getrusage(RUSAGE_THREAD, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

// Parses the integer after `key` in a text response ("ok level=3 ...").
bool ParseField(const char* begin, const char* end, const char* key,
                int* value) {
  const std::string line(begin, end);
  const size_t at = line.find(key);
  if (at == std::string::npos) return false;
  *value = std::atoi(line.c_str() + at + std::strlen(key));
  return true;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

void LoadStats::Fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

RequestStream::RequestStream(StreamConfig config)
    : config_(std::move(config)),
      state_(config_.seed * 0x9e3779b97f4a7c15ull + 1),
      time_(config_.first_time),
      observed_(config_.users.size(), 0) {
  if (config_.pick == StreamConfig::Pick::kZipf) {
    zipf_cdf_.resize(config_.users.size());
    double total = 0.0;
    for (size_t i = 0; i < zipf_cdf_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      zipf_cdf_[i] = total;
    }
    for (double& value : zipf_cdf_) value /= total;
  }
}

uint64_t RequestStream::NextRandom() {
  // splitmix64
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void RequestStream::Next(serve::ServeRequest* request) {
  size_t user = 0;
  switch (config_.pick) {
    case StreamConfig::Pick::kZipf:
      user = static_cast<size_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), NextUnit()) -
          zipf_cdf_.begin());
      user = std::min(user, zipf_cdf_.size() - 1);
      break;
    case StreamConfig::Pick::kUniform:
      user = NextRandom() % config_.users.size();
      break;
    case StreamConfig::Pick::kRoundRobin:
      user = counter_ % config_.users.size();
      break;
  }
  ++counter_;
  request->user = config_.users[user];
  if (observed_[user] != 0 && NextUnit() < config_.recommend_share) {
    request->kind = serve::ServeRequest::Kind::kRecommend;
    request->top_k = kTopK;
    request->has_time = false;
    return;
  }
  observed_[user] = 1;
  request->kind = serve::ServeRequest::Kind::kObserve;
  const std::vector<ItemId>& pool =
      (*config_.item_pools)[user % config_.item_pools->size()];
  request->item = pool[NextRandom() % pool.size()];
  request->has_time = config_.timed;
  request->time = config_.timed ? time_++ : 0;
}

LoadConnection::LoadConnection(bool text, int num_levels)
    : text_(text), num_levels_(num_levels), chunk_(kChunkBytes) {}

Status LoadConnection::Connect(uint16_t port) {
  return client_.Connect("127.0.0.1", port);
}

void LoadConnection::Record(size_t limit) {
  record_limit_ = limit;
  recorded_requests_.clear();
  recorded_results_.clear();
}

void LoadConnection::Queue(const serve::ServeRequest& request,
                           int64_t stamp_ns) {
  if (text_) {
    const bool observe = request.kind == serve::ServeRequest::Kind::kObserve;
    tx_ += observe ? "observe " : "recommend ";
    tx_ += request.user;
    tx_ += ' ';
    tx_ += std::to_string(observe ? request.item : request.top_k);
    if (observe && request.has_time) {
      tx_ += ' ';
      tx_ += std::to_string(request.time);
    }
    tx_ += '\n';
  } else {
    net::EncodeRequest(request, &tx_);
  }
  in_flight_.push_back(InFlight{request.kind, stamp_ns});
  if (recorded_requests_.size() < record_limit_) {
    recorded_requests_.push_back(request);
  }
}

bool LoadConnection::Send(bool block, LoadStats* stats) {
  while (tx_off_ < tx_.size()) {
    const ssize_t n =
        ::send(client_.fd(), tx_.data() + tx_off_, tx_.size() - tx_off_,
               MSG_NOSIGNAL | (block ? 0 : MSG_DONTWAIT));
    ++stats->send_calls;
    if (n > 0) {
      tx_off_ += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && !block && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    return false;
  }
  tx_.clear();
  tx_off_ = 0;
  return true;
}

bool LoadConnection::DecodeOne(LoadStats* stats, int* result, bool* broken) {
  const char* data = rx_.data() + rx_off_;
  const size_t size = rx_.size() - rx_off_;
  const serve::ServeRequest::Kind kind = in_flight_.front().kind;
  const bool observe = kind == serve::ServeRequest::Kind::kObserve;
  *result = -1;
  if (text_) {
    const void* newline = std::memchr(data, '\n', size);
    if (newline == nullptr) return false;
    const char* end = static_cast<const char*>(newline);
    rx_off_ += static_cast<size_t>(end - data) + 1;
    int value = 0;
    if (std::strncmp(data, "ok ", 3) != 0 ||
        !ParseField(data, end, observe ? "level=" : "n=", &value)) {
      stats->Fail("text response: " + std::string(data, end));
    } else if (observe ? (value < 1 || value > num_levels_)
                       : (value < 0 || value > kTopK)) {
      stats->Fail("text response out of range: " + std::string(data, end));
    } else {
      *result = value;
    }
    return true;
  }
  net::DecodedResponse response;
  std::string error;
  switch (net::DecodeResponse(data, size, kind, net::kDefaultMaxPayloadBytes,
                              &response, &error)) {
    case net::DecodeStatus::kNeedMore:
      return false;
    case net::DecodeStatus::kError:
      *broken = true;
      stats->Fail("undecodable response: " + error);
      return false;
    case net::DecodeStatus::kFrame:
      break;
  }
  rx_off_ += response.frame_bytes;
  const int value =
      observe ? response.level : static_cast<int>(response.picks.size());
  if (response.status_code != StatusCode::kOk) {
    stats->Fail("error response: " + response.message);
  } else if (observe ? (value < 1 || value > num_levels_) : value > kTopK) {
    stats->Fail("binary response out of range");
  } else {
    *result = value;
  }
  return true;
}

bool LoadConnection::Receive(bool block, bool record, LoadStats* stats) {
  while (true) {
    const ssize_t n = ::recv(client_.fd(), chunk_.data(), chunk_.size(),
                             block ? 0 : MSG_DONTWAIT);
    ++stats->recv_calls;
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return !block && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
    rx_.append(chunk_.data(), static_cast<size_t>(n));
    const int64_t now = NowNs();
    while (!in_flight_.empty()) {
      int result = -1;
      bool broken = false;
      if (!DecodeOne(stats, &result, &broken)) {
        if (broken) return false;
        break;
      }
      if (result >= 0) ++stats->completed;
      if (record) {
        stats->latency_us.Add(
            1e-3 * static_cast<double>(now - in_flight_.front().stamp_ns));
      }
      if (recorded_results_.size() < record_limit_) {
        recorded_results_.push_back(result);
      }
      in_flight_.pop_front();
    }
    if (rx_off_ == rx_.size()) {
      rx_.clear();
      rx_off_ = 0;
    } else if (rx_off_ > kChunkBytes) {
      rx_.erase(0, rx_off_);
      rx_off_ = 0;
    }
    if (block || static_cast<size_t>(n) < chunk_.size()) return true;
  }
}

void LoadConnection::FailInFlight(LoadStats* stats, const std::string& why) {
  for (size_t i = 0; i < in_flight_.size(); ++i) stats->Fail(why);
  in_flight_.clear();
}

void LoadConnection::RunClosed(RequestStream* stream, int depth,
                               Clock::time_point deadline,
                               uint64_t max_requests, bool record,
                               LoadStats* stats) {
  const double cpu_start = ThreadCpuSeconds();
  const int64_t deadline_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline.time_since_epoch())
          .count();
  uint64_t sent = 0;
  bool sending = true;
  serve::ServeRequest request;
  while (true) {
    if (sending) {
      const int64_t now = NowNs();
      if (now >= deadline_ns || sent >= max_requests) {
        sending = false;
      } else {
        while (in_flight_.size() < static_cast<size_t>(depth) &&
               sent < max_requests) {
          stream->Next(&request);
          Queue(request, now);
          ++sent;
        }
      }
    }
    if (!Send(/*block=*/true, stats)) {
      FailInFlight(stats, "send failed");
      break;
    }
    stats->backlog_max =
        std::max<uint64_t>(stats->backlog_max, in_flight_.size());
    if (in_flight_.empty()) {
      if (!sending) break;
      continue;
    }
    if (!Receive(/*block=*/true, record, stats)) {
      FailInFlight(stats, "connection lost");
      break;
    }
  }
  stats->sent += sent;
  stats->cpu_seconds += ThreadCpuSeconds() - cpu_start;
}

void LoadConnection::RunOpen(RequestStream* stream, double rate,
                             Clock::time_point deadline, LoadStats* stats) {
  // Sleep to the next send time with 1 ns timer slack instead of the
  // default 50 us, so the schedule holds at tens of microseconds.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const double cpu_start = ThreadCpuSeconds();
  const int64_t deadline_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          deadline.time_since_epoch())
          .count();
  const double interval_ns = 1e9 / rate;
  const int64_t start = NowNs();
  const int64_t drain_limit = deadline_ns + 1000000000;
  uint64_t scheduled = 0;
  serve::ServeRequest request;
  auto due = [&](uint64_t k) {
    return start + static_cast<int64_t>(static_cast<double>(k) * interval_ns);
  };
  while (true) {
    const int64_t now = NowNs();
    while (now < deadline_ns && due(scheduled) <= now) {
      stream->Next(&request);
      Queue(request, due(scheduled));
      stats->late_us.Add(1e-3 * static_cast<double>(now - due(scheduled)));
      ++scheduled;
    }
    if (!Send(/*block=*/false, stats)) {
      FailInFlight(stats, "send failed");
      break;
    }
    stats->backlog_max =
        std::max<uint64_t>(stats->backlog_max, in_flight_.size());
    if (now >= deadline_ns) {
      if (in_flight_.empty() && tx_.empty()) break;
      if (now >= drain_limit) {
        FailInFlight(stats, "unanswered at end of run");
        break;
      }
    }
    const int64_t wait_ns =
        now < deadline_ns ? std::max<int64_t>(0, due(scheduled) - now)
                          : 1000000;
    pollfd fd{client_.fd(), static_cast<short>(POLLIN), 0};
    if (!tx_.empty()) fd.events = static_cast<short>(fd.events | POLLOUT);
    const timespec timeout{static_cast<time_t>(wait_ns / 1000000000),
                           static_cast<long>(wait_ns % 1000000000)};
    const int ready = ::ppoll(&fd, 1, &timeout, nullptr);
    if (ready > 0 && (fd.revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
        !Receive(/*block=*/false, /*record=*/true, stats)) {
      FailInFlight(stats, "connection lost");
      break;
    }
  }
  stats->sent += scheduled;
  stats->cpu_seconds += ThreadCpuSeconds() - cpu_start;
}

}  // namespace e2e
}  // namespace upskill
