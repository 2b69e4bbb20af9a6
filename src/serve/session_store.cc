#include "serve/session_store.h"

#include <bit>

namespace upskill {
namespace serve {

namespace {
size_t RoundUpToPowerOfTwo(int n) {
  if (n < 1) return 1;
  return std::bit_ceil(static_cast<size_t>(n));
}
}  // namespace

SessionStore::SessionStore(int num_shards)
    : shards_(RoundUpToPowerOfTwo(num_shards)),
      mask_(shards_.size() - 1),
      live_gauge_(obs::MetricsRegistry::Global().GetGauge(
          "upskill_serve_live_sessions")),
      evictions_(obs::MetricsRegistry::Global().GetCounter(
          "upskill_serve_sessions_evicted_total")) {}

SessionStore::~SessionStore() {
  const int64_t remaining = live_.load(std::memory_order_relaxed);
  if (remaining != 0) live_gauge_.Add(static_cast<double>(-remaining));
}

void SessionStore::AddLive(int64_t delta) {
  live_.fetch_add(delta, std::memory_order_relaxed);
  live_gauge_.Add(static_cast<double>(delta));
}

bool SessionStore::Lookup(const std::string& user, SessionLevel* out) const {
  const Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(user);
  if (it == shard.sessions.end()) return false;
  *out = SessionLevel{it->second.level, it->second.actions};
  return true;
}

bool SessionStore::Erase(const std::string& user) {
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> lock(shard.mutex);
  const bool erased = shard.sessions.erase(user) > 0;
  if (erased) AddLive(-1);
  return erased;
}

size_t SessionStore::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.sessions.size();
  }
  return total;
}

size_t SessionStore::EvictIdleSessions(int64_t min_last_time) {
  size_t evicted = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    evicted += std::erase_if(shard.sessions, [&](const auto& entry) {
      return entry.second.last_time < min_last_time;
    });
  }
  if (evicted > 0) {
    AddLive(-static_cast<int64_t>(evicted));
    evictions_.Increment(evicted);
  }
  return evicted;
}

std::vector<uint64_t> SessionStore::LevelCounts(int num_levels) const {
  if (num_levels < 0) num_levels = 0;
  std::vector<uint64_t> counts(static_cast<size_t>(num_levels) + 1, 0);
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& entry : shard.sessions) {
      int level = entry.second.actions == 0 ? 0 : entry.second.level;
      if (level < 0) level = 0;
      if (level > num_levels) level = num_levels;
      ++counts[static_cast<size_t>(level)];
    }
  }
  return counts;
}

void SessionStore::Clear() {
  size_t dropped = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    dropped += shard.sessions.size();
    shard.sessions.clear();
  }
  if (dropped > 0) AddLive(-static_cast<int64_t>(dropped));
}

}  // namespace serve
}  // namespace upskill
