// SessionStore: the striped-mutex sharded session map. The concurrency
// tests here are the ones the ThreadSanitizer suite (UPSKILL_SANITIZE=
// thread) exercises hardest — same-user updates must serialize exactly,
// distinct users must not lose writes.

#include "serve/session_store.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace upskill {
namespace serve {
namespace {

TEST(SessionStoreTest, ShardCountRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SessionStore(1).num_shards(), 1);
  EXPECT_EQ(SessionStore(2).num_shards(), 2);
  EXPECT_EQ(SessionStore(3).num_shards(), 4);
  EXPECT_EQ(SessionStore(64).num_shards(), 64);
  EXPECT_EQ(SessionStore(65).num_shards(), 128);
  EXPECT_EQ(SessionStore(0).num_shards(), 1);
  EXPECT_EQ(SessionStore(-5).num_shards(), 1);
}

TEST(SessionStoreTest, CreatesSessionsOnDemand) {
  SessionStore store(4);
  EXPECT_EQ(store.size(), 0u);

  SessionLevel copy;
  EXPECT_FALSE(store.Lookup("alice", &copy));

  store.WithSession("alice", [](SessionState& session) {
    EXPECT_EQ(session.actions, 0u);
    EXPECT_EQ(session.level, 0);
    session.actions = 3;
    session.level = 2;
  });
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.Lookup("alice", &copy));
  EXPECT_EQ(copy.actions, 3u);
  EXPECT_EQ(copy.level, 2);
}

TEST(SessionStoreTest, EraseAndClear) {
  SessionStore store(4);
  store.WithSession("a", [](SessionState&) {});
  store.WithSession("b", [](SessionState&) {});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Erase("a"));
  EXPECT_FALSE(store.Erase("a"));
  EXPECT_EQ(store.size(), 1u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  SessionLevel copy;
  EXPECT_FALSE(store.Lookup("b", &copy));
}

TEST(SessionStoreTest, ConcurrentSameUserUpdatesSerialize) {
  SessionStore store(8);
  constexpr int kThreads = 8;
  constexpr int kUpdates = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kUpdates; ++i) {
        store.WithSession("hot-user", [](SessionState& session) {
          ++session.actions;
        });
      }
    });
  }
  for (std::thread& t : threads) t.join();
  SessionLevel copy;
  ASSERT_TRUE(store.Lookup("hot-user", &copy));
  EXPECT_EQ(copy.actions,
            static_cast<uint64_t>(kThreads) * static_cast<uint64_t>(kUpdates));
}

TEST(SessionStoreTest, ConcurrentDistinctUsersDontInterfere) {
  SessionStore store(4);  // fewer shards than threads: forced collisions
  constexpr int kThreads = 8;
  constexpr int kUsersPerThread = 50;
  constexpr int kUpdates = 40;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, t] {
      for (int u = 0; u < kUsersPerThread; ++u) {
        const std::string user =
            "u" + std::to_string(t) + "-" + std::to_string(u);
        for (int i = 0; i < kUpdates; ++i) {
          store.WithSession(user, [](SessionState& session) {
            ++session.actions;
            session.level = static_cast<int>(session.actions % 5) + 1;
          });
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.size(),
            static_cast<size_t>(kThreads) * kUsersPerThread);
  for (int t = 0; t < kThreads; ++t) {
    for (int u = 0; u < kUsersPerThread; ++u) {
      SessionLevel copy;
      ASSERT_TRUE(store.Lookup(
          "u" + std::to_string(t) + "-" + std::to_string(u), &copy));
      EXPECT_EQ(copy.actions, static_cast<uint64_t>(kUpdates));
    }
  }
}

TEST(SessionStoreTest, EvictIdleSessionsDropsStrictlyOlder) {
  SessionStore store(4);
  store.WithSession("stale", [](SessionState& session) {
    session.actions = 1;
    session.last_time = 10;
  });
  store.WithSession("boundary", [](SessionState& session) {
    session.actions = 1;
    session.last_time = 20;
  });
  store.WithSession("fresh", [](SessionState& session) {
    session.actions = 1;
    session.last_time = 30;
  });

  // Eviction is strictly-older-than: last_time == min_last_time survives.
  EXPECT_EQ(store.EvictIdleSessions(20), 1u);
  EXPECT_EQ(store.size(), 2u);
  SessionLevel copy;
  EXPECT_FALSE(store.Lookup("stale", &copy));
  EXPECT_TRUE(store.Lookup("boundary", &copy));
  EXPECT_TRUE(store.Lookup("fresh", &copy));

  EXPECT_EQ(store.EvictIdleSessions(100), 2u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.EvictIdleSessions(100), 0u);
}

TEST(SessionStoreTest, ConcurrentEvictionDuringLiveTraffic) {
  // Eviction locks one shard at a time, so observes and evicts may
  // interleave freely. A session touched after its eviction must come
  // back as a fresh entry; nothing may crash or deadlock (the TSan suite
  // runs this hardest).
  SessionStore store(4);
  constexpr int kWriters = 4;
  constexpr int kUpdates = 1500;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&store, t] {
      const std::string user = "live-" + std::to_string(t);
      for (int i = 0; i < kUpdates; ++i) {
        store.WithSession(user, [i](SessionState& session) {
          ++session.actions;
          session.last_time = i;
        });
      }
    });
  }
  std::thread evictor([&store] {
    for (int i = 0; i < 400; ++i) {
      store.EvictIdleSessions(kUpdates / 2);
    }
  });
  for (std::thread& t : writers) t.join();
  evictor.join();

  // Every writer finishes at last_time = kUpdates - 1, past the eviction
  // horizon, so a final sweep must keep all of them.
  EXPECT_EQ(store.EvictIdleSessions(kUpdates / 2), 0u);
  EXPECT_EQ(store.size(), static_cast<size_t>(kWriters));
  for (int t = 0; t < kWriters; ++t) {
    const std::string user = "live-" + std::to_string(t);
    SessionLevel copy;
    ASSERT_TRUE(store.Lookup(user, &copy));
    EXPECT_GE(copy.actions, 1u);
    store.WithSession(user, [](SessionState& session) {
      EXPECT_EQ(session.last_time, kUpdates - 1);
    });
  }
}

TEST(SessionStoreTest, ConcurrentReadersDuringWrites) {
  SessionStore store(8);
  store.WithSession("reader-target", [](SessionState& session) {
    session.actions = 1;
  });
  std::thread writer([&store] {
    for (int i = 0; i < 5000; ++i) {
      store.WithSession("reader-target", [](SessionState& session) {
        ++session.actions;
      });
    }
  });
  std::thread sizer([&store] {
    for (int i = 0; i < 200; ++i) {
      EXPECT_GE(store.size(), 1u);
    }
  });
  uint64_t last = 0;
  for (int i = 0; i < 2000; ++i) {
    SessionLevel copy;
    ASSERT_TRUE(store.Lookup("reader-target", &copy));
    EXPECT_GE(copy.actions, last);  // monotone under a single writer
    last = copy.actions;
  }
  writer.join();
  sizer.join();
}

}  // namespace
}  // namespace serve
}  // namespace upskill
