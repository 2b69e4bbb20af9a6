// Unit tests for the execution backend: the degenerate-count and
// empty-range guards, exactly-once visitation, concurrent and nested
// loops on one backend, loop state that outlives the call, parity with
// the serial backend shard by shard, and CreateBackend's name
// resolution. Each scheduling case runs on Backend::Serial() and on a
// 3-worker backend.

#include "exec/backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.h"
#include "exec/map_reduce.h"
#include "exec/shard.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace upskill {
namespace exec {
namespace {

Dataset MakeDataset(const std::vector<int>& sequence_lengths,
                    int num_items = 8) {
  FeatureSchema schema;
  EXPECT_TRUE(schema.AddCount("steps").ok());
  ItemTable items(std::move(schema));
  for (int i = 0; i < num_items; ++i) {
    const double row[] = {static_cast<double>(i + 1)};
    EXPECT_TRUE(items.AddItem(row).ok());
  }
  Dataset dataset(std::move(items));
  for (const int length : sequence_lengths) {
    const UserId user = dataset.AddUser();
    for (int n = 0; n < length; ++n) {
      EXPECT_TRUE(
          dataset.AddAction(user, n, static_cast<ItemId>(n % num_items)).ok());
    }
  }
  return dataset;
}

// Every backend shape the sweep cares about, built fresh per call so a
// test can exercise construction too.
std::vector<std::shared_ptr<Backend>> AllBackends() {
  std::vector<std::shared_ptr<Backend>> backends;
  backends.push_back(
      std::shared_ptr<Backend>(Backend::Serial(), [](Backend*) {}));
  backends.push_back(std::make_shared<Backend>(3));
  return backends;
}

TEST(BackendRunTest, DegenerateShardCountsNeverDispatch) {
  for (const auto& backend : AllBackends()) {
    std::atomic<int> calls{0};
    backend->Run(0, [&](int) { calls.fetch_add(1); });
    backend->Run(-1, [&](int) { calls.fetch_add(1); });
    backend->Run(-1000, [&](int) { calls.fetch_add(1); });
    backend->RunIndices(5, 5, [&](size_t) { calls.fetch_add(1); });
    backend->RunIndices(0, 0, [&](size_t) { calls.fetch_add(1); });
    backend->RunIndices(7, 3, [&](size_t) { calls.fetch_add(1); });
    backend->RunIndices(9, 4, [&](size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0) << backend->name();
  }
}

TEST(BackendRunTest, EmptyMappedStorePlanIsSafeOnEveryBackend) {
  // A packed store with zero users maps to an empty dataset; the
  // degenerate user-axis plan over it must never reach a backend with a
  // shard that has users, and a zero shard count must not dispatch.
  const std::string path = testing::TempDir() + "/backend_empty.store";
  ASSERT_TRUE(store::PackDataset(MakeDataset({}), path).ok());
  auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto mapped = reader.value().MapDataset();
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_EQ(mapped.value().num_users(), 0);

  for (const auto& backend : AllBackends()) {
    const ShardPlan plan = PlanDatasetShards(mapped.value(), 0, backend.get());
    std::atomic<int> users_seen{0};
    backend->Run(plan.num_shards(), [&](int shard) {
      users_seen.fetch_add(static_cast<int>(plan.range(shard).size()));
    });
    EXPECT_EQ(users_seen.load(), 0) << backend->name();
  }
}

TEST(BackendRunTest, EveryShardRunsExactlyOnce) {
  constexpr int kShards = 97;
  for (const auto& backend : AllBackends()) {
    std::vector<std::atomic<int>> visits(kShards);
    for (auto& v : visits) v.store(0);
    backend->Run(kShards, [&](int shard) {
      visits[static_cast<size_t>(shard)].fetch_add(1);
    });
    for (int k = 0; k < kShards; ++k) {
      EXPECT_EQ(visits[static_cast<size_t>(k)].load(), 1)
          << backend->name() << " shard " << k;
    }
  }
}

TEST(BackendRunTest, RunIndicesCoversEveryIndexExactlyOnce) {
  constexpr size_t kBegin = 3;
  constexpr size_t kEnd = 131;
  for (const auto& backend : AllBackends()) {
    std::vector<std::atomic<int>> visits(kEnd);
    for (auto& v : visits) v.store(0);
    backend->RunIndices(kBegin, kEnd,
                        [&](size_t i) { visits[i].fetch_add(1); });
    for (size_t i = 0; i < kEnd; ++i) {
      EXPECT_EQ(visits[i].load(), i < kBegin ? 0 : 1)
          << backend->name() << " index " << i;
    }
  }
}

TEST(BackendRunTest, ParallelSumMatchesSerial) {
  constexpr size_t kCount = 10000;
  long long expected = 0;
  for (size_t i = 0; i < kCount; ++i) {
    expected += static_cast<long long>(i) * 3 - 1;
  }
  for (const auto& backend : AllBackends()) {
    std::vector<long long> contributions(kCount, 0);
    backend->RunIndices(0, kCount, [&contributions](size_t i) {
      contributions[i] = static_cast<long long>(i) * 3 - 1;
    });
    EXPECT_EQ(std::accumulate(contributions.begin(), contributions.end(),
                              0LL),
              expected)
        << backend->name();
  }
}

// Loops on one backend from several threads at once: each call must
// return only once its own body has finished, even while the others are
// still in flight (a backend-wide wait would let a loop return early, or
// deadlock).
TEST(BackendRunTest, ConcurrentLoopsOnOneBackendSeeOwnCompletion) {
  constexpr int kLoops = 8;
  constexpr size_t kPerLoop = 500;
  for (const auto& backend : AllBackends()) {
    std::vector<std::vector<int>> results(kLoops,
                                          std::vector<int>(kPerLoop, 0));
    std::vector<std::thread> callers;
    callers.reserve(kLoops);
    for (int loop = 0; loop < kLoops; ++loop) {
      callers.emplace_back([&backend, &results, loop] {
        backend->RunIndices(0, kPerLoop, [&results, loop](size_t i) {
          results[loop][i] = loop + 1;
        });
        for (size_t i = 0; i < kPerLoop; ++i) {
          EXPECT_EQ(results[loop][i], loop + 1)
              << backend->name() << " loop " << loop << " i " << i;
        }
      });
    }
    for (std::thread& caller : callers) caller.join();
  }
}

// A body that dispatches through its own backend must not deadlock:
// with more outer shards than runners, every worker sits in an outer
// shard waiting on its inner loop, and the inner loops still finish
// because each caller takes a share of its own loop.
TEST(BackendRunTest, NestedLoopsCompleteWhileEveryWorkerIsBusy) {
  constexpr int kOuter = 8;
  constexpr size_t kInner = 64;
  for (const auto& backend : AllBackends()) {
    std::vector<std::vector<std::atomic<int>>> hits(kOuter);
    for (auto& row : hits) row = std::vector<std::atomic<int>>(kInner);
    backend->Run(kOuter, [&](int outer) {
      backend->RunIndices(0, kInner, [&hits, outer](size_t inner) {
        hits[static_cast<size_t>(outer)][inner].fetch_add(1);
      });
    });
    for (int outer = 0; outer < kOuter; ++outer) {
      for (size_t inner = 0; inner < kInner; ++inner) {
        EXPECT_EQ(hits[static_cast<size_t>(outer)][inner].load(), 1)
            << backend->name() << " " << outer << "," << inner;
      }
    }
  }
}

// A worker can pick up its share of a loop after the caller has returned
// and destroyed everything the body referenced. It must find the range
// exhausted and leave the body alone; ASan and TSan watch this.
TEST(BackendRunTest, LateWorkersNeverTouchAFinishedLoop) {
  for (const auto& backend : AllBackends()) {
    for (int round = 0; round < 2000; ++round) {
      std::vector<int> values(2, 0);
      backend->RunIndices(0, values.size(),
                          [&values](size_t i) { values[i] = 1; });
      ASSERT_EQ(values[0] + values[1], 2) << backend->name();
    }
  }
}

// A one-worker pool shares a loop between its worker and the caller:
// index 0 waits until some index runs on another thread.
TEST(BackendRunTest, OneWorkerPoolRunsIndicesOnItsWorker) {
  Backend backend(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable ran_elsewhere;
  bool elsewhere = false;
  backend.RunIndices(0, 2, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mutex);
    if (std::this_thread::get_id() != caller) {
      elsewhere = true;
      ran_elsewhere.notify_all();
    }
    if (i == 0) {
      ran_elsewhere.wait_for(lock, std::chrono::seconds(5),
                             [&elsewhere] { return elsewhere; });
    }
  });
  EXPECT_TRUE(elsewhere);
}

TEST(BackendTest, ConcurrencyCountsWorkersAndCaller) {
  EXPECT_EQ(Backend::Serial()->concurrency(), 1);
  EXPECT_STREQ(Backend::Serial()->name(), "serial");
  Backend owned(3);
  EXPECT_EQ(owned.concurrency(), 4);  // 3 workers + the calling thread
  EXPECT_STREQ(owned.name(), "pool");
  auto clamped = CreateBackend("pool", 0);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value()->concurrency(), 2);  // at least one worker
}

TEST(BackendTest, PoolMatchesSerialShardByShard) {
  // The pool backend must produce bitwise-identical per-shard reductions
  // to the serial backend, shard by shard.
  const std::vector<double> values = [] {
    std::vector<double> v(1000);
    for (size_t i = 0; i < v.size(); ++i) {
      v[i] = 1.0 / static_cast<double>(i + 3);
    }
    return v;
  }();
  const auto reduce_shards = [&](Backend* backend, const ShardPlan& plan) {
    std::vector<double> sums(static_cast<size_t>(plan.num_shards()), 0.0);
    backend->Run(plan.num_shards(), [&](int shard) {
      const IndexRange range = plan.range(shard);
      sums[static_cast<size_t>(shard)] =
          ReduceOrderedSum(std::span<const double>(
              values.data() + range.begin, range.end - range.begin));
    });
    return sums;
  };
  for (const int threads : {1, 2, 8}) {
    for (const int shards : {1, 3, 7}) {
      const ShardPlan plan = ShardPlan::Contiguous(values.size(), shards);
      auto pool = CreateBackend("pool", threads);
      ASSERT_TRUE(pool.ok());
      EXPECT_EQ(reduce_shards(Backend::Serial(), plan),
                reduce_shards(pool.value().get(), plan))
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(CreateBackendTest, KnownNamesResolveAndOthersFail) {
  auto serial = CreateBackend("serial", 8);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial.value().get(), Backend::Serial());
  EXPECT_EQ(serial.value()->concurrency(), 1);

  auto pool = CreateBackend("pool", 3);
  ASSERT_TRUE(pool.ok());
  EXPECT_STREQ(pool.value()->name(), "pool");
  EXPECT_EQ(pool.value()->concurrency(), 4);

  for (const char* unknown : {"numa", "gpu", "Pool"}) {
    auto created = CreateBackend(unknown, 2);
    ASSERT_FALSE(created.ok()) << unknown;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
    // The error names the known backends so a CLI typo is
    // self-explaining.
    const std::string& message = created.status().message();
    EXPECT_NE(message.find("serial"), std::string::npos) << message;
    EXPECT_NE(message.find("pool"), std::string::npos) << message;
  }
}

TEST(CreateBackendTest, EmptyAndAutoFollowTheThreadCount) {
  auto inline_default = CreateBackend("", 1);
  ASSERT_TRUE(inline_default.ok());
  EXPECT_STREQ(inline_default.value()->name(), "serial");

  auto pooled_default = CreateBackend("", 4);
  ASSERT_TRUE(pooled_default.ok());
  EXPECT_STREQ(pooled_default.value()->name(), "pool");

  auto auto_default = CreateBackend("auto", 4);
  ASSERT_TRUE(auto_default.ok());
  EXPECT_STREQ(auto_default.value()->name(), "pool");
}

}  // namespace
}  // namespace exec
}  // namespace upskill
