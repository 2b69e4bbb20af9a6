// Per-backend exec-layer benchmarks: the pipeline-level sharded kernel
// (the assignment DP sweep) driven through each exec::Backend — serial
// and pool. The kernel is bitwise deterministic across backends
// (tests/exec/determinism_test.cc), so the only thing these benches
// measure is scheduling: dispatch overhead at shards=1 and scaling at
// shards=4/16. Every entry records its backend in the benchmark name plus
// `threads` / `shards` counters so the results slice cleanly per backend.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "core/skill_model.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "exec/backend.h"

namespace upskill {
namespace {

// Same synthetic fixture as bench_micro's pipeline benches, so the
// per-backend numbers here are directly comparable against the pool-only
// BM_AssignSkillsSharded entries recorded in BENCH_PR4.json.
const datagen::GeneratedData& PipelineData() {
  static const datagen::GeneratedData* data = [] {
    datagen::SyntheticConfig config;
    config.num_users = 500;
    config.num_items = 2000;
    config.mean_sequence_length = 40.0;
    auto result = datagen::GenerateSynthetic(config);
    return new datagen::GeneratedData(std::move(result).value());
  }();
  return *data;
}

const TrainResult& PipelineModel() {
  static const TrainResult* result = [] {
    SkillModelConfig config;
    config.num_levels = 5;
    config.min_init_actions = 25;
    config.max_iterations = 10;
    Trainer trainer(config);
    auto trained = trainer.Train(PipelineData().dataset);
    return new TrainResult(std::move(trained).value());
  }();
  return *result;
}

// Builds the named backend sized for `threads`; null on failure (reported
// through the state).
std::shared_ptr<exec::Backend> MakeBackend(benchmark::State& state,
                                           const std::string& name,
                                           int threads) {
  auto backend = exec::CreateBackend(name, threads);
  if (!backend.ok()) {
    state.SkipWithError(backend.status().message().c_str());
    return nullptr;
  }
  return std::move(backend).value();
}

void RecordBackendCounters(benchmark::State& state, int threads,
                           int shards) {
  state.counters["threads"] = threads;
  state.counters["shards"] = shards;
}

void ExecAssignSharded(benchmark::State& state, const std::string& name) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const int threads = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  std::shared_ptr<exec::Backend> backend = MakeBackend(state, name, threads);
  if (backend == nullptr) return;
  const std::vector<double> cache =
      trained.model.ItemLogProbCache(data.dataset.items());
  AssignmentEngine engine(data.dataset, trained.model.num_levels(), shards);
  for (auto _ : state) {
    engine.Assign(trained.model, cache, /*transitions=*/nullptr,
                  backend.get());
  }
  RecordBackendCounters(state, threads, shards);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_actions()));
}

// Same env knob as bench_micro's sharded sweeps (scripts/bench.sh
// --threads exports it); defaults to {1, 8}.
std::vector<int> SweepThreadCounts() {
  std::vector<int> threads;
  if (const char* env = std::getenv("UPSKILL_BENCH_THREADS")) {
    std::istringstream in(env);
    int value = 0;
    while (in >> value) {
      if (value > 0) threads.push_back(value);
    }
  }
  if (threads.empty()) threads = {1, 8};
  return threads;
}

void RegisterExecSweeps() {
  static const char* kBackends[] = {"serial", "pool"};
  for (const char* backend : kBackends) {
    const std::string name(backend);
    for (const int threads : SweepThreadCounts()) {
      // The serial backend ignores the thread count; one entry per shard
      // count is enough and keeps the sweep free of duplicate rows.
      if (name == "serial" && threads != SweepThreadCounts().front()) {
        continue;
      }
      const int effective_threads = name == "serial" ? 1 : threads;
      for (const int shards : {1, 4, 16}) {
        benchmark::RegisterBenchmark(
            ("BM_AssignSkillsSharded/backend:" + name).c_str(),
            [name](benchmark::State& state) {
              ExecAssignSharded(state, name);
            })
            ->Args({effective_threads, shards});
      }
    }
  }
}

}  // namespace
}  // namespace upskill

int main(int argc, char** argv) {
  upskill::RegisterExecSweeps();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  upskill::bench::MaybeWriteMetricsDump();
  benchmark::Shutdown();
  return 0;
}
