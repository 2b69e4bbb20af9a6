// Serving-path benchmarks (google-benchmark): snapshot save/load, the
// ServingModel precomputation, the O(S) streaming observe step, the
// precomputed-ranking recommend walk, and the headline BM_ServeThroughput
// — a 90% observe / 10% recommend request mix over 100k live sessions
// executed through Server::ExecuteBatch on an 8-thread pool, the workload
// the PR's >= 100k req/s acceptance bar is measured on (BENCH_PR3.json).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/rng.h"
#include "core/difficulty.h"
#include "core/dp.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "serve/quantized_model.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"
#include "simd/kernels.h"

namespace upskill {
namespace serve {
namespace {

std::string TempSnapshotPath() {
  return "/tmp/upskill_bench_" + std::to_string(::getpid()) + ".snap";
}

// Shared fixture: a trained model over a mid-sized item universe, packaged
// as a snapshot and a ready ServingModel.
const ModelSnapshot& BenchSnapshot() {
  static const ModelSnapshot* snapshot = [] {
    datagen::SyntheticConfig data_config;
    data_config.num_users = 400;
    data_config.num_items = 2000;
    data_config.mean_sequence_length = 40.0;
    auto data = datagen::GenerateSynthetic(data_config);
    const Dataset& dataset = data.value().dataset;

    SkillModelConfig config;
    config.num_levels = 5;
    config.min_init_actions = 25;
    config.max_iterations = 8;
    auto trained = Trainer(config).Train(dataset);
    const SkillAssignments assignments =
        AssignSkills(dataset, trained.value().model);
    auto difficulty = EstimateDifficultyByGeneration(
        dataset.items(), trained.value().model, DifficultyPrior::kEmpirical,
        assignments);
    const TransitionWeights transitions = FitTransitionWeights(
        assignments, config.num_levels, config.smoothing);
    auto snapshot =
        MakeSnapshot(trained.value().model, dataset.items(),
                     std::move(difficulty).value(), &transitions);
    return new ModelSnapshot(std::move(snapshot).value());
  }();
  return *snapshot;
}

std::shared_ptr<const ServingModel> BenchServingModel() {
  static const std::shared_ptr<const ServingModel>* model = [] {
    auto result = ServingModel::FromSnapshot(BenchSnapshot());
    return new std::shared_ptr<const ServingModel>(result.value());
  }();
  return *model;
}

void BM_SnapshotSave(benchmark::State& state) {
  const ModelSnapshot& snapshot = BenchSnapshot();
  const std::string path = TempSnapshotPath();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SaveSnapshot(snapshot, path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotSave);

void BM_SnapshotLoad(benchmark::State& state) {
  const std::string path = TempSnapshotPath();
  if (!SaveSnapshot(BenchSnapshot(), path).ok()) {
    state.SkipWithError("SaveSnapshot failed");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(LoadSnapshot(path));
  }
  std::remove(path.c_str());
}
BENCHMARK(BM_SnapshotLoad);

// The swap-time cost: full log-prob matrix + per-level rankings.
void BM_ServingModelBuild(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::shared_ptr<exec::Backend> backend =
      exec::CreateBackend("", threads).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ServingModel::FromSnapshot(BenchSnapshot(), backend.get()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          BenchSnapshot().items.num_items());
}
BENCHMARK(BM_ServingModelBuild)->Arg(1)->Arg(8);

// One streaming observe: an O(S) column update behind one shard lock.
void BM_ObserveAction(benchmark::State& state) {
  Server server(BenchServingModel());
  Rng rng(7);
  const int num_items = BenchServingModel()->num_items();
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Observe(
        "bench-user", static_cast<ItemId>(rng.NextInt(num_items)), 0,
        false));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ObserveAction);

// One recommend: a walk down the precomputed per-level ranking.
void BM_RecommendServing(benchmark::State& state) {
  Server server(BenchServingModel());
  if (!server.Observe("bench-user", 0, 0, false).ok()) {
    state.SkipWithError("Observe failed");
    return;
  }
  UpskillRecommendationOptions options;
  options.max_results = 10;
  options.exclude_tried = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Recommend("bench-user", options));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RecommendServing);

// The headline throughput bench: 100k live sessions, request waves of a
// 90% observe / 10% recommend mix, executed through the full request API
// (parse-level structs in, rendered response strings out) on a thread
// pool. items_per_second in the JSON output is requests per second.
// Arg(0) = pool threads, Arg(1) = live sessions.
void BM_ServeThroughput(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int num_sessions = static_cast<int>(state.range(1));
  Server server(BenchServingModel(), /*num_shards=*/256);
  exec::Backend pool(threads);
  const int num_items = BenchServingModel()->num_items();
  Rng rng(13);

  // Seed every session once so recommends always find a live session
  // (and the map reaches steady-state size before timing starts).
  {
    std::vector<ServeRequest> seed(static_cast<size_t>(num_sessions));
    for (int u = 0; u < num_sessions; ++u) {
      ServeRequest& request = seed[static_cast<size_t>(u)];
      request.kind = ServeRequest::Kind::kObserve;
      request.user = "u" + std::to_string(u);
      request.item = static_cast<ItemId>(rng.NextInt(num_items));
    }
    server.ExecuteBatch(seed, &pool);
  }

  // Pre-generated request wave. Observes carry no timestamp (the session
  // reuses its last time), so waves can be replayed indefinitely.
  constexpr size_t kWave = 100000;
  std::vector<ServeRequest> wave(kWave);
  for (size_t i = 0; i < kWave; ++i) {
    ServeRequest& request = wave[i];
    request.user = "u" + std::to_string(rng.NextInt(num_sessions));
    if (rng.NextDouble() < 0.9) {
      request.kind = ServeRequest::Kind::kObserve;
      request.item = static_cast<ItemId>(rng.NextInt(num_items));
    } else {
      request.kind = ServeRequest::Kind::kRecommend;
      request.top_k = 10;
    }
  }

  for (auto _ : state) {
    benchmark::DoNotOptimize(server.ExecuteBatch(wave, &pool).data());
  }
  state.counters["sessions"] = static_cast<double>(server.num_sessions());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWave));
}
BENCHMARK(BM_ServeThroughput)
    ->Args({8, 100000})
    ->Args({1, 100000})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Quantized serving benches (scripts/bench.sh --suites simd). The step
// family is the serve-side streaming DP measured two ways over one
// synthetic fixture — the double column (MonotoneForwardStep) and the
// int16 quantized column; each has one body on every backend. The
// observe family is the same comparison end to end through
// Server::Observe (shard lock, session map and recommend bookkeeping
// included).

constexpr size_t kStepItems = 512;
constexpr size_t kStepSeq = 1024;

void ServeQuantizedStepBench(benchmark::State& state, int levels,
                             bool quantized) {
  Rng rng(31);
  const size_t num_levels = static_cast<size_t>(levels);
  std::vector<double> rows(kStepItems * num_levels);
  for (double& v : rows) v = -10.0 * rng.NextDouble();

  // Quantize each synthetic row with the production format from
  // serve/quantized_model.h: int16 residual lanes at a per-item scale
  // plus a Q15 multiplier back into kQuantAccScale accumulator units.
  std::vector<int16_t> qrows(rows.size());
  std::vector<int16_t> mults(kStepItems);
  for (size_t item = 0; item < kStepItems; ++item) {
    const double* row = rows.data() + item * num_levels;
    double row_max = row[0];
    for (size_t s = 1; s < num_levels; ++s) {
      row_max = std::max(row_max, row[s]);
    }
    double range = 0.0;
    for (size_t s = 0; s < num_levels; ++s) {
      range = std::max(range,
                       std::min(row_max - row[s], kQuantResidualRange));
    }
    for (size_t s = 0; s < num_levels; ++s) {
      const double residual = -std::min(row_max - row[s], kQuantResidualRange);
      qrows[item * num_levels + s] =
          range == 0.0 ? int16_t{0}
                       : static_cast<int16_t>(
                             std::lround(residual * 32767.0 / range));
    }
    mults[item] = static_cast<int16_t>(
        std::lround(kQuantAccScale * range / 32767.0 * 32768.0));
  }

  std::vector<int32_t> items(kStepSeq);
  for (int32_t& item : items) {
    item = static_cast<int32_t>(rng.NextInt(static_cast<int64_t>(kStepItems)));
  }
  const double log_stay = std::log(0.9);
  const double log_up = std::log(0.1);
  const int16_t q_stay =
      static_cast<int16_t>(std::lround(log_stay * kQuantAccScale));
  const int16_t q_up =
      static_cast<int16_t>(std::lround(log_up * kQuantAccScale));

  if (quantized) {
    std::vector<int16_t> column(num_levels);
    std::vector<int16_t> next(num_levels);
    for (auto _ : state) {
      simd::QuantizedForwardInit(
          qrows.data() + static_cast<size_t>(items[0]) * num_levels,
          mults[static_cast<size_t>(items[0])], nullptr, num_levels,
          column.data());
      for (size_t t = 1; t < kStepSeq; ++t) {
        const size_t item = static_cast<size_t>(items[t]);
        simd::QuantizedForwardStep(
            column.data(), qrows.data() + item * num_levels, mults[item],
            q_stay, q_up, /*allow_down=*/false, 0, num_levels, next.data());
        column.swap(next);
      }
      benchmark::DoNotOptimize(
          simd::QuantizedForwardLevel(column.data(), num_levels));
    }
  } else {
    std::vector<double> column(num_levels);
    std::vector<double> next(num_levels);
    const auto row = [&](size_t t) {
      return std::span<const double>(
          rows.data() + static_cast<size_t>(items[t]) * num_levels,
          num_levels);
    };
    for (auto _ : state) {
      MonotoneForwardStart(row(0), {}, column);
      for (size_t t = 1; t < kStepSeq; ++t) {
        MonotoneForwardStep(column, row(t), log_stay, log_up,
                            /*allow_down=*/false, 0.0, next);
        column.swap(next);
      }
      benchmark::DoNotOptimize(MonotoneForwardLevel(column));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kStepSeq));
}

// End-to-end single-session observe, double vs. quantized inference.
void ServeQuantizedObserveBench(benchmark::State& state, bool quantized) {
  Server server(BenchServingModel(), /*num_shards=*/64, quantized);
  Rng rng(7);
  const int num_items = BenchServingModel()->num_items();
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Observe(
        "bench-user", static_cast<ItemId>(rng.NextInt(num_items)), 0,
        false));
  }
  state.SetLabel(quantized ? "quantized" : "double");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void RegisterQuantizedBenches() {
  for (const int levels : {5, 32, 64}) {
    for (const bool quantized : {false, true}) {
      benchmark::RegisterBenchmark(
          ("BM_ServeQuantized/step/levels:" + std::to_string(levels) + "/" +
           (quantized ? "quantized" : "double"))
              .c_str(),
          [levels, quantized](benchmark::State& state) {
            ServeQuantizedStepBench(state, levels, quantized);
          });
    }
  }
  for (const bool quantized : {false, true}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_ServeQuantized/observe/") +
         (quantized ? "quantized" : "double"))
            .c_str(),
        [quantized](benchmark::State& state) {
          ServeQuantizedObserveBench(state, quantized);
        });
  }
}

}  // namespace
}  // namespace serve
}  // namespace upskill

int main(int argc, char** argv) {
  upskill::serve::RegisterQuantizedBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // Registry dump alongside the benchmark JSON when
  // UPSKILL_BENCH_METRICS_OUT is set (scripts/bench.sh --metrics).
  upskill::bench::MaybeWriteMetricsDump();
  benchmark::Shutdown();
  return 0;
}
