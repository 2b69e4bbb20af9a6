// Micro-benchmarks (google-benchmark) for the kernels behind the paper's
// complexity analysis (Section IV-C / V-C): the DP assignment step,
// distribution MLE fits, the item log-probability cache, difficulty
// estimators, rank metrics and one FFM epoch. These back the DESIGN.md
// ablation notes (hard assignment's cheap inner loop is what buys the
// reported 1000x-over-EM speedup).

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/difficulty.h"
#include "exec/backend.h"
#include "exec/shard.h"
#include "core/dp.h"
#include "core/posterior.h"
#include "core/recommend.h"
#include "core/trainer.h"
#include "common/rng.h"
#include "datagen/synthetic.h"
#include "dist/categorical.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/poisson.h"
#include "bench/common.h"
#include "eval/metrics.h"
#include "ffm/ffm.h"
#include "simd/simd.h"

namespace upskill {
namespace {

void BM_SolveMonotonePath(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const int levels = static_cast<int>(state.range(1));
  Rng rng(1);
  std::vector<double> log_probs(n * static_cast<size_t>(levels));
  for (double& v : log_probs) v = -10.0 * rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveMonotonePath(log_probs, levels));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_SolveMonotonePath)->Args({50, 5})->Args({500, 5})->Args({500, 10});

void BM_GammaFit(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) v = rng.NextGamma(3.0, 2.0);
  Gamma dist;
  for (auto _ : state) {
    dist.Fit(values);
    benchmark::DoNotOptimize(dist.shape());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_GammaFit)->Arg(1000)->Arg(100000);

void BM_CategoricalFit(benchmark::State& state) {
  Rng rng(3);
  const int cardinality = 1000;
  std::vector<double> values(static_cast<size_t>(state.range(0)));
  for (double& v : values) {
    v = static_cast<double>(rng.NextInt(cardinality));
  }
  Categorical dist(cardinality, 0.01);
  for (auto _ : state) {
    dist.Fit(values);
    benchmark::DoNotOptimize(dist.Probability(0));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_CategoricalFit)->Arg(1000)->Arg(100000);

void BM_PoissonLogProb(benchmark::State& state) {
  Poisson dist(7.3);
  double x = 0.0;
  for (auto _ : state) {
    x += 1.0;
    if (x > 60.0) x = 0.0;
    benchmark::DoNotOptimize(dist.LogProb(x));
  }
}
BENCHMARK(BM_PoissonLogProb);

// Shared synthetic fixture for the pipeline-level benches.
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

// The backend a thread-count argument selects: serial at one thread, a
// pool of `threads` workers otherwise.
std::shared_ptr<exec::Backend> BackendForThreads(int threads) {
  return exec::CreateBackend("", threads).value();
}

void BM_ItemLogProbCache(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trained.model.ItemLogProbCache(data.dataset.items()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          data.dataset.items().num_items());
}
BENCHMARK(BM_ItemLogProbCache);

// The pre-batching cache construction: one virtual LogProb call per
// (item, feature, level) through SkillModel::ItemLogProb. Baseline for
// BM_ItemLogProbCache.
void BM_ItemLogProbCacheReference(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const ItemTable& items = data.dataset.items();
  const int levels = trained.model.num_levels();
  for (auto _ : state) {
    std::vector<double> cache(static_cast<size_t>(items.num_items()) *
                              static_cast<size_t>(levels));
    for (ItemId item = 0; item < items.num_items(); ++item) {
      for (int s = 1; s <= levels; ++s) {
        cache[static_cast<size_t>(item) * static_cast<size_t>(levels) +
              static_cast<size_t>(s - 1)] =
            trained.model.ItemLogProb(items, item, s);
      }
    }
    benchmark::DoNotOptimize(cache.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          items.num_items());
}
BENCHMARK(BM_ItemLogProbCacheReference);

void BM_AssignmentStep(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  for (auto _ : state) {
    double ll = 0.0;
    benchmark::DoNotOptimize(
        AssignSkills(data.dataset, trained.model, nullptr, &ll));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_actions()));
}
BENCHMARK(BM_AssignmentStep);

// Seed assignment path: materialize every user's n×S log-prob lattice
// from the cache, then run the materialized DP, with one heap-allocated
// buffer per user. Baseline for BM_AssignSkills. Arg(0) is the thread
// count (users axis).
void BM_AssignSkillsReference(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const Dataset& dataset = data.dataset;
  const int threads = static_cast<int>(state.range(0));
  const std::shared_ptr<exec::Backend> backend = BackendForThreads(threads);
  const std::vector<double> cache =
      trained.model.ItemLogProbCache(dataset.items());
  const size_t levels = static_cast<size_t>(trained.model.num_levels());
  SkillAssignments assignments(static_cast<size_t>(dataset.num_users()));
  std::vector<double> user_ll(static_cast<size_t>(dataset.num_users()));
  for (auto _ : state) {
    backend->RunIndices(0, static_cast<size_t>(dataset.num_users()),
                        [&](size_t u) {
      std::span<const Action> seq =
          dataset.sequence(static_cast<UserId>(u));
      std::vector<double> log_probs(seq.size() * levels);
      for (size_t t = 0; t < seq.size(); ++t) {
        for (size_t s = 0; s < levels; ++s) {
          log_probs[t * levels + s] =
              cache[static_cast<size_t>(seq[t].item) * levels + s];
        }
      }
      MonotonePath path =
          SolveMonotonePath(log_probs, static_cast<int>(levels));
      user_ll[u] = path.log_likelihood;
      assignments[u] = std::move(path.levels);
    });
    double ll = 0.0;
    for (double v : user_ll) ll += v;
    benchmark::DoNotOptimize(ll);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.num_actions()));
}
BENCHMARK(BM_AssignSkillsReference)->Arg(1)->Arg(8);

// Fused, arena-backed assignment pass: the engine reads the item-indexed
// cache directly and reuses per-shard scratch, so steady-state iterations
// allocate nothing. Arg(0) is the thread count.
void BM_AssignSkills(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const Dataset& dataset = data.dataset;
  const int threads = static_cast<int>(state.range(0));
  const std::shared_ptr<exec::Backend> backend = BackendForThreads(threads);
  const std::vector<double> cache =
      trained.model.ItemLogProbCache(dataset.items());
  AssignmentEngine engine(dataset, trained.model.num_levels());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Assign(trained.model, cache, nullptr, backend.get()));
  }
  state.counters["threads"] = threads;
  state.counters["shards"] = exec::ResolveShardCount(
      0, backend.get(), static_cast<size_t>(dataset.num_users()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.num_actions()));
}
BENCHMARK(BM_AssignSkills)->Arg(1)->Arg(8);

// Thread x shard sweep over the same fused pass: registered dynamically
// in main() for every thread count in UPSKILL_BENCH_THREADS (see
// scripts/bench.sh --threads) crossed with shard counts {1, 4, 16}.
// Results are bitwise identical across the whole grid; only throughput
// moves.
void AssignSkillsSharded(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const Dataset& dataset = data.dataset;
  const int threads = static_cast<int>(state.range(0));
  const int shards = static_cast<int>(state.range(1));
  const std::shared_ptr<exec::Backend> backend = BackendForThreads(threads);
  const std::vector<double> cache =
      trained.model.ItemLogProbCache(dataset.items());
  AssignmentEngine engine(dataset, trained.model.num_levels(), shards);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.Assign(trained.model, cache, nullptr, backend.get()));
  }
  state.counters["threads"] = threads;
  state.counters["shards"] = shards;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(dataset.num_actions()));
}

void BM_UpdateStep(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  SkillModel model = trained.model;
  for (auto _ : state) {
    FitParameters(data.dataset, trained.assignments, &model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_actions()));
}
BENCHMARK(BM_UpdateStep);

// Sufficient-statistics update step at 1 and 8 threads (levels+features
// parallel). Arg(0) is the thread count.
void BM_FitParameters(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  const int threads = static_cast<int>(state.range(0));
  const std::shared_ptr<exec::Backend> backend = BackendForThreads(threads);
  ParallelOptions parallel;
  parallel.num_threads = threads;
  parallel.levels = threads > 1;
  parallel.features = threads > 1;
  SkillModel model = trained.model;
  for (auto _ : state) {
    FitParameters(data.dataset, trained.assignments, &model, backend.get(),
                  parallel);
  }
  state.counters["threads"] = threads;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.dataset.num_actions()));
}
BENCHMARK(BM_FitParameters)->Arg(1)->Arg(8);

void BM_DifficultyAssignment(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EstimateDifficultyByAssignment(data.dataset, trained.assignments));
  }
}
BENCHMARK(BM_DifficultyAssignment);

void BM_DifficultyGeneration(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EstimateDifficultyByGeneration(
        data.dataset.items(), trained.model, DifficultyPrior::kEmpirical,
        trained.assignments));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          data.dataset.items().num_items());
}
BENCHMARK(BM_DifficultyGeneration);

void BM_SequencePosterior(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  // The longest user exercises the forward-backward loop hardest.
  UserId user = 0;
  for (UserId u = 1; u < data.dataset.num_users(); ++u) {
    if (data.dataset.sequence(u).size() >
        data.dataset.sequence(user).size()) {
      user = u;
    }
  }
  const TransitionWeights weights = UninformativeTransitions(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSequencePosterior(
        data.dataset.items(), data.dataset.sequence(user), trained.model,
        weights));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(data.dataset.sequence(user).size()));
}
BENCHMARK(BM_SequencePosterior);

void BM_RecommendForUpskilling(benchmark::State& state) {
  const auto& data = PipelineData();
  const auto& trained = PipelineModel();
  static const std::vector<double>* difficulty = [] {
    auto result = EstimateDifficultyByGeneration(
        PipelineData().dataset.items(), PipelineModel().model,
        DifficultyPrior::kEmpirical, PipelineModel().assignments);
    return new std::vector<double>(std::move(result).value());
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RecommendForUpskilling(
        data.dataset, trained.model, trained.assignments, *difficulty, 3));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          data.dataset.items().num_items());
}
BENCHMARK(BM_RecommendForUpskilling);

void BM_KendallTauB(benchmark::State& state) {
  Rng rng(9);
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<double>(rng.NextInt(5));
    y[i] = x[i] + static_cast<double>(rng.NextInt(3));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(eval::KendallTauB(x, y));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KendallTauB)->Arg(1000)->Arg(100000);

void BM_FfmEpoch(benchmark::State& state) {
  Rng rng(11);
  const int num_users = 200;
  const int num_items = 300;
  std::vector<ffm::Example> examples;
  for (int i = 0; i < 5000; ++i) {
    const int u = static_cast<int>(rng.NextInt(num_users));
    const int item = static_cast<int>(rng.NextInt(num_items));
    examples.push_back(ffm::Example{
        {{0, u, 1.0}, {1, num_users + item, 1.0}},
        3.0 + rng.NextGaussian()});
  }
  auto model = ffm::FfmModel::Create(2, num_users + num_items, ffm::FfmConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.value().TrainEpoch(examples));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(examples.size()));
}
BENCHMARK(BM_FfmEpoch);

// ---------------------------------------------------------------------
// SIMD kernel benches (scripts/bench.sh --suites simd). Every log-prob
// batch bench is registered twice in main(): the ".../scalar" variant
// forces the fallback kernels through simd::ForceScalarForTest, the
// ".../vector" variant runs the compiled backend (identical to scalar on
// hosts without AVX2/NEON), so a single run carries the scalar-vs-vector
// pair BENCH_PR6.json is audited against. The streaming forward step has
// one body on every backend and is registered once per level count.

constexpr size_t kSimdBatch = 4096;

// Poisson/Categorical batches consume small integer counts; Gamma and
// LogNormal consume positive reals. The WithLogs variants additionally
// take the precomputed element logs — the form LogProbCache uses to
// share one scalar log pass across all S levels of an item column.
const std::vector<double>& SimdCountInputs() {
  static const std::vector<double>* inputs = [] {
    Rng rng(17);
    auto* values = new std::vector<double>(kSimdBatch);
    for (double& x : *values) x = static_cast<double>(rng.NextInt(60));
    return values;
  }();
  return *inputs;
}

const std::vector<double>& SimdPositiveInputs() {
  static const std::vector<double>* inputs = [] {
    Rng rng(19);
    auto* values = new std::vector<double>(kSimdBatch);
    for (double& x : *values) x = rng.NextGamma(3.0, 2.0);
    return values;
  }();
  return *inputs;
}

const std::vector<double>& SimdPositiveLogs() {
  static const std::vector<double>* logs = [] {
    auto* values = new std::vector<double>(SimdPositiveInputs());
    for (double& x : *values) x = std::log(x);
    return values;
  }();
  return *logs;
}

void LogProbBatchBench(benchmark::State& state, const Distribution& dist,
                       const std::vector<double>& xs, bool with_logs,
                       bool force_scalar) {
  simd::ForceScalarForTest(force_scalar);
  std::vector<double> out(xs.size());
  for (auto _ : state) {
    if (with_logs) {
      dist.LogProbBatchWithLogs(xs, SimdPositiveLogs(), out);
    } else {
      dist.LogProbBatch(xs, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  simd::ForceScalarForTest(false);
  state.SetLabel(force_scalar ? "scalar" : simd::BackendName());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xs.size()));
}

// The serve-side double-precision streaming DP: one O(S) forward-column
// update per observed action against a shared [item * S] log-prob cache.
// This is the double baseline the quantized serve bench (bench_serve.cc
// BM_ServeQuantized) is compared against.
void ForwardStepStreamingBench(benchmark::State& state, int levels) {
  Rng rng(23);
  const size_t num_items = 512;
  const size_t seq_len = 1024;
  std::vector<double> cache(num_items * static_cast<size_t>(levels));
  for (double& v : cache) v = -10.0 * rng.NextDouble();
  std::vector<int32_t> items(seq_len);
  for (int32_t& item : items) {
    item = static_cast<int32_t>(rng.NextInt(static_cast<int64_t>(num_items)));
  }
  const double log_stay = std::log(0.9);
  const double log_up = std::log(0.1);
  std::vector<double> column(static_cast<size_t>(levels));
  std::vector<double> next(static_cast<size_t>(levels));
  const auto row = [&](size_t t) {
    return std::span<const double>(
        cache.data() +
            static_cast<size_t>(items[t]) * static_cast<size_t>(levels),
        static_cast<size_t>(levels));
  };
  for (auto _ : state) {
    MonotoneForwardStart(row(0), {}, column);
    for (size_t t = 1; t < seq_len; ++t) {
      MonotoneForwardStep(column, row(t), log_stay, log_up,
                          /*allow_down=*/false, 0.0, next);
      column.swap(next);
    }
    benchmark::DoNotOptimize(column.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(seq_len));
}

void RegisterSimdBenches() {
  static const Poisson* poisson = new Poisson(7.3);
  static const Categorical* categorical = new Categorical(64, 0.01);
  static const Gamma* gamma = new Gamma(3.0, 2.0);
  static const LogNormal* lognormal = new LogNormal(0.5, 0.9);
  struct BatchCase {
    const char* name;
    const Distribution* dist;
    const std::vector<double>* xs;
    bool with_logs;
  };
  static const std::vector<BatchCase>* cases = new std::vector<BatchCase>{
      {"poisson", poisson, &SimdCountInputs(), false},
      {"categorical", categorical, &SimdCountInputs(), false},
      {"gamma", gamma, &SimdPositiveInputs(), false},
      {"lognormal", lognormal, &SimdPositiveInputs(), false},
      {"gamma_with_logs", gamma, &SimdPositiveInputs(), true},
      {"lognormal_with_logs", lognormal, &SimdPositiveInputs(), true},
  };
  for (const bool force_scalar : {true, false}) {
    const std::string backend = force_scalar ? "scalar" : "vector";
    for (const BatchCase& batch_case : *cases) {
      benchmark::RegisterBenchmark(
          ("BM_LogProbBatch/" + std::string(batch_case.name) + "/" + backend)
              .c_str(),
          [&batch_case, force_scalar](benchmark::State& state) {
            LogProbBatchBench(state, *batch_case.dist, *batch_case.xs,
                              batch_case.with_logs, force_scalar);
          });
    }
  }
  for (const int levels : {5, 32, 64}) {
    benchmark::RegisterBenchmark(
        ("BM_ForwardStepStreaming/levels:" + std::to_string(levels)).c_str(),
        [levels](benchmark::State& state) {
          ForwardStepStreamingBench(state, levels);
        });
  }
}

// Thread counts for the sharded sweeps: a space-separated list in
// UPSKILL_BENCH_THREADS (exported by scripts/bench.sh --threads),
// defaulting to {1, 8} to match the static benches.
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

void RegisterShardedSweeps() {
  for (const int threads : SweepThreadCounts()) {
    for (const int shards : {1, 4, 16}) {
      benchmark::RegisterBenchmark("BM_AssignSkillsSharded",
                                   AssignSkillsSharded)
          ->Args({threads, shards});
    }
  }
}

}  // namespace
}  // namespace upskill

int main(int argc, char** argv) {
  upskill::RegisterShardedSweeps();
  upskill::RegisterSimdBenches();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  // Registry dump alongside the benchmark JSON when
  // UPSKILL_BENCH_METRICS_OUT is set (scripts/bench.sh --metrics).
  upskill::bench::MaybeWriteMetricsDump();
  benchmark::Shutdown();
  return 0;
}
