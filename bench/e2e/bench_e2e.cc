// bench_e2e: the end-to-end benchmark of the whole loop — generate →
// pack → train → snapshot → serve over loopback TCP → ingest → compact →
// online refresh — driven only through the library's public API.
//
//   bench_e2e --workload W --seed N --seconds S --trace 0|1
//             [--smoke] [--workdir D] [--out F] [--trace-out T]
//             [--expect-ll X]
//
// One process runs one workload. It sets the workload up three times
// (setup_s is the median), measures for S seconds, checks every output,
// and prints one JSON line last on stdout. With --trace 0 that line holds
// the end-to-end metrics. With --trace 1 the same workload runs with the
// obs registry and span store on, every call into a layer inside a
// LayerTimer span, and the line holds the per-layer metrics; the Chrome
// trace goes to --trace-out. README.md defines every metric.
//
// Workloads (why each exists is in README.md; BENCHMARK.json gates the
// first two, whose headline repeats within its bound):
//   train-synthetic  Trainer::Train (4 threads, 15 iterations) on the
//                    paper's Synthetic dataset x12, then publish, repeated.
//   learn-loop       cycles of TCP ingest through the observe hook into
//                    the ingest log, compaction, online refresh, publish
//                    and snapshot swap.
//   serve-closed     closed loop, one binary and one text connection,
//                    256 requests in flight each, Zipf users.
//   serve-open       open loop, two binary connections on a fixed
//                    schedule, uniform users over a small working set.

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/e2e/common.h"
#include "bench/e2e/loadgen.h"
#include "core/difficulty.h"
#include "core/online_trainer.h"
#include "core/trainer.h"
#include "datagen/synthetic.h"
#include "eval/metrics.h"
#include "exec/backend_registry.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/quantized_model.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"
#include "simd/simd.h"
#include "store/compact.h"
#include "store/ingest_log.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace upskill {
namespace e2e {
namespace {

constexpr int kLevels = 5;
constexpr int kTrainThreads = 4;
// Below the 18-19 iterations the synthetic datasets need to converge, so
// every training does the same work whatever the seed (one iteration more
// or less would move the time per training by ~5%).
constexpr int kTrainIterations = 15;
constexpr int kDepth = 256;
constexpr size_t kReplayRequests = 10000;
// Far above every generated action time, so ingested observations land
// after each user's base history.
constexpr int64_t kIngestTimeBase = 1000000000;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".";
  std::string out;
  std::string trace_out;
  std::optional<double> expect_ll;
};

/// Input sizes of one workload.
struct Spec {
  int users = 0;
  int items = 0;
  /// Serving users over both connections (each owns half).
  int sessions = 0;
  bool zipf = false;
  bool text_connection = false;
  /// Open-loop total request rate; 0 means closed loop.
  double rate = 0.0;
  int cycle_records = 0;
  int cycle_users = 0;
  bool learns() const { return cycle_records > 0; }
  bool serves() const { return sessions > 0 || learns(); }
};

std::optional<Spec> SpecFor(const std::string& workload, bool smoke) {
  // Smoke scale is ~1/100 of the full inputs, for a quick test of every
  // path and check.
  const int div = smoke ? 100 : 1;
  Spec spec;
  // Every workload trains on the paper's Synthetic dataset (Section VI-A)
  // with 12x the users, ~6M actions. Not 10x: FitParameters shards its
  // count sweep only when the actions reach grid size x shards (50k items
  // x 5 levels x 20 shards = 5M on 4 threads), so ~5M actions would take
  // either path depending on the seed.
  spec.users = 120000 / div;
  spec.items = 50000 / div;
  if (workload == "serve-closed") {
    spec.sessions = 200000 / div;
    spec.zipf = true;
    spec.text_connection = true;
  } else if (workload == "serve-open") {
    spec.sessions = 20000 / div;
    spec.rate = smoke ? 2000.0 : 50000.0;
  } else if (workload == "learn-loop") {
    // A 1/6 base store (~1M actions, ~24 MB), so a run holds ~30 cycles.
    // On the full store a cycle is ~1.6 s, mostly compaction and the
    // verified open; a run then holds 6 and their median spreads ~8%.
    spec.users = 20000 / div;
    spec.cycle_records = 20000 / div;
    spec.cycle_users = 1000 / div;
  } else if (workload != "train-synthetic") {
    return std::nullopt;
  }
  return spec;
}

SkillModelConfig TrainConfig(int threads, bool users, bool levels,
                             bool features) {
  SkillModelConfig config;
  config.num_levels = kLevels;
  config.max_iterations = kTrainIterations;
  config.parallel.num_threads = threads;
  config.parallel.users = users;
  config.parallel.levels = levels;
  config.parallel.features = features;
  config.backend = threads > 1 ? "pool" : "serial";
  return config;
}

SkillModelConfig DefaultTrainConfig() {
  return TrainConfig(kTrainThreads, true, true, true);
}

/// A fresh path in `dir` for a file named `name`. A run never deletes or
/// overwrites a file until it ends: on a filesystem mounted with online
/// discard, freeing a large file stalls the next writes and fsyncs, which
/// would land in whichever operation came next.
std::string NewPath(const std::string& dir, const std::string& name) {
  static std::atomic<int> counter{0};
  return dir + "/" + std::to_string(counter++) + "-" + name;
}

/// Waits until the filesystem holding `dir` has written back everything,
/// including the discards of deleted files, so one run's clean-up never
/// lands in another run's timings.
void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

/// Turns the obs registry and the span store on or off together. Enabling
/// clears the span store.
void SetTracing(bool on) {
  obs::SetMetricsEnabled(on);
  if (on) {
    obs::TraceRecorder::Global().Enable();
  } else {
    obs::TraceRecorder::Global().Disable();
  }
}

exec::Backend* PoolBackend() {
  static const std::shared_ptr<exec::Backend> backend =
      exec::CreateBackend("pool", kTrainThreads).value();
  return backend.get();
}

void RecordTrainResult(const TrainResult& result) {
  Layers().Add("core.train.init", result.init_seconds);
  Layers().Add("core.train.cache", result.cache_seconds);
  Layers().Add("core.train.assign", result.assignment_seconds);
  Layers().Add("core.train.update", result.update_seconds);
  Layers().Add("core.train.iterations", result.iterations);
  Layers().Add("core.train.dp_solved",
               static_cast<double>(result.reassigned_users));
  const double dps =
      static_cast<double>(result.skipped_users + result.reassigned_users);
  Layers().Add("core.train.dp_skip_ratio",
               dps > 0 ? static_cast<double>(result.skipped_users) / dps : 0);
}

/// Trained model → servable model: difficulty, snapshot make/save/load and
/// the serving view, each a timed call into its layer.
Result<std::shared_ptr<const serve::ServingModel>> Publish(
    const SkillModel& model, const Dataset& dataset,
    const SkillAssignments& assignments, const std::string& path) {
  Result<std::vector<double>> difficulty = [&] {
    LayerTimer timer("core.difficulty");
    return EstimateDifficultyByGeneration(dataset.items(), model,
                                          DifficultyPrior::kEmpirical,
                                          assignments);
  }();
  if (!difficulty.ok()) return difficulty.status();
  Result<serve::ModelSnapshot> snapshot = [&] {
    LayerTimer timer("serve.snapshot_make");
    return serve::MakeSnapshot(model, dataset.items(),
                               std::move(difficulty).value());
  }();
  if (!snapshot.ok()) return snapshot.status();
  {
    LayerTimer timer("serve.snapshot_save");
    UPSKILL_RETURN_IF_ERROR(serve::SaveSnapshot(snapshot.value(), path));
  }
  Layers().Add("serve.snapshot_bytes",
               static_cast<double>(std::filesystem::file_size(path)));
  Result<serve::ModelSnapshot> loaded = [&] {
    LayerTimer timer("serve.snapshot_load");
    return serve::LoadSnapshot(path);
  }();
  if (!loaded.ok()) return loaded.status();
  LayerTimer timer("serve.model_build");
  return serve::ServingModel::FromSnapshot(std::move(loaded).value(),
                                           PoolBackend());
}

/// Observe hook target: tees every accepted observation into the current
/// cycle's ingest log (none between cycles).
struct IngestTee {
  std::atomic<store::IngestLogWriter*> writer{nullptr};
  std::atomic<uint64_t> failures{0};
  bool timed = false;
  std::atomic<uint64_t> append_ns{0};
  std::atomic<uint64_t> appends{0};
};

/// One set-up workload. Members are destroyed in reverse order: the
/// generator connections, then the front ends, then the server.
struct Fixture {
  std::string dir;
  std::string store_path;
  datagen::GroundTruth truth;
  /// Item ids by true difficulty (StreamConfig::item_pools).
  std::shared_ptr<const std::vector<std::vector<ItemId>>> item_pools;
  /// The base store, mapped (the dataset keeps the mapping alive).
  Dataset dataset;
  std::unique_ptr<OnlineTrainer> online;
  std::shared_ptr<const serve::ServingModel> model;
  IngestTee tee;
  std::unique_ptr<serve::Server> server;
  /// One single-worker front end per connection: with one SO_REUSEPORT
  /// listener and two workers the kernel would put both connections on
  /// the same worker about half the time.
  std::vector<std::unique_ptr<net::NetServer>> front_ends;
  std::vector<StreamConfig> stream_configs;
  std::vector<std::unique_ptr<RequestStream>> streams;
  std::vector<std::unique_ptr<LoadConnection>> connections;
  /// learn-loop: the next observe time of each connection.
  std::vector<int64_t> next_time;
};

/// One observe per user of `config`, in order.
StreamConfig WarmupConfig(StreamConfig config) {
  config.pick = StreamConfig::Pick::kRoundRobin;
  config.recommend_share = 0.0;
  return config;
}

/// Base-store users whose observations learn-loop cycle `cycle` ingests,
/// the ones connection `connection` owns (every other one).
std::vector<std::string> CycleUsers(const Fixture& fx, const Spec& spec,
                                    const Options& opts, int cycle,
                                    int connection) {
  const uint64_t num_users = static_cast<uint64_t>(fx.dataset.num_users());
  const uint64_t offset =
      opts.seed * 7919 +
      static_cast<uint64_t>(cycle) * static_cast<uint64_t>(spec.cycle_users);
  std::vector<std::string> users;
  for (int i = connection; i < spec.cycle_users; i += 2) {
    users.push_back(fx.dataset.user_name(
        static_cast<UserId>((offset + static_cast<uint64_t>(i)) % num_users)));
  }
  return users;
}

Status Setup(const Spec& spec, const Options& opts, const std::string& dir,
             Fixture* fx) {
  fx->dir = dir;
  datagen::SyntheticConfig data_config;
  data_config.num_levels = kLevels;
  data_config.num_users = spec.users;
  data_config.num_items = spec.items;
  data_config.seed = opts.seed;
  fx->store_path = NewPath(dir, "base.store");
  {
    // The library sees the generated data only through the packed store.
    Result<datagen::GeneratedData> data = [&] {
      LayerTimer timer("datagen.generate");
      return datagen::GenerateSynthetic(data_config);
    }();
    if (!data.ok()) return data.status();
    LayerTimer timer("store.pack");
    UPSKILL_RETURN_IF_ERROR(
        store::PackDataset(data.value().dataset, fx->store_path));
    fx->truth = std::move(data.value().truth);
  }
  auto pools = std::make_shared<std::vector<std::vector<ItemId>>>(kLevels);
  for (size_t item = 0; item < fx->truth.difficulty.size(); ++item) {
    const int level = static_cast<int>(fx->truth.difficulty[item]);
    (*pools)[static_cast<size_t>(level - 1)].push_back(
        static_cast<ItemId>(item));
  }
  fx->item_pools = std::move(pools);
  Result<store::StoreReader> reader = [&] {
    LayerTimer timer("store.open_verified");
    return store::StoreReader::Open(fx->store_path);
  }();
  if (!reader.ok()) return reader.status();
  {
    LayerTimer timer("store.map");
    Result<Dataset> mapped = reader.value().MapDataset();
    if (!mapped.ok()) return mapped.status();
    fx->dataset = std::move(mapped).value();
  }
  if (!spec.serves()) return Status::OK();

  Result<TrainResult> trained = Status::Internal("untrained");
  {
    LayerTimer timer("core.train");
    if (spec.learns()) {
      fx->online = std::make_unique<OnlineTrainer>(DefaultTrainConfig());
      trained = fx->online->TrainFullReplay(fx->dataset);
    } else {
      trained = Trainer(DefaultTrainConfig()).Train(fx->dataset);
    }
  }
  if (!trained.ok()) return trained.status();
  RecordTrainResult(trained.value());
  Result<std::shared_ptr<const serve::ServingModel>> model =
      Publish(trained.value().model, fx->dataset, trained.value().assignments,
              NewPath(dir, "serve.snap"));
  if (!model.ok()) return model.status();
  fx->model = model.value();
  fx->server = std::make_unique<serve::Server>(fx->model);
  if (spec.learns()) {
    fx->tee.timed = opts.trace;
    IngestTee* tee = &fx->tee;
    fx->server->SetObserveHook(
        [tee](const std::string& user, ItemId item, int64_t time) {
          store::IngestLogWriter* writer =
              tee->writer.load(std::memory_order_acquire);
          if (writer == nullptr) return;
          const Clock::time_point start =
              tee->timed ? Clock::now() : Clock::time_point();
          if (!writer->Append({user, time, item}).ok()) ++tee->failures;
          if (tee->timed) {
            tee->append_ns += static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - start)
                    .count());
            ++tee->appends;
          }
        });
  }

  for (int c = 0; c < 2; ++c) {
    net::NetServerConfig config;
    config.num_workers = 1;
    auto front_end =
        std::make_unique<net::NetServer>(fx->server.get(), nullptr, config);
    {
      LayerTimer timer("net.start");
      UPSKILL_RETURN_IF_ERROR(front_end->Start());
    }
    const bool text = spec.text_connection && c == 1;
    auto connection = std::make_unique<LoadConnection>(text, kLevels);
    UPSKILL_RETURN_IF_ERROR(connection->Connect(front_end->port()));
    fx->front_ends.push_back(std::move(front_end));
    fx->connections.push_back(std::move(connection));

    StreamConfig stream;
    stream.item_pools = fx->item_pools;
    stream.seed = opts.seed * 16 + static_cast<uint64_t>(c);
    if (spec.learns()) {
      stream.users = CycleUsers(*fx, spec, opts, 0, c);
      stream.pick = StreamConfig::Pick::kRoundRobin;
      stream.recommend_share = 0.0;
      stream.timed = true;
      stream.first_time = kIngestTimeBase;
    } else {
      for (int u = c; u < spec.sessions; u += 2) {
        stream.users.push_back("u" + std::to_string(u));
      }
      stream.pick = spec.zipf ? StreamConfig::Pick::kZipf
                              : StreamConfig::Pick::kUniform;
    }
    fx->stream_configs.push_back(stream);
    fx->streams.push_back(std::make_unique<RequestStream>(stream));
  }

  // Warm-up: one observe for every user of each connection, so all the
  // sessions exist before the clock starts and the measured phase runs at
  // a steady session count. learn-loop's hook has no log yet, so nothing
  // is ingested.
  std::vector<LoadStats> warmup(2);
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([fx, c, &warmup] {
      RequestStream stream(WarmupConfig(fx->stream_configs[c]));
      fx->connections[c]->RunClosed(
          &stream, kDepth, Clock::time_point::max(),
          fx->stream_configs[c].users.size(), /*record=*/false, &warmup[c]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < 2; ++c) {
    if (warmup[c].failed > 0) {
      return Status::Internal("warm-up failed: " + warmup[c].first_error);
    }
    fx->next_time.push_back(
        kIngestTimeBase +
        static_cast<int64_t>(fx->stream_configs[c].users.size()));
    if (!spec.learns()) fx->connections[c]->Record(kReplayRequests);
  }
  return Status::OK();
}

/// Outcome of a measured phase.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t ops = 0;
  double wall_s = 0.0;
  /// ru_maxrss when the measured operations end, before the checks.
  double peak_rss_mb = 0.0;
  /// Per-op latency in milliseconds (train-synthetic, learn-loop).
  std::vector<double> op_ms;
  /// Request latency over every connection (serve-closed, serve-open).
  LatencyHistogram request_us;
  /// Per load-generator connection.
  std::vector<LoadStats> load;
  std::vector<double> connection_wall_s;
  std::vector<bool> text;
};

// ----------------------------------------------------------------------
// train-synthetic

struct TrainOp {
  double seconds = 0.0;
  double log_likelihood = 0.0;
  bool monotone = true;
  std::string snapshot_bytes;
  SkillAssignments assignments;
  std::shared_ptr<const serve::ServingModel> model;
};

/// One unit of train-synthetic: Trainer::Train, then publish.
/// `snapshot_bytes` is read after the clock stops.
Result<TrainOp> TrainAndPublish(const Fixture& fx,
                                const SkillModelConfig& config) {
  const std::string snapshot_path = NewPath(fx.dir, "train.snap");
  const Clock::time_point start = Clock::now();
  Result<TrainResult> trained = [&] {
    LayerTimer timer("core.train");
    return Trainer(config).Train(fx.dataset);
  }();
  if (!trained.ok()) return trained.status();
  Result<std::shared_ptr<const serve::ServingModel>> model =
      Publish(trained.value().model, fx.dataset, trained.value().assignments,
              snapshot_path);
  if (!model.ok()) return model.status();
  TrainOp op;
  op.seconds = SecondsSince(start);
  RecordTrainResult(trained.value());
  op.log_likelihood = trained.value().final_log_likelihood;
  const std::vector<double>& trace = trained.value().log_likelihood_trace;
  for (size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] < trace[i - 1]) op.monotone = false;
  }
  op.snapshot_bytes = FileBytes(snapshot_path);
  op.assignments = std::move(trained.value().assignments);
  op.model = std::move(model).value();
  return op;
}

Phase RunTrainSynthetic(Fixture* fx, const Options& opts, Report* report) {
  Phase phase;
  std::optional<TrainOp> first;
  const Clock::time_point start = Clock::now();
  while (phase.ops < 3 || SecondsSince(start) < opts.seconds) {
    ++phase.attempted;
    Result<TrainOp> op = [&] {
      LayerTimer timer("bench.op");
      return TrainAndPublish(*fx, DefaultTrainConfig());
    }();
    if (!report->Check(op.ok(), "train: " + op.status().ToString())) {
      ++phase.failed;
      break;
    }
    ++phase.ops;
    phase.op_ms.push_back(1e3 * op.value().seconds);
    report->Check(op.value().monotone, "log-likelihood trace decreased");
    if (!first) {
      first = std::move(op).value();
      continue;
    }
    report->Check(
        op.value().log_likelihood == first->log_likelihood &&
            op.value().snapshot_bytes == first->snapshot_bytes,
        "repeat training differs from the first (model bytes or "
        "log-likelihood)");
  }
  phase.wall_s = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();
  if (!first) return phase;
  fx->model = first->model;

  // Outside the clock: one serial training must give the same bytes.
  ++phase.attempted;
  Result<TrainOp> serial =
      TrainAndPublish(*fx, TrainConfig(1, false, false, false));
  if (!report->Check(serial.ok(),
                     "serial train: " + serial.status().ToString())) {
    ++phase.failed;
  } else {
    report->Check(serial.value().log_likelihood == first->log_likelihood &&
                      serial.value().snapshot_bytes == first->snapshot_bytes,
                  "4-thread training differs from 1-thread training");
  }
  std::vector<double> assigned;
  std::vector<double> truth;
  for (size_t u = 0; u < first->assignments.size(); ++u) {
    for (size_t n = 0; n < first->assignments[u].size(); ++n) {
      assigned.push_back(first->assignments[u][n]);
      truth.push_back(fx->truth.skill[u][n]);
    }
  }
  const double pearson = eval::PearsonCorrelation(assigned, truth);
  report->Note("final_log_likelihood", first->log_likelihood);
  report->Note("pearson_assigned_vs_true", pearson);
  // Far below the usual value means the trainer no longer recovers the
  // planted levels.
  report->Check(pearson >= (opts.smoke ? 0.3 : 0.6),
                "Pearson r of assigned vs true levels " +
                    std::to_string(pearson) + " below floor");
  if (opts.expect_ll) {
    const double expected = *opts.expect_ll;
    report->Check(std::fabs(first->log_likelihood - expected) <=
                      1e-6 * std::fabs(expected),
                  "final log-likelihood " +
                      JsonNumber(first->log_likelihood) +
                      " differs from the recorded " + JsonNumber(expected));
  }
  return phase;
}

// ----------------------------------------------------------------------
// Serving workloads

/// Runs both connections until `deadline`, closed or open loop, and
/// returns the measured phase.
Phase RunServing(Fixture* fx, const Spec& spec, Clock::time_point deadline,
                 uint64_t max_requests) {
  Phase phase;
  phase.load.resize(fx->connections.size());
  phase.connection_wall_s.resize(fx->connections.size());
  const Clock::time_point start = Clock::now();
  {
    LayerTimer timer("loadgen.window");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < fx->connections.size(); ++c) {
      threads.emplace_back([&, c] {
        const Clock::time_point thread_start = Clock::now();
        if (spec.rate > 0) {
          fx->connections[c]->RunOpen(fx->streams[c].get(),
                                      spec.rate / 2.0, deadline,
                                      &phase.load[c]);
        } else {
          fx->connections[c]->RunClosed(fx->streams[c].get(), kDepth,
                                        deadline, max_requests,
                                        /*record=*/true, &phase.load[c]);
        }
        phase.connection_wall_s[c] = SecondsSince(thread_start);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  phase.wall_s = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();
  for (size_t c = 0; c < phase.load.size(); ++c) {
    const LoadStats& stats = phase.load[c];
    phase.attempted += stats.sent;
    phase.failed += stats.failed;
    phase.ops += stats.completed;
    phase.text.push_back(fx->connections[c]->text());
    phase.request_us.Merge(stats.latency_us);
  }
  return phase;
}

/// Replays the warm-up and each connection's first measured requests
/// in-process on a fresh Server; the levels and pick counts must equal
/// what came over TCP.
void CheckReplay(const Fixture& fx, Report* report) {
  serve::Server fresh(fx.model);
  serve::ServeRequest request;
  for (const StreamConfig& config : fx.stream_configs) {
    RequestStream warmup(WarmupConfig(config));
    for (size_t i = 0; i < config.users.size(); ++i) {
      warmup.Next(&request);
      (void)fresh.Observe(request.user, request.item, request.time,
                          request.has_time);
    }
  }
  size_t compared = 0;
  size_t mismatched = 0;
  for (const auto& connection : fx.connections) {
    const auto& requests = connection->recorded_requests();
    const auto& results = connection->recorded_results();
    for (size_t i = 0; i < results.size(); ++i) {
      const serve::ServeRequest& request = requests[i];
      int result = -1;
      if (request.kind == serve::ServeRequest::Kind::kObserve) {
        const auto level = fresh.Observe(request.user, request.item,
                                         request.time, request.has_time);
        if (level.ok()) result = level.value().level;
      } else {
        UpskillRecommendationOptions options;
        options.max_results = request.top_k;
        options.stretch = request.stretch;
        const auto picks = fresh.Recommend(request.user, options);
        if (picks.ok()) result = static_cast<int>(picks.value().size());
      }
      ++compared;
      if (result != results[i]) ++mismatched;
    }
  }
  report->Check(compared > 0 && mismatched == 0,
                "in-process replay of " + std::to_string(compared) +
                    " TCP requests mismatched " + std::to_string(mismatched));
}

// ----------------------------------------------------------------------
// learn-loop

struct CycleResult {
  double seconds = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<LoadStats> load;
  double ingest_wall_s = 0.0;
};

/// What a fold reports for the checks.
struct FoldResult {
  store::CompactStats compacted;
  OnlineRefreshStats refreshed;
};

/// From a closed ingest log to a new snapshot in service: compaction into
/// the base store, verified open and map of the result, online refresh of
/// the base-trained `trainer`, publish to `snapshot_path`, and swap.
Result<FoldResult> Fold(Fixture* fx, OnlineTrainer* trainer,
                        const std::string& log_path,
                        const std::string& snapshot_path) {
  FoldResult out;
  const std::string merged_path = NewPath(fx->dir, "merged.store");
  Result<store::CompactStats> compacted = [&] {
    LayerTimer timer("store.compact");
    return store::CompactStore(fx->store_path, log_path, merged_path);
  }();
  if (!compacted.ok()) return compacted.status();
  out.compacted = compacted.value();
  Result<store::StoreReader> reader = [&] {
    LayerTimer timer("store.open_verified");
    return store::StoreReader::Open(merged_path);
  }();
  if (!reader.ok()) return reader.status();
  Result<Dataset> merged = [&] {
    LayerTimer timer("store.map");
    return reader.value().MapDataset();
  }();
  if (!merged.ok()) return merged.status();
  Result<OnlineRefreshStats> refreshed = [&] {
    LayerTimer timer("core.online.refresh");
    return trainer->Refresh(fx->dataset, merged.value());
  }();
  if (!refreshed.ok()) return refreshed.status();
  out.refreshed = refreshed.value();
  Result<std::shared_ptr<const serve::ServingModel>> model =
      Publish(trainer->model(), merged.value(), trainer->assignments(),
              snapshot_path);
  if (!model.ok()) return model.status();
  LayerTimer timer("serve.swap");
  fx->server->SwapSnapshot(model.value());
  return out;
}

/// One continuous-learning cycle: ingest `cycle_records` observations
/// from `cycle_users` users over TCP into a fresh log, then fold it. Every
/// cycle folds its log into the same base store, from a copy of the
/// base-trained state, so each does the same work however many cycles a
/// run fits.
CycleResult RunCycle(Fixture* fx, const Spec& spec, const Options& opts,
                     int cycle, Report* report) {
  CycleResult out;
  out.load.resize(2);
  const std::string log_path = NewPath(fx->dir, "cycle.log");
  const std::string snapshot_path = NewPath(fx->dir, "cycle.snap");

  std::vector<std::string> users;
  std::vector<std::unique_ptr<RequestStream>> streams;
  for (int c = 0; c < 2; ++c) {
    StreamConfig stream = fx->stream_configs[c];
    stream.users = CycleUsers(*fx, spec, opts, cycle, c);
    stream.first_time = fx->next_time[c];
    users.insert(users.end(), stream.users.begin(), stream.users.end());
    streams.push_back(std::make_unique<RequestStream>(stream));
  }
  const uint64_t per_connection =
      static_cast<uint64_t>(spec.cycle_records / 2);
  OnlineTrainer trainer = *fx->online;

  Result<std::unique_ptr<store::IngestLogWriter>> writer =
      store::IngestLogWriter::Open(log_path);
  if (!report->Check(writer.ok(),
                     "ingest log: " + writer.status().ToString())) {
    out.attempted = out.failed = 1;
    return out;
  }
  const Clock::time_point start = Clock::now();
  std::optional<LayerTimer> cycle_span;
  cycle_span.emplace("bench.op");
  fx->tee.writer.store(writer.value().get(), std::memory_order_release);
  {
    LayerTimer timer("loadgen.window");
    const Clock::time_point ingest_start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < 2; ++c) {
      threads.emplace_back([&, c] {
        fx->connections[c]->RunClosed(streams[c].get(), kDepth,
                                      Clock::time_point::max(),
                                      per_connection, /*record=*/true,
                                      &out.load[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    out.ingest_wall_s = SecondsSince(ingest_start);
  }
  fx->tee.writer.store(nullptr, std::memory_order_release);
  for (int c = 0; c < 2; ++c) {
    fx->next_time[c] += static_cast<int64_t>(per_connection);
    out.attempted += out.load[c].sent;
    out.failed += out.load[c].failed;
  }
  const Status synced = writer.value()->Sync();
  writer.value().reset();
  ++out.attempted;
  const Result<FoldResult> folded =
      synced.ok() ? Fold(fx, &trainer, log_path, snapshot_path)
                  : Result<FoldResult>(synced);
  cycle_span.reset();
  out.seconds = SecondsSince(start);
  if (!report->Check(folded.ok(), "cycle: " + folded.status().ToString())) {
    ++out.failed;
    return out;
  }

  // Checks, outside the clock.
  const OnlineRefreshStats& stats = folded.value().refreshed;
  report->Check(folded.value().compacted.total_actions ==
                    fx->dataset.num_actions() + 2 * per_connection,
                "compacted action count != base + ingested records");
  report->Check(stats.dirty_users == users.size(),
                "refresh dirty_users " + std::to_string(stats.dirty_users) +
                    " != distinct ingested users " +
                    std::to_string(users.size()));
  Layers().Add("core.online.dirty_ratio",
               static_cast<double>(stats.dirty_users) /
                   static_cast<double>(stats.dirty_users + stats.clean_users));
  size_t missing = 0;
  for (const std::string& user : users) {
    if (!fx->server->CurrentLevel(user).ok()) ++missing;
  }
  report->Check(missing == 0, "level failed after swap for " +
                                  std::to_string(missing) + " ingested users");
  if (cycle == 0) {
    const std::string again = NewPath(fx->dir, "again.snap");
    Result<serve::ModelSnapshot> loaded = serve::LoadSnapshot(snapshot_path);
    report->Check(loaded.ok() &&
                      serve::SaveSnapshot(loaded.value(), again).ok() &&
                      FileBytes(again) == FileBytes(snapshot_path),
                  "snapshot Save -> Load -> Save changed the bytes");
  }
  report->Check(fx->tee.failures.load() == 0, "ingest append failed");
  return out;
}

Phase RunLearnLoop(Fixture* fx, const Spec& spec, const Options& opts,
                   Report* report) {
  Phase phase;
  phase.load.resize(2);
  phase.connection_wall_s.assign(2, 0.0);
  phase.text.assign(2, false);
  const Clock::time_point start = Clock::now();
  for (int cycle = 0; cycle < 2 || SecondsSince(start) < opts.seconds;
       ++cycle) {
    CycleResult result = RunCycle(fx, spec, opts, cycle, report);
    phase.attempted += result.attempted;
    phase.failed += result.failed;
    if (result.failed > 0) break;
    ++phase.ops;
    phase.op_ms.push_back(1e3 * result.seconds);
    for (int c = 0; c < 2; ++c) {
      LoadStats& total = phase.load[c];
      const LoadStats& stats = result.load[c];
      total.sent += stats.sent;
      total.completed += stats.completed;
      total.failed += stats.failed;
      total.send_calls += stats.send_calls;
      total.recv_calls += stats.recv_calls;
      total.backlog_max = std::max(total.backlog_max, stats.backlog_max);
      total.cpu_seconds += stats.cpu_seconds;
      total.latency_us.Merge(stats.latency_us);
      phase.connection_wall_s[c] += result.ingest_wall_s;
    }
  }
  phase.wall_s = SecondsSince(start);
  phase.peak_rss_mb = PeakRssMb();
  return phase;
}

// ----------------------------------------------------------------------
// Traced-run extras: registry readout, layer probes, thread sweep and
// tracing overhead.

/// Sums and quantiles over every label set of a registry instrument.
class RegistryView {
 public:
  RegistryView() : snapshot_(obs::MetricsRegistry::Global().Collect()) {}

  double Counter(const std::string& name) const {
    double total = 0.0;
    for (const auto& sample : snapshot_.counters) {
      if (sample.name == name) total += static_cast<double>(sample.value);
    }
    return total;
  }
  double Gauge(const std::string& name) const {
    for (const auto& sample : snapshot_.gauges) {
      if (sample.name == name) return sample.value;
    }
    return 0.0;
  }
  double HistogramSum(const std::string& name) const {
    double total = 0.0;
    for (const auto& sample : snapshot_.histograms) {
      if (sample.name == name) total += sample.sum;
    }
    return total;
  }
  double HistogramQuantile(const std::string& name, double q) const {
    std::vector<uint64_t> counts;
    std::vector<double> bounds;
    for (const auto& sample : snapshot_.histograms) {
      if (sample.name != name) continue;
      if (counts.empty()) {
        counts.assign(sample.counts.size(), 0);
        bounds = sample.bounds;
      }
      if (sample.counts.size() != counts.size()) continue;
      for (size_t i = 0; i < counts.size(); ++i) counts[i] += sample.counts[i];
    }
    return counts.empty() ? 0.0 : obs::QuantileFromBuckets(counts, bounds, q);
  }

 private:
  obs::MetricsSnapshot snapshot_;
};

/// Nanoseconds per call of `body` over `count` calls.
template <typename Body>
double NsPerCall(size_t count, Body&& body) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) body(i);
  return count == 0 ? 0.0
                    : 1e9 * SecondsSince(start) / static_cast<double>(count);
}

struct ProbeRequests {
  std::vector<serve::ServeRequest> observes;
  std::vector<serve::ServeRequest> recommends;
  std::vector<serve::ServeRequest> all;
};

ProbeRequests MakeProbeRequests(const StreamConfig& config, size_t count) {
  ProbeRequests out;
  RequestStream stream(config);
  for (size_t i = 0; i < count; ++i) {
    serve::ServeRequest request;
    stream.Next(&request);
    request.has_time = false;
    (request.kind == serve::ServeRequest::Kind::kObserve ? out.observes
                                                        : out.recommends)
        .push_back(request);
    out.all.push_back(std::move(request));
  }
  return out;
}

void ReplayTyped(serve::Server* server,
                 const std::vector<serve::ServeRequest>& requests) {
  UpskillRecommendationOptions options;
  for (const serve::ServeRequest& request : requests) {
    if (request.kind == serve::ServeRequest::Kind::kObserve) {
      (void)server->Observe(request.user, request.item, 0, false);
    } else {
      options.max_results = request.top_k;
      (void)server->Recommend(request.user, options);
    }
  }
}

/// The quantized serving pair, kept in one place: the int16 model build
/// and the observe cost on a quantized Server.
void ProbeQuantized(const std::shared_ptr<const serve::ServingModel>& model,
                    const ProbeRequests& requests, Report* report) {
  const Clock::time_point start = Clock::now();
  const auto quantized =
      serve::QuantizedModel::FromServingModel(*model, PoolBackend());
  const double quantize_s = SecondsSince(start);
  report->Check(quantized != nullptr, "quantized model build failed");
  serve::Server server(model, 64, /*quantized=*/true);
  ReplayTyped(&server, requests.observes);
  report->Metric("serve.quantize_s", quantize_s, "s", 1);
  report->Metric("serve.observe_quantized_ns",
                 NsPerCall(requests.observes.size(),
                           [&](size_t i) {
                             const auto& r = requests.observes[i];
                             (void)server.Observe(r.user, r.item, 0, false);
                           }),
                 "ns", requests.observes.size());
}

/// Per-call cost of the serve and net layers on the workload's own
/// request streams, in-process, one thread unless stated. Returns the
/// observe cost in ns.
double ProbeLayers(const std::shared_ptr<const serve::ServingModel>& model,
                   const std::vector<StreamConfig>& configs, size_t count,
                   Report* report) {
  const ProbeRequests requests = MakeProbeRequests(configs[0], count);
  double observe_ns = 0.0;
  {
    serve::Server server(model);
    ReplayTyped(&server, requests.all);  // creates the sessions
    UpskillRecommendationOptions options;
    observe_ns = NsPerCall(requests.observes.size(), [&](size_t i) {
      const auto& r = requests.observes[i];
      (void)server.Observe(r.user, r.item, 0, false);
    });
    report->Metric("serve.observe_ns", observe_ns, "ns",
                   requests.observes.size());
    report->Metric("serve.recommend_ns",
                   NsPerCall(requests.recommends.size(),
                             [&](size_t i) {
                               options.max_results =
                                   requests.recommends[i].top_k;
                               (void)server.Recommend(
                                   requests.recommends[i].user, options);
                             }),
                   "ns", requests.recommends.size());
  }
  {
    // Two threads on disjoint users, like the two TCP connections.
    const ProbeRequests second = MakeProbeRequests(configs[1], count);
    serve::Server server(model);
    ReplayTyped(&server, requests.all);
    ReplayTyped(&server, second.all);
    std::vector<double> ns(2, 0.0);
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        const auto& observes = (t == 0 ? requests : second).observes;
        ns[t] = NsPerCall(observes.size(), [&](size_t i) {
          (void)server.Observe(observes[i].user, observes[i].item, 0, false);
        });
      });
    }
    for (std::thread& thread : threads) thread.join();
    report->Metric("serve.observe_contended_ns", (ns[0] + ns[1]) / 2.0, "ns",
                   requests.observes.size() + second.observes.size());
  }
  ProbeQuantized(model, requests, report);
  {
    std::vector<std::string> lines;
    for (const serve::ServeRequest& r : requests.all) {
      lines.push_back(r.kind == serve::ServeRequest::Kind::kObserve
                          ? "observe " + r.user + " " + std::to_string(r.item)
                          : "recommend " + r.user + " " +
                                std::to_string(r.top_k));
    }
    std::vector<serve::ServeRequest> parsed(lines.size());
    report->Metric("serve.parse_text_ns",
                   NsPerCall(lines.size(),
                             [&](size_t i) {
                               auto request =
                                   serve::ParseServeRequest(lines[i]);
                               if (request.ok()) parsed[i] = request.value();
                             }),
                   "ns", lines.size());
    serve::Server server(model);
    for (const auto& request : parsed) (void)server.Execute(request);
    report->Metric("serve.execute_text_ns",
                   NsPerCall(parsed.size(),
                             [&](size_t i) {
                               (void)server.Execute(parsed[i]);
                             }),
                   "ns", parsed.size());
  }
  {
    std::string frames;
    frames.reserve(requests.all.size() * 48);
    report->Metric("net.encode_request_ns",
                   NsPerCall(requests.all.size(),
                             [&](size_t i) {
                               net::EncodeRequest(requests.all[i], &frames);
                             }),
                   "ns", requests.all.size());
    size_t offset = 0;
    net::DecodedRequest decoded;
    report->Metric("net.decode_request_ns",
                   NsPerCall(requests.all.size(),
                             [&](size_t) {
                               net::DecodeRequest(
                                   frames.data() + offset,
                                   frames.size() - offset,
                                   net::kDefaultMaxPayloadBytes, &decoded,
                                   nullptr);
                               offset += decoded.frame_bytes;
                             }),
                   "ns", requests.all.size());
    serve::Server server(model);
    std::string responses;
    UpskillRecommendationOptions options;
    for (const serve::ServeRequest& r : requests.all) {
      if (r.kind == serve::ServeRequest::Kind::kObserve) {
        const auto level = server.Observe(r.user, r.item, 0, false);
        net::EncodeLevelResponse(level.ok() ? level.value()
                                            : serve::SessionLevel{},
                                 &responses);
      } else {
        options.max_results = r.top_k;
        const auto picks = server.Recommend(r.user, options);
        net::EncodeRecommendResponse(
            picks.ok() ? picks.value() : std::vector<UpskillRecommendation>(),
            &responses);
      }
    }
    offset = 0;
    net::DecodedResponse response;
    report->Metric("net.decode_response_ns",
                   NsPerCall(requests.all.size(),
                             [&](size_t i) {
                               net::DecodeResponse(
                                   responses.data() + offset,
                                   responses.size() - offset,
                                   requests.all[i].kind,
                                   net::kDefaultMaxPayloadBytes, &response,
                                   nullptr);
                               offset += response.frame_bytes;
                             }),
                   "ns", requests.all.size());
  }
  return observe_ns;
}

/// Table XIII / Fig. 7 on this host: wall time of one training at 1, 2
/// and 4 threads and per parallel axis, as 1-thread time over each.
void ThreadSweep(const Fixture& fx, Report* report) {
  struct Setting {
    const char* metric;
    SkillModelConfig config;
  };
  const std::vector<Setting> settings = {
      {"core.train.speedup.t2", TrainConfig(2, true, true, true)},
      {"core.train.speedup.t4", TrainConfig(4, true, true, true)},
      {"core.train.speedup.users", TrainConfig(4, true, false, false)},
      {"core.train.speedup.levels", TrainConfig(4, false, true, false)},
      {"core.train.speedup.features", TrainConfig(4, false, false, true)},
  };
  auto train = [&](const SkillModelConfig& config, double* seconds) {
    const Clock::time_point start = Clock::now();
    Result<TrainResult> result = Trainer(config).Train(fx.dataset);
    *seconds = SecondsSince(start);
    return result.ok() ? result.value().final_log_likelihood : NAN;
  };
  double serial_s = 0.0;
  const double serial_ll =
      train(TrainConfig(1, false, false, false), &serial_s);
  for (const Setting& setting : settings) {
    double seconds = 0.0;
    const double ll = train(setting.config, &seconds);
    report->Check(ll == serial_ll, std::string(setting.metric) +
                                       ": log-likelihood differs from serial");
    report->Metric(setting.metric, seconds > 0 ? serial_s / seconds : 0.0,
                   "ratio", 1);
  }
}

/// Tracing overhead on the workload's headline number: two untraced and
/// two traced short measurements in the order off, on, on, off (a linear
/// drift cancels, as bench_obs pairs them), as the traced excess in
/// percent. learn-loop numbers its cycles on from `first_cycle`.
double TraceOverheadPct(Fixture* fx, const Spec& spec, const Options& opts,
                        int first_cycle, Report* report) {
  const double window_s = opts.smoke ? 0.25 : 1.0;
  int cycle = first_cycle;
  // Seconds per op over at least one window; for serve-open, the median
  // latency at the fixed rate.
  const auto headline = [&]() -> double {
    if (spec.serves() && !spec.learns()) {
      const Phase phase = RunServing(
          fx, spec,
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(window_s)),
          UINT64_MAX);
      report->Count(phase.attempted, phase.failed);
      const double ops =
          static_cast<double>(std::max<uint64_t>(1, phase.ops));
      return spec.rate > 0 ? phase.request_us.Quantile(0.5)
                           : phase.wall_s / ops;
    }
    double seconds = 0.0;
    int ops = 0;
    bool ok = true;
    while (ok && seconds < window_s) {
      if (spec.learns()) {
        const CycleResult result = RunCycle(fx, spec, opts, cycle++, report);
        report->Count(result.attempted, result.failed);
        ok = result.failed == 0;
        seconds += result.seconds;
      } else {
        Result<TrainOp> op = TrainAndPublish(*fx, DefaultTrainConfig());
        ok = report->Check(op.ok(), "train: " + op.status().ToString());
        seconds += ok ? op.value().seconds : 0.0;
      }
      ++ops;
    }
    return seconds / ops;
  };
  double off = 0.0;
  double on = 0.0;
  for (const bool traced : {false, true, true, false}) {
    SetTracing(traced);
    (traced ? on : off) += headline();
  }
  SetTracing(false);
  return off > 0 ? 100.0 * (on - off) / off : 0.0;
}

// ----------------------------------------------------------------------
// Output

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string HostJson() {
  utsname name{};
  ::uname(&name);
  return "\"host\": {\"nproc\": " +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"cpu\": " + JsonString(CpuModel()) +
         ", \"simd\": " + JsonString(simd::BackendName()) +
         ", \"kernel\": " + JsonString(name.release) +
         ", \"build_type\": " + JsonString(UPSKILL_E2E_BUILD_TYPE) + "}";
}

/// The end-to-end metrics. op_ms is the workload's headline as a time:
/// the median training plus publish (train-synthetic) or learn cycle
/// (learn-loop), the wall time per completed request (serve-closed), or
/// the median request latency at the fixed rate (serve-open).
void EmitEndToEnd(const Spec& spec, const Phase& phase,
                  const std::vector<double>& setup_s, Report* report) {
  report->Metric("setup_s", Median(setup_s), "s", setup_s.size());
  report->Metric("peak_rss_mb", phase.peak_rss_mb, "MB", 1);
  if (!phase.op_ms.empty()) {
    report->Metric("op_ms", Median(phase.op_ms), "ms", phase.op_ms.size());
  } else if (spec.rate > 0) {
    report->Metric("op_ms", 1e-3 * phase.request_us.Quantile(0.5), "ms",
                   phase.request_us.count());
  } else {
    report->Metric("op_ms",
                   phase.ops > 0 ? 1e3 * phase.wall_s /
                                       static_cast<double>(phase.ops)
                                 : 0.0,
                   "ms", phase.ops);
  }
}

/// Every per-layer metric but the probe, sweep and overhead ones.
/// `observe_ns` is the in-process observe cost from ProbeLayers.
void EmitPerLayer(const Phase& phase, const RegistryView& registry,
                  const IngestTee& tee, double observe_ns, Report* report) {
  const auto median = [](const char* name) { return Layers().MedianOf(name); };
  const auto count = [](const char* name) { return Layers().Get(name).size(); };
  for (const char* phase_name : {"init", "cache", "assign", "update"}) {
    const std::string key = std::string("core.train.") + phase_name;
    report->Metric(key + "_s", Layers().MedianOf(key), "s",
                   Layers().Get(key).size());
  }
  report->Metric("core.train.iterations", median("core.train.iterations"),
                 "count", count("core.train.iterations"));
  report->Metric("core.train.dp_solved", median("core.train.dp_solved"),
                 "count", count("core.train.dp_solved"));
  report->Metric("core.train.dp_skip_ratio", median("core.train.dp_skip_ratio"),
                 "ratio", count("core.train.dp_skip_ratio"));
  report->Metric("core.difficulty_s", median("core.difficulty"), "s",
                 count("core.difficulty"));
  report->Metric("core.online.refresh_s", median("core.online.refresh"), "s",
                 count("core.online.refresh"));
  report->Metric("core.online.dirty_ratio", median("core.online.dirty_ratio"),
                 "ratio", count("core.online.dirty_ratio"));

  report->Metric("exec.shard_busy_s",
                 registry.HistogramSum("upskill_exec_shard_seconds"), "s", 1);
  report->Metric("exec.pool_wait_s",
                 registry.HistogramSum("upskill_threadpool_task_wait_seconds"),
                 "s", 1);
  report->Metric("exec.shard_imbalance",
                 registry.Gauge("upskill_exec_shard_imbalance_ratio"), "ratio",
                 1);

  for (const char* name : {"serve.snapshot_make", "serve.snapshot_save",
                           "serve.snapshot_load", "serve.model_build",
                           "serve.swap"}) {
    report->Metric(std::string(name) + "_s", median(name), "s", count(name));
  }
  report->Metric("serve.snapshot_bytes", median("serve.snapshot_bytes"),
                 "bytes", count("serve.snapshot_bytes"));
  report->Metric(
      "serve.server_p99_us",
      1e6 * registry.HistogramQuantile("upskill_serve_request_latency_seconds",
                                       0.99),
      "us", 1);

  // Load generator and net counters over the measured phase.
  double binary_rps = 0.0, text_rps = 0.0;
  int binary = 0, text = 0;
  uint64_t sent = 0, send_calls = 0, recv_calls = 0, backlog = 0;
  double generator_cpu = 0.0;
  LatencyHistogram latency_us, late_us;
  for (size_t c = 0; c < phase.load.size(); ++c) {
    const LoadStats& stats = phase.load[c];
    const double rps = phase.connection_wall_s[c] > 0
                           ? static_cast<double>(stats.completed) /
                                 phase.connection_wall_s[c]
                           : 0.0;
    (phase.text[c] ? text_rps : binary_rps) += rps;
    ++(phase.text[c] ? text : binary);
    sent += stats.sent;
    send_calls += stats.send_calls;
    recv_calls += stats.recv_calls;
    backlog = std::max(backlog, stats.backlog_max);
    generator_cpu += stats.cpu_seconds;
    latency_us.Merge(stats.latency_us);
    late_us.Merge(stats.late_us);
  }
  const double requests = static_cast<double>(sent);
  const auto per_request = [&](double value) {
    return requests > 0 ? value / requests : 0.0;
  };
  report->Metric("net.rps.binary", binary > 0 ? binary_rps / binary : 0.0,
                 "1/s", binary);
  report->Metric("net.rps.text", text > 0 ? text_rps / text : 0.0, "1/s",
                 text);
  const double net_bytes =
      registry.Counter("upskill_net_bytes_read_total") +
      registry.Counter("upskill_net_bytes_written_total");
  report->Metric("net.bytes_per_req", per_request(net_bytes), "bytes", sent);
  report->Metric("net.send_calls_per_req",
                 per_request(static_cast<double>(send_calls)), "count", sent);
  report->Metric("net.recv_calls_per_req",
                 per_request(static_cast<double>(recv_calls)), "count", sent);
  report->Metric("net.shed", registry.Counter("upskill_net_shed_total"),
                 "count", 1);
  report->Metric("net.decode_errors",
                 registry.Counter("upskill_net_frame_decode_errors_total"),
                 "count", 1);
  report->Metric("net.overhead_us",
                 latency_us.count() == 0
                     ? 0.0
                     : latency_us.Quantile(0.5) - 1e-3 * observe_ns,
                 "us", latency_us.count());
  report->Metric("loadgen.p50_us", latency_us.Quantile(0.5), "us",
                 latency_us.count());
  report->Metric("loadgen.p99_us", latency_us.Quantile(0.99), "us",
                 latency_us.count());
  report->Metric("loadgen.late_us_p99", late_us.Quantile(0.99), "us",
                 late_us.count());
  report->Metric("loadgen.backlog_max", static_cast<double>(backlog),
                 "requests", phase.load.size());
  report->Metric("loadgen.cpu_s_per_mreq", 1e6 * per_request(generator_cpu),
                 "s", sent);

  report->Metric("store.ingest_append_ns",
                 tee.appends > 0 ? static_cast<double>(tee.append_ns.load()) /
                                       static_cast<double>(tee.appends.load())
                                 : 0.0,
                 "ns", tee.appends.load());
  report->Metric("store.ingest_frames",
                 registry.Counter("upskill_ingest_frames_total"), "count", 1);
  report->Metric("store.ingest_fsyncs",
                 registry.Counter("upskill_ingest_fsyncs_total"), "count", 1);
  for (const char* name : {"store.compact", "store.open_verified", "store.map",
                           "store.pack"}) {
    report->Metric(std::string(name) + "_s", median(name), "s", count(name));
  }
}

// ----------------------------------------------------------------------

int Run(const Options& opts) {
  const std::optional<Spec> spec_or = SpecFor(opts.workload, opts.smoke);
  if (!spec_or) {
    std::fprintf(stderr, "bench_e2e: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  const Spec& spec = *spec_or;
  const std::string dir = opts.workdir + "/e2e-" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  struct RemoveDir {
    std::string path;
    ~RemoveDir() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
      SyncFilesystem(std::filesystem::path(path).parent_path());
    }
  } remove_dir{dir};
  SyncFilesystem(dir);

  SetTracing(opts.trace);
  Report report;
  std::vector<double> setup_s;
  std::unique_ptr<Fixture> fx;
  const int setups = opts.smoke ? 1 : 3;
  for (int i = 0; i < setups; ++i) {
    fx.reset();
    // Hand the last set-up's memory back, so repeated set-ups do not pile
    // up in peak_rss_mb.
    ::malloc_trim(0);
    const Clock::time_point start = Clock::now();
    fx = std::make_unique<Fixture>();
    Status status = [&] {
      LayerTimer timer("bench.setup");
      return Setup(spec, opts, dir, fx.get());
    }();
    setup_s.push_back(SecondsSince(start));
    if (!report.Check(status.ok(), "setup: " + status.ToString())) {
      report.Count(1, 1);
      std::printf("%s\n", report.ResultLine().c_str());
      return 1;
    }
  }

  if (opts.trace) obs::MetricsRegistry::Global().Reset();
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opts.seconds));
  Phase phase;
  if (spec.learns()) {
    phase = RunLearnLoop(fx.get(), spec, opts, &report);
  } else if (spec.serves()) {
    phase = RunServing(fx.get(), spec, deadline, UINT64_MAX);
    CheckReplay(*fx, &report);
  } else {
    phase = RunTrainSynthetic(fx.get(), opts, &report);
  }
  for (const LoadStats& stats : phase.load) {
    if (!stats.first_error.empty()) {
      report.Check(false, "load generator: " + stats.first_error);
    }
  }
  report.Count(phase.attempted, phase.failed);
  report.Check(phase.ops > 0, "no operation completed");

  if (!opts.trace) {
    EmitEndToEnd(spec, phase, setup_s, &report);
  } else {
    // Read the registry and write the trace before anything else runs;
    // the probes run untraced, and the overhead measurement last, as it
    // adds operations and restarts the span store.
    const RegistryView registry;
    SetTracing(false);
    if (!opts.trace_out.empty()) {
      std::ofstream trace(opts.trace_out, std::ios::binary);
      trace << obs::RenderChromeTrace(obs::TraceRecorder::Global());
      report.Check(trace.good(), "cannot write " + opts.trace_out);
    }
    std::vector<StreamConfig> configs = fx->stream_configs;
    if (spec.learns() || configs.empty()) {
      // No served request stream of its own: uniform over 20k users.
      configs.clear();
      for (int c = 0; c < 2; ++c) {
        StreamConfig config;
        for (int u = c; u < 20000; u += 2) {
          config.users.push_back("u" + std::to_string(u));
        }
        config.item_pools = fx->item_pools;
        config.seed = opts.seed * 16 + 8 + static_cast<uint64_t>(c);
        configs.push_back(config);
      }
    }
    const double observe_ns =
        report.Check(fx->model != nullptr, "no model to probe")
            ? ProbeLayers(fx->model, configs, opts.smoke ? 2000 : 200000,
                          &report)
            : 0.0;
    EmitPerLayer(phase, registry, fx->tee, observe_ns, &report);
    report.Metric("obs.trace_overhead_pct",
                  TraceOverheadPct(fx.get(), spec, opts,
                                   static_cast<int>(phase.ops), &report),
                  "%", 4);
    ThreadSweep(*fx, &report);
  }

  if (!opts.out.empty()) {
    std::ofstream out(opts.out, std::ios::binary);
    out << report.ResultFile(
        "\"workload\": " + JsonString(opts.workload) +
        ", \"seed\": " + std::to_string(opts.seed) +
        ", \"seconds\": " + JsonNumber(opts.seconds) +
        ", \"trace\": " + (opts.trace ? "1" : "0") + ", " + HostJson());
  }
  std::fflush(stderr);
  std::printf("%s\n", report.ResultLine().c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace upskill

int main(int argc, char** argv) {
  upskill::e2e::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_e2e: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      opts.workload = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::atof(value().c_str());
    } else if (arg == "--trace") {
      opts.trace = value() == "1";
    } else if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg == "--workdir") {
      opts.workdir = value();
    } else if (arg == "--out") {
      opts.out = value();
    } else if (arg == "--trace-out") {
      opts.trace_out = value();
    } else if (arg == "--expect-ll") {
      opts.expect_ll = std::atof(value().c_str());
    } else {
      std::fprintf(stderr, "bench_e2e: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  return upskill::e2e::Run(opts);
}
