// upskill_cli — command-line front end for the library. Commands:
//
//   generate       build a simulated dataset (synthetic | language |
//                  cooking | beer | film)
//   import         ingest a raw user,time,item[,rating] CSV event log
//   stats          dataset counts, schema, optional per-feature detail
//   select-levels  choose S by held-out likelihood (Fig. 3 procedure)
//   train          fit the progression model (hard, --em, --transitions,
//                  --threads)
//   assign         per-action skill levels (histogram, --user trace,
//                  --out CSV)
//   summary        trajectory statistics (starts/ends per level, pace)
//   model          human-readable report of the learned components
//   difficulty     per-item difficulty (CSV or --top list)
//   recommend      upskilling shortlist for one user
//   snapshot       package model + items + difficulty into a binary
//                  serving snapshot
//   dataset        columnar store tooling: pack a CSV dataset into the
//                  mmap format, inspect a store file, compact an ingest
//                  log into a base store
//   serve          online serving loop over stdin/stdout (see README
//                  "Serving" for the protocol); --ingest-log tees
//                  observed actions into the append-only store log
//
// Run with no arguments for full flag syntax. Datasets are the CSV
// directories written by SaveDataset (schema.csv, items.csv, users.csv,
// actions.csv), so generated data can be inspected and edited with
// ordinary tools.

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/assignments_io.h"
#include "core/difficulty.h"
#include "core/em_trainer.h"
#include "core/online_trainer.h"
#include "core/model_report.h"
#include "core/model_selection.h"
#include "core/recommend.h"
#include "core/trainer.h"
#include "core/trajectory.h"
#include "data/io.h"
#include "common/durable_file.h"
#include "common/string_util.h"
#include "data/describe.h"
#include "data/log_builder.h"
#include "data/statistics.h"
#include "datagen/beer.h"
#include "datagen/cooking.h"
#include "datagen/film.h"
#include "datagen/language.h"
#include "datagen/synthetic.h"
#include "exec/backend.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "net/client.h"
#include "net/http_admin.h"
#include "net/net_server.h"
#include "serve/server.h"
#include "serve/serving_model.h"
#include "serve/snapshot.h"
#include "store/compact.h"
#include "store/ingest_log.h"
#include "store/store_reader.h"
#include "store/store_writer.h"

namespace {

using namespace upskill;

// Minimal flag parser: positional arguments plus --key value / --switch.
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  bool HasFlag(const std::string& name) const { return flags.count(name) > 0; }
  // ParseArgs has already rejected a value that is not an integer.
  long long IntFlag(const std::string& name, long long fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : ParseInt(it->second).value();
  }
  // ParseArgs has already rejected a value that is not a number.
  double DoubleFlag(const std::string& name, double fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : ParseDouble(it->second).value();
  }
  std::string StringFlag(const std::string& name,
                         const std::string& fallback) const {
    const auto it = flags.find(name);
    return it == flags.end() ? fallback : it->second;
  }
};

// Every --flag is either a boolean switch or takes exactly one value.
// Declaring which is which up front is what lets the parser reject a
// value-taking flag whose value is missing or looks like another flag
// (`train d m.csv --levels --em` used to silently train with default S).
const std::set<std::string> kValueFlags = {
    "users", "seed",    "levels", "threads", "user",  "out",
    "top",   "stretch", "prior",  "min",     "max",   "shards",
    "backend", "metrics-out", "trace-out",
    "listen", "net-workers", "deadline-ms", "max-conns",
    "checkpoint", "previous", "ingest-log",
    "admin-listen", "flight-recorder-size", "flight-recorder-sample",
};
// The value flags that take an integer (read with Args::IntFlag).
const std::set<std::string> kIntFlags = {
    "users", "seed", "levels", "threads", "user", "top", "min", "max",
    "shards", "net-workers", "deadline-ms", "max-conns",
    "flight-recorder-size", "flight-recorder-sample",
};
// The value flags that take a number (read with Args::DoubleFlag).
const std::set<std::string> kDoubleFlags = {"stretch"};
// Integer flags with a lower bound; a value below it is a usage error
// naming the flag, not a silent clamp.
const std::map<std::string, long long> kIntFlagMinimums = {
    {"threads", 1}, {"shards", 1},
    {"flight-recorder-size", 0}, {"flight-recorder-sample", 1},
};
const std::set<std::string> kSwitchFlags = {
    "em", "verbose", "transitions", "detail", "quantized", "binary",
    "from-store", "online",
};

Result<Args> ParseArgs(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) == 0) {
      const std::string name = token.substr(2);
      if (kValueFlags.count(name) > 0) {
        if (i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0) {
          return Status::InvalidArgument("flag --" + name +
                                         " requires a value");
        }
        const std::string value = argv[++i];
        if (kIntFlags.count(name) > 0) {
          const auto parsed = ParseInt(value);
          if (!parsed.ok()) {
            return Status::InvalidArgument("flag --" + name +
                                           " requires an integer, got '" +
                                           value + "'");
          }
          const auto minimum = kIntFlagMinimums.find(name);
          if (minimum != kIntFlagMinimums.end() &&
              parsed.value() < minimum->second) {
            return Status::InvalidArgument(
                "flag --" + name + " must be at least " +
                std::to_string(minimum->second));
          }
        }
        if (kDoubleFlags.count(name) > 0 && !ParseDouble(value).ok()) {
          return Status::InvalidArgument("flag --" + name +
                                         " requires a number, got '" + value +
                                         "'");
        }
        args.flags[name] = value;
      } else if (kSwitchFlags.count(name) > 0) {
        args.flags[name] = "";  // boolean switch
      } else {
        return Status::InvalidArgument("unknown flag --" + name);
      }
    } else {
      args.positional.push_back(token);
    }
  }
  return args;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: upskill_cli <command> ...\n"
      "  generate <domain> <out_dir> [--users N] [--seed X]\n"
      "  import <log.csv> <out_dir>        (user,time,item[,rating] rows)\n"
      "  stats <data_dir> [--detail]\n"
      "  select-levels <data_dir> [--min 2] [--max 8]\n"
      "  train <data_dir> <model_out.csv> [--levels S] [--em]\n"
      "        [--transitions] [--threads N] [--verbose]\n"
      "        [--backend serial|pool]   (execution backend; results\n"
      "        are bitwise identical across backends — default picks pool\n"
      "        when --threads > 1 and serial otherwise)\n"
      "        [--metrics-out metrics.prom] [--trace-out trace.json]\n"
      "        [--from-store]   (read a packed .store instead of CSVs)\n"
      "        [--online --checkpoint ck.bin [--previous prev.store]]\n"
      "        (incremental refresh from an online-EM checkpoint when\n"
      "        --previous names the dataset the checkpoint was trained\n"
      "        on; full-batch replay that seeds the checkpoint otherwise)\n"
      "  assign <data_dir> <model.csv> [--levels S] [--user U] [--out f.csv]\n"
      "  summary <data_dir> <model.csv> [--levels S]\n"
      "  model <data_dir> <model.csv> [--levels S] [--top 3]\n"
      "  difficulty <data_dir> <model.csv> [--levels S]\n"
      "        [--prior empirical|uniform] [--top K]\n"
      "  recommend <data_dir> <model.csv> --user U [--levels S]\n"
      "        [--stretch 1.0] [--top 10]\n"
      "  snapshot <data_dir> <model.csv> <out.snap> [--levels S]\n"
      "        [--prior empirical|uniform] [--transitions] [--threads N]\n"
      "        [--backend serial|pool]\n"
      "  dataset pack <data_dir> <out.store>\n"
      "  dataset inspect <file.store>\n"
      "  dataset compact <base.store> <log.ingest> <out.store>\n"
      "  serve <snapshot.snap> [--threads N] [--shards N] [--quantized]\n"
      "        [--backend serial|pool]   (backend for snapshot\n"
      "        builds, requantization, and batch fan-out)\n"
      "        [--ingest-log log.ingest]   (tee observed actions into the\n"
      "        append-only store log for later compaction + refresh)\n"
      "        (newline-delimited protocol on stdin/stdout; see README)\n"
      "        [--listen host:port] [--net-workers N] [--deadline-ms D]\n"
      "        [--max-conns N]   (TCP front end instead of stdio; text and\n"
      "        binary protocols share the port; runs until stdin closes)\n"
      "        [--admin-listen host:port]   (HTTP admin plane on its own\n"
      "        port: /metrics /healthz /statusz /tracez; works with both\n"
      "        the stdio and --listen front ends)\n"
      "        [--flight-recorder-size K]   (span store ring of the last\n"
      "        K completed requests and phase spans, plus tail-sampled\n"
      "        errors/sheds/slowest, dumped by /tracez; default 4096,\n"
      "        0 disables)\n"
      "        [--flight-recorder-sample N] (keep one in N completed\n"
      "        requests in the ring; errors/sheds/slowest always kept;\n"
      "        default 16, 1 records everything)\n"
      "  client <host:port> [--binary]\n"
      "        (forward stdin request lines to a serve --listen process;\n"
      "        --binary re-encodes them as binary frames)\n");
  return 2;
}

int CmdGenerate(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const std::string& domain = args.positional[0];
  const std::string& out_dir = args.positional[1];
  const int users = static_cast<int>(args.IntFlag("users", 0));
  const uint64_t seed = static_cast<uint64_t>(args.IntFlag("seed", 0));

  Result<datagen::GeneratedData> data = [&]() -> Result<datagen::GeneratedData> {
    if (domain == "synthetic") {
      datagen::SyntheticConfig config;
      if (users > 0) config.num_users = users;
      if (seed > 0) config.seed = seed;
      return datagen::GenerateSynthetic(config);
    }
    if (domain == "language") {
      datagen::LanguageConfig config;
      if (users > 0) config.num_users = users;
      if (seed > 0) config.seed = seed;
      return datagen::GenerateLanguage(config);
    }
    if (domain == "cooking") {
      datagen::CookingConfig config;
      if (users > 0) config.num_users = users;
      if (seed > 0) config.seed = seed;
      return datagen::GenerateCooking(config);
    }
    if (domain == "beer") {
      datagen::BeerConfig config;
      if (users > 0) config.num_users = users;
      if (seed > 0) config.seed = seed;
      return datagen::GenerateBeer(config);
    }
    if (domain == "film") {
      datagen::FilmConfig config;
      if (users > 0) config.num_users = users;
      if (seed > 0) config.seed = seed;
      return datagen::GenerateFilm(config);
    }
    return Status::InvalidArgument("unknown domain: " + domain);
  }();
  if (!data.ok()) return Fail(data.status());

  const Status saved = SaveDataset(data.value().dataset, out_dir);
  if (!saved.ok()) return Fail(saved);
  const DatasetStats stats = ComputeDatasetStats(data.value().dataset);
  std::printf("wrote %s: %d users, %d items, %zu actions\n", out_dir.c_str(),
              stats.num_users, stats.num_table_items, stats.num_actions);
  return 0;
}

int CmdImport(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset = LoadActionLogCsv(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  const Status saved = SaveDataset(dataset.value(), args.positional[1]);
  if (!saved.ok()) return Fail(saved);
  const DatasetStats stats = ComputeDatasetStats(dataset.value());
  std::printf("imported %zu actions (%d users, %d items) -> %s\n",
              stats.num_actions, stats.num_users, stats.num_table_items,
              args.positional[1].c_str());
  return 0;
}

int CmdStats(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  const DatasetStats stats = ComputeDatasetStats(dataset.value());
  std::printf("users:             %d\n", stats.num_users);
  std::printf("items (table):     %d\n", stats.num_table_items);
  std::printf("items (selected):  %d\n", stats.num_used_items);
  std::printf("actions:           %zu\n", stats.num_actions);
  std::printf("sequence length:   mean %.1f, min %zu, max %zu\n",
              stats.mean_sequence_length, stats.min_sequence_length,
              stats.max_sequence_length);
  std::printf("rating coverage:   %.1f%%\n", 100.0 * stats.rating_coverage);
  std::printf("features:\n");
  for (int f = 0; f < dataset.value().schema().num_features(); ++f) {
    const FeatureSpec& spec = dataset.value().schema().feature(f);
    std::printf("  %-24s %s (%s)%s\n", spec.name.c_str(),
                FeatureTypeToString(spec.type),
                DistributionKindToString(spec.distribution),
                f == dataset.value().schema().id_feature() ? "  [item id]"
                                                           : "");
  }
  if (args.HasFlag("detail")) {
    // Per-feature distributions over the selected actions.
    const DatasetDescription description =
        DescribeDataset(dataset.value());
    std::printf("\naction-weighted feature summary:\n%s",
                FormatDescription(description, dataset.value().schema())
                    .c_str());
  }
  return 0;
}

SkillModelConfig ConfigFromArgs(const Args& args) {
  SkillModelConfig config;
  config.num_levels = static_cast<int>(args.IntFlag("levels", 5));
  config.verbose = args.HasFlag("verbose");
  const int threads = static_cast<int>(args.IntFlag("threads", 1));
  if (threads > 1) {
    config.parallel.num_threads = threads;
    config.parallel.users = true;
    config.parallel.levels = true;
    config.parallel.features = true;
  }
  if (args.HasFlag("transitions")) {
    config.transitions = TransitionModel::kGlobal;
  }
  config.backend = args.StringFlag("backend", "");
  return config;
}

// `--from-store` swaps the CSV loader for the zero-copy mmap reader; the
// returned Dataset keeps the mapping alive, so trainer/eval code runs on
// it unmodified (and datasets larger than RAM page in on demand).
Result<Dataset> LoadDatasetOrStore(const std::string& path, bool from_store) {
  if (!from_store) return LoadDataset(path);
  auto reader = store::StoreReader::Open(path);
  if (!reader.ok()) return reader.status();
  return reader.value().MapDataset();
}

// `train --online`: seed or advance an OnlineTrainer checkpoint. With
// --previous, one incremental Refresh over the delta between the two
// dataset versions; without, a full-batch replay (bitwise identical to
// plain `train`) that establishes the checkpoint.
int TrainOnline(const Args& args, const Dataset& dataset,
                const SkillModelConfig& config) {
  const std::string checkpoint = args.StringFlag("checkpoint", "");
  if (checkpoint.empty()) {
    return Fail(Status::InvalidArgument("--online requires --checkpoint"));
  }
  if (args.HasFlag("em")) {
    return Fail(Status::InvalidArgument(
        "--online supports the hard-assignment trainer only"));
  }
  OnlineTrainer trainer(config);
  if (args.HasFlag("previous")) {
    const auto previous = LoadDatasetOrStore(
        args.StringFlag("previous", ""), args.HasFlag("from-store"));
    if (!previous.ok()) return Fail(previous.status());
    auto loaded = OnlineTrainer::LoadCheckpoint(checkpoint, config);
    if (!loaded.ok()) return Fail(loaded.status());
    trainer = std::move(loaded).value();
    const auto backend = CreateTrainingBackend(config);
    if (!backend.ok()) return Fail(backend.status());
    const auto stats =
        trainer.Refresh(previous.value(), dataset, backend.value().get());
    if (!stats.ok()) return Fail(stats.status());
    std::printf("refreshed: %zu dirty users (%zu new), %zu clean; "
                "%zu actions added, %zu replaced, %.3fs\n",
                stats.value().dirty_users, stats.value().new_users,
                stats.value().clean_users, stats.value().actions_added,
                stats.value().actions_removed, stats.value().refresh_seconds);
  } else {
    const auto result = trainer.TrainFullReplay(dataset);
    if (!result.ok()) return Fail(result.status());
    std::printf("full replay: %d iterations (log-likelihood %.1f)\n",
                result.value().iterations,
                result.value().final_log_likelihood);
  }
  const Status saved_ck = trainer.SaveCheckpoint(checkpoint);
  if (!saved_ck.ok()) return Fail(saved_ck);
  const Status saved = trainer.model().Save(args.positional[1]);
  if (!saved.ok()) return Fail(saved);
  std::printf("checkpoint -> %s; model -> %s\n", checkpoint.c_str(),
              args.positional[1].c_str());
  return 0;
}

// Writes the `train` telemetry sinks that were asked for: the trace
// recorder's spans as Chrome-tracing JSON, and the metrics registry as
// the Prometheus exposition.
Status WriteTrainTelemetry(const std::string& trace_out,
                           const std::string& metrics_out) {
  if (!trace_out.empty()) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    recorder.Disable();
    UPSKILL_RETURN_IF_ERROR(
        ReplaceFile(trace_out, obs::RenderChromeTrace(recorder)));
    std::printf("trace -> %s (%zu spans)\n", trace_out.c_str(),
                recorder.Events().size());
  }
  if (!metrics_out.empty()) {
    UPSKILL_RETURN_IF_ERROR(ReplaceFile(
        metrics_out, obs::RenderPrometheus(obs::MetricsRegistry::Global())));
    std::printf("metrics -> %s\n", metrics_out.c_str());
  }
  return Status::OK();
}

int CmdTrain(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset =
      LoadDatasetOrStore(args.positional[0], args.HasFlag("from-store"));
  if (!dataset.ok()) return Fail(dataset.status());
  const SkillModelConfig config = ConfigFromArgs(args);

  // Telemetry sinks, for the batch and the online trainer alike:
  // --trace-out captures one Chrome-tracing span per trainer phase per
  // iteration (or per refresh); --metrics-out dumps the Prometheus
  // exposition after training. Both are pure observers — the trained
  // model is bitwise identical with or without them.
  const std::string metrics_out = args.StringFlag("metrics-out", "");
  const std::string trace_out = args.StringFlag("trace-out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Global().Enable();
  if (args.HasFlag("online")) {
    const int trained = TrainOnline(args, dataset.value(), config);
    if (trained != 0) return trained;
    const Status wrote = WriteTrainTelemetry(trace_out, metrics_out);
    return wrote.ok() ? 0 : Fail(wrote);
  }

  SkillModel model;
  double final_ll = 0.0;
  int iterations = 0;
  if (args.HasFlag("em")) {
    EmTrainerConfig em_config;
    em_config.model = config;
    const auto result = EmTrainer(em_config).Train(dataset.value());
    if (!result.ok()) return Fail(result.status());
    model = result.value().model;
    final_ll = result.value().final_log_likelihood;
    iterations = result.value().iterations;
  } else {
    const auto result = Trainer(config).Train(dataset.value());
    if (!result.ok()) return Fail(result.status());
    model = result.value().model;
    final_ll = result.value().final_log_likelihood;
    iterations = result.value().iterations;
  }
  const Status saved = model.Save(args.positional[1]);
  if (!saved.ok()) return Fail(saved);
  const Status wrote = WriteTrainTelemetry(trace_out, metrics_out);
  if (!wrote.ok()) return Fail(wrote);
  std::printf("trained %d levels in %d iterations (log-likelihood %.1f); "
              "model -> %s\n",
              config.num_levels, iterations, final_ll,
              args.positional[1].c_str());
  return 0;
}

int CmdAssign(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());

  const SkillAssignments assignments =
      AssignSkills(dataset.value(), model.value());
  if (args.HasFlag("out")) {
    const std::string out = args.StringFlag("out", "");
    const Status saved = SaveAssignments(assignments, out);
    if (!saved.ok()) return Fail(saved);
    std::printf("assignments -> %s\n", out.c_str());
  }
  if (args.HasFlag("user")) {
    const UserId user = static_cast<UserId>(args.IntFlag("user", 0));
    if (user < 0 || user >= dataset.value().num_users()) {
      return Fail(Status::OutOfRange("no such user"));
    }
    std::printf("user %d (%s):", user,
                dataset.value().user_name(user).c_str());
    for (int level : assignments[static_cast<size_t>(user)]) {
      std::printf(" %d", level);
    }
    std::printf("\n");
    return 0;
  }
  // Level histogram over all actions.
  std::vector<size_t> histogram(static_cast<size_t>(config.num_levels), 0);
  size_t total = 0;
  for (const auto& seq : assignments) {
    for (int level : seq) {
      ++histogram[static_cast<size_t>(level - 1)];
      ++total;
    }
  }
  std::printf("actions per skill level:\n");
  for (int s = 1; s <= config.num_levels; ++s) {
    std::printf("  level %d: %8zu (%.1f%%)\n", s,
                histogram[static_cast<size_t>(s - 1)],
                total == 0 ? 0.0
                           : 100.0 * histogram[static_cast<size_t>(s - 1)] /
                                 static_cast<double>(total));
  }
  return 0;
}

int CmdDifficulty(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());

  const SkillAssignments assignments =
      AssignSkills(dataset.value(), model.value());
  const std::string prior = args.StringFlag("prior", "empirical");
  const auto difficulty = EstimateDifficultyByGeneration(
      dataset.value().items(), model.value(),
      prior == "uniform" ? DifficultyPrior::kUniform
                         : DifficultyPrior::kEmpirical,
      assignments);
  if (!difficulty.ok()) return Fail(difficulty.status());

  const int top = static_cast<int>(args.IntFlag("top", 0));
  if (top > 0) {
    std::vector<ItemId> order(difficulty.value().size());
    for (size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<ItemId>(i);
    }
    std::sort(order.begin(), order.end(), [&](ItemId a, ItemId b) {
      return difficulty.value()[static_cast<size_t>(a)] >
             difficulty.value()[static_cast<size_t>(b)];
    });
    std::printf("hardest %d items:\n", top);
    for (int i = 0; i < top && i < static_cast<int>(order.size()); ++i) {
      const ItemId item = order[static_cast<size_t>(i)];
      std::printf("  %8d  %.3f  %s\n", item,
                  difficulty.value()[static_cast<size_t>(item)],
                  dataset.value().items().name(item).c_str());
    }
    return 0;
  }
  std::printf("item,difficulty\n");
  for (size_t i = 0; i < difficulty.value().size(); ++i) {
    std::printf("%zu,%.6f\n", i, difficulty.value()[i]);
  }
  return 0;
}

int CmdModel(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());
  std::printf("%s",
              FormatModelReport(model.value(),
                                static_cast<int>(args.IntFlag("top", 3)))
                  .c_str());
  return 0;
}

int CmdSummary(const Args& args) {
  if (args.positional.size() != 2) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());
  const SkillAssignments assignments =
      AssignSkills(dataset.value(), model.value());
  const auto summary =
      SummarizeTrajectories(assignments, config.num_levels);
  if (!summary.ok()) return Fail(summary.status());
  std::printf("%-8s %12s %10s %10s\n", "level", "actions", "starts",
              "ends");
  for (int s = 1; s <= config.num_levels; ++s) {
    std::printf("%-8d %12zu %10zu %10zu\n", s,
                summary.value().actions_per_level[static_cast<size_t>(s - 1)],
                summary.value()
                    .users_starting_at_level[static_cast<size_t>(s - 1)],
                summary.value()
                    .users_ending_at_level[static_cast<size_t>(s - 1)]);
  }
  std::printf("level-ups: %zu (one every %.1f actions)\n",
              summary.value().level_ups,
              summary.value().actions_per_level_up);
  if (summary.value().level_downs > 0) {
    std::printf("level-downs: %zu\n", summary.value().level_downs);
  }
  return 0;
}

int CmdRecommend(const Args& args) {
  if (args.positional.size() != 2 || !args.HasFlag("user")) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());
  const SkillAssignments assignments =
      AssignSkills(dataset.value(), model.value());
  const auto difficulty = EstimateDifficultyByGeneration(
      dataset.value().items(), model.value(), DifficultyPrior::kEmpirical,
      assignments);
  if (!difficulty.ok()) return Fail(difficulty.status());

  const UserId user = static_cast<UserId>(args.IntFlag("user", 0));
  UpskillRecommendationOptions options;
  options.max_results = static_cast<int>(args.IntFlag("top", 10));
  options.stretch = args.DoubleFlag("stretch", options.stretch);
  const auto picks = RecommendForUpskilling(
      dataset.value(), model.value(), assignments, difficulty.value(), user,
      options);
  if (!picks.ok()) return Fail(picks.status());

  const int level = assignments[static_cast<size_t>(user)].back();
  std::printf("user %d is at level %d of %d; stretch window (%d, %.2f]\n",
              user, level, config.num_levels, level,
              level + options.stretch);
  for (const UpskillRecommendation& pick : picks.value()) {
    std::printf("  %8d  difficulty %.2f  logP %.2f  %s\n", pick.item,
                pick.difficulty, pick.log_prob,
                dataset.value().items().name(pick.item).c_str());
  }
  if (picks.value().empty()) std::printf("  (no eligible items)\n");
  return 0;
}

int CmdSnapshot(const Args& args) {
  if (args.positional.size() != 3) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  SkillModelConfig config = ConfigFromArgs(args);
  const auto model =
      SkillModel::Load(args.positional[1], dataset.value().schema(), config);
  if (!model.ok()) return Fail(model.status());

  const auto backend = CreateTrainingBackend(config);
  if (!backend.ok()) return Fail(backend.status());
  const SkillAssignments assignments = AssignSkills(
      dataset.value(), model.value(),
      config.parallel.users ? backend.value().get() : nullptr);
  const std::string prior = args.StringFlag("prior", "empirical");
  const auto difficulty = EstimateDifficultyByGeneration(
      dataset.value().items(), model.value(),
      prior == "uniform" ? DifficultyPrior::kUniform
                         : DifficultyPrior::kEmpirical,
      assignments);
  if (!difficulty.ok()) return Fail(difficulty.status());

  TransitionWeights transitions;
  const bool with_transitions = args.HasFlag("transitions");
  if (with_transitions) {
    transitions = FitTransitionWeights(assignments, config.num_levels,
                                       config.smoothing);
  }
  const auto snapshot = serve::MakeSnapshot(
      model.value(), dataset.value().items(), difficulty.value(),
      with_transitions ? &transitions : nullptr);
  if (!snapshot.ok()) return Fail(snapshot.status());
  const Status saved = serve::SaveSnapshot(snapshot.value(),
                                           args.positional[2]);
  if (!saved.ok()) return Fail(saved);
  std::printf("snapshot -> %s (%d levels, %d items%s)\n",
              args.positional[2].c_str(), config.num_levels,
              dataset.value().items().num_items(),
              with_transitions ? ", transitions" : "");
  return 0;
}

int CmdDataset(const Args& args) {
  if (args.positional.empty()) return Usage();
  const std::string& verb = args.positional[0];
  if (verb == "pack") {
    if (args.positional.size() != 3) return Usage();
    const auto dataset = LoadDataset(args.positional[1]);
    if (!dataset.ok()) return Fail(dataset.status());
    const Status packed =
        store::PackDataset(dataset.value(), args.positional[2]);
    if (!packed.ok()) return Fail(packed);
    std::printf("packed %d users, %llu actions, %d items -> %s\n",
                dataset.value().num_users(),
                static_cast<unsigned long long>(dataset.value().num_actions()),
                dataset.value().items().num_items(),
                args.positional[2].c_str());
    return 0;
  }
  if (verb == "inspect") {
    if (args.positional.size() != 2) return Usage();
    auto reader = store::StoreReader::Open(args.positional[1]);
    if (!reader.ok()) return Fail(reader.status());
    std::printf("%s", reader.value().Describe().c_str());
    return 0;
  }
  if (verb == "compact") {
    if (args.positional.size() != 4) return Usage();
    const auto stats = store::CompactStore(
        args.positional[1], args.positional[2], args.positional[3]);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("compacted %llu log records into %llu base actions "
                "(%llu new users) -> %s (%llu actions)\n",
                static_cast<unsigned long long>(stats.value().log_records),
                static_cast<unsigned long long>(stats.value().base_actions),
                static_cast<unsigned long long>(stats.value().new_users),
                args.positional[3].c_str(),
                static_cast<unsigned long long>(stats.value().total_actions));
    return 0;
  }
  return Usage();
}

int CmdServe(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const int threads = static_cast<int>(args.IntFlag("threads", 1));
  const int shards = static_cast<int>(args.IntFlag("shards", 64));
  const bool quantized = args.HasFlag("quantized");
  // One execution backend for the whole serving process: the initial
  // snapshot build here, plus (installed on the server below) every
  // later swap/requantization and batch fan-out.
  auto backend_result =
      exec::CreateBackend(args.StringFlag("backend", ""), threads);
  if (!backend_result.ok()) return Fail(backend_result.status());
  std::shared_ptr<exec::Backend> backend = std::move(backend_result).value();

  const auto model =
      serve::ServingModel::FromSnapshotFile(args.positional[0], backend.get());
  if (!model.ok()) return Fail(model.status());
  serve::Server server(model.value(), shards, quantized);
  server.SetBackend(backend);
  std::fprintf(stderr,
               "serving %s: %d levels, %d items, %d shards, backend=%s%s\n",
               args.positional[0].c_str(), model.value()->num_levels(),
               model.value()->num_items(), shards, backend->name(),
               quantized ? ", quantized int16 inference" : "");

  // --ingest-log tees every accepted observe into the append-only store
  // log (crash-safe batched frames; recovery truncates a torn tail on
  // open). The hook runs on request threads; the writer serializes
  // appends internally. Synced before exit on every return path below.
  std::unique_ptr<store::IngestLogWriter> ingest;
  if (args.HasFlag("ingest-log")) {
    auto opened =
        store::IngestLogWriter::Open(args.StringFlag("ingest-log", ""));
    if (!opened.ok()) return Fail(opened.status());
    ingest = std::move(opened).value();
    store::IngestLogWriter* log = ingest.get();
    // Observes the log refuses get their own counter: the writer already
    // counts its write/truncate/fsync failures in
    // upskill_ingest_errors_total. A sticky failure also turns /healthz
    // into a 503 (see the admin plane below).
    obs::Counter* refused = &obs::MetricsRegistry::Global().GetCounter(
        "upskill_ingest_refused_total");
    server.SetObserveHook(
        [log, refused](const std::string& user, ItemId item, int64_t time) {
          const Status appended = log->Append({user, time, item});
          if (!appended.ok()) {
            refused->Increment();
            std::fprintf(stderr, "ingest append failed: %s\n",
                         appended.ToString().c_str());
          }
        });
    std::fprintf(stderr, "ingest log -> %s\n",
                 args.StringFlag("ingest-log", "").c_str());
  }
  // A failed final sync is the exit status too: an observe was
  // acknowledged that may never have reached the log.
  const auto sync_ingest = [&ingest]() {
    if (ingest == nullptr) return 0;
    const Status synced = ingest->Sync();
    if (synced.ok()) return 0;
    return Fail(Status(synced.code(),
                       "ingest sync failed: " + synced.message()));
  };

  // Flight recorder: the global span store, sized to the last K events
  // and thinning requests to one in N (errors, sheds and the slowest
  // requests per kind are always retained). Every front end records
  // into it; K=0 leaves it off and /tracez reports an empty trace.
  const long long recorder_size = args.IntFlag("flight-recorder-size", 4096);
  if (recorder_size > 0) {
    obs::TraceRecorder::Global().Enable(
        static_cast<size_t>(recorder_size),
        static_cast<uint64_t>(args.IntFlag("flight-recorder-sample", 16)));
  }

  // Admin plane: its own port, its own thread, never sharing fate with
  // the data plane. Works with the stdio loop too, so an operator can
  // scrape a pipe-driven server.
  std::unique_ptr<net::HttpAdminServer> admin;
  if (args.HasFlag("admin-listen")) {
    net::HttpAdminConfig admin_config;
    const Status parsed =
        net::ParseHostPort(args.StringFlag("admin-listen", ""),
                           &admin_config.host, &admin_config.port);
    if (!parsed.ok()) return Fail(parsed);
    admin = std::make_unique<net::HttpAdminServer>(admin_config);
    std::function<Status()> health;
    if (ingest != nullptr) {
      health = [log = ingest.get()] { return log->status(); };
    }
    net::InstallAdminEndpoints(admin.get(), &server, std::move(health));
    const Status started = admin->Start();
    if (!started.ok()) return Fail(started);
    // Tests parse this line for the actual port (host:0 binds ephemeral).
    std::fprintf(stderr, "admin listening on %s:%u\n",
                 admin_config.host.c_str(), admin->port());
    std::fflush(stderr);
  }

  if (args.HasFlag("listen")) {
    // TCP front end: epoll event loop with per-core SO_REUSEPORT workers
    // (src/net). The process stays up until stdin reaches EOF, so a
    // supervising test/script owns the lifetime through the pipe.
    net::NetServerConfig config;
    const Status parsed = net::ParseHostPort(args.StringFlag("listen", ""),
                                             &config.host, &config.port);
    if (!parsed.ok()) return Fail(parsed);
    config.num_workers = static_cast<int>(args.IntFlag("net-workers", 1));
    config.deadline_seconds =
        static_cast<double>(args.IntFlag("deadline-ms", 0)) / 1000.0;
    config.max_connections =
        static_cast<int>(args.IntFlag("max-conns", 4096));
    // Swaps route through the server's installed backend (no swap
    // backend of its own).
    net::NetServer net_server(&server, nullptr, config);
    const Status started = net_server.Start();
    if (!started.ok()) return Fail(started);
    // Tests parse this line for the actual port (--listen host:0 binds an
    // ephemeral one).
    std::fprintf(stderr, "listening on %s:%u workers=%d\n",
                 config.host.c_str(), net_server.port(),
                 net_server.num_workers());
    std::fflush(stderr);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (StripWhitespace(line) == "shutdown") break;
    }
    net_server.Stop();
    return sync_ingest();
  }

  // The text line protocol (serve/protocol.h), the same one TCP text
  // connections run: one reply per request line, `batch <N>` fanned out
  // over the pool; only `quit` or EOF ends the session.
  serve::LineProtocol protocol(&server);
  std::string line;
  std::string out;
  while (!protocol.quit() && std::getline(std::cin, line)) {
    protocol.Feed(line, &out);
    std::fwrite(out.data(), 1, out.size(), stdout);
    std::fflush(stdout);
    out.clear();
  }
  protocol.Close(&out);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return sync_ingest();
}

int CmdClient(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  std::string host;
  uint16_t port = 0;
  const Status parsed = net::ParseHostPort(args.positional[0], &host, &port);
  if (!parsed.ok()) return Fail(parsed);
  net::NetClient client;
  const Status connected =
      client.Connect(host == "0.0.0.0" ? "127.0.0.1" : host, port);
  if (!connected.ok()) return Fail(connected);
  const bool binary = args.HasFlag("binary");

  // Same request grammar as the stdio serve loop, forwarded over TCP.
  // In --binary mode each line is parsed locally, shipped as a framed
  // request, and the typed response rendered back to the text form, so
  // the output is interchangeable with the text-protocol path.
  std::string line;
  while (std::getline(std::cin, line)) {
    if (StripWhitespace(line).empty()) continue;
    if (binary) {
      const auto request = serve::ParseServeRequest(line);
      if (!request.ok()) {
        std::printf("%s\n",
                    serve::FormatErrorResponse(request.status()).c_str());
        std::fflush(stdout);
        continue;
      }
      const auto response = client.Call(request.value());
      if (!response.ok()) return Fail(response.status());
      std::printf("%s\n",
                  serve::RenderServeResponse(response.value(),
                                             request.value().kind)
                      .c_str());
      std::fflush(stdout);
      if (request.value().kind == serve::ServeRequest::Kind::kQuit) break;
      continue;
    }
    // Text passthrough. `batch <N>` emits exactly N responses (one per
    // collected line), every other line exactly one (a bad N is a
    // one-line error).
    size_t expected = 1;
    std::string payload = line + "\n";
    const std::optional<Result<size_t>> batch =
        serve::ParseBatchDirective(line);
    if (batch.has_value() && batch->ok()) {
      expected = batch->value();
      std::string batch_line;
      for (size_t i = 0; i < expected; ++i) {
        if (!std::getline(std::cin, batch_line)) break;
        payload += batch_line + "\n";
      }
    }
    const Status sent = client.SendRaw(payload);
    if (!sent.ok()) return Fail(sent);
    const auto responses = client.ReadLines(expected);
    if (!responses.ok()) return Fail(responses.status());
    for (const std::string& response : responses.value()) {
      std::printf("%s\n", response.c_str());
    }
    std::fflush(stdout);
    if (StripWhitespace(line) == "quit") break;
  }
  return 0;
}

int CmdSelectLevels(const Args& args) {
  if (args.positional.size() != 1) return Usage();
  const auto dataset = LoadDataset(args.positional[0]);
  if (!dataset.ok()) return Fail(dataset.status());
  const int lo = static_cast<int>(args.IntFlag("min", 2));
  const int hi = static_cast<int>(args.IntFlag("max", 8));
  if (lo < 1 || hi < lo) return Fail(Status::InvalidArgument("bad range"));
  std::vector<int> candidates;
  for (int s = lo; s <= hi; ++s) candidates.push_back(s);
  SkillModelConfig base;
  base.max_iterations = 30;
  Rng rng(static_cast<uint64_t>(args.IntFlag("seed", 90)));
  const auto selection =
      SelectSkillCount(dataset.value(), candidates, base, 0.1, rng);
  if (!selection.ok()) return Fail(selection.status());
  for (const SkillCountPoint& point : selection.value().curve) {
    std::printf("S=%d  held-out log-likelihood %.1f\n", point.num_levels,
                point.held_out_log_likelihood);
  }
  std::printf("selected S = %d\n", selection.value().best_num_levels);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Result<Args> parsed = ParseArgs(argc, argv, 2);
  if (!parsed.ok()) {
    // A flag error exits 1 like any other error; the usage text comes
    // first so the error is the last line.
    Usage();
    return Fail(parsed.status());
  }
  const Args& args = parsed.value();
  if (command == "generate") return CmdGenerate(args);
  if (command == "import") return CmdImport(args);
  if (command == "stats") return CmdStats(args);
  if (command == "train") return CmdTrain(args);
  if (command == "assign") return CmdAssign(args);
  if (command == "summary") return CmdSummary(args);
  if (command == "model") return CmdModel(args);
  if (command == "difficulty") return CmdDifficulty(args);
  if (command == "recommend") return CmdRecommend(args);
  if (command == "snapshot") return CmdSnapshot(args);
  if (command == "dataset") return CmdDataset(args);
  if (command == "serve") return CmdServe(args);
  if (command == "client") return CmdClient(args);
  if (command == "select-levels") return CmdSelectLevels(args);
  return Usage();
}
