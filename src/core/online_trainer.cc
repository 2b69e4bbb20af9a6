#include "core/online_trainer.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/string_util.h"
#include "data/schema_io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace upskill {
namespace {

// "UPSKONL1": online-EM checkpoint, version 1.
constexpr char kCheckpointMagic[8] = {'U', 'P', 'S', 'K', 'O', 'N', 'L', '1'};
constexpr uint32_t kCheckpointVersion = 1;

// Bitwise action equality, field by field: the struct's padding bytes are
// unspecified for in-RAM datasets (the store zeroes them, AddAction need
// not), so a raw memcmp could flag clean users dirty. Ratings compare as
// bit patterns so NaN == NaN (an absent rating stays clean).
bool SameAction(const Action& a, const Action& b) {
  return a.time == b.time && a.item == b.item &&
         std::bit_cast<uint64_t>(a.rating) == std::bit_cast<uint64_t>(b.rating);
}

bool SameSequence(std::span<const Action> a, std::span<const Action> b) {
  if (a.size() != b.size()) return false;
  for (size_t n = 0; n < a.size(); ++n) {
    if (!SameAction(a[n], b[n])) return false;
  }
  return true;
}

struct RefreshInstruments {
  obs::Counter& refreshes;
  obs::Counter& dirty_users;
  obs::Counter& clean_users;
  obs::Counter& actions_added;
  obs::Histogram& refresh_seconds;
  obs::Gauge& last_dirty_users;
  obs::Gauge& param_delta_l2;

  static RefreshInstruments& Get() {
    static RefreshInstruments* instruments = [] {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
      registry.SetHelp("upskill_online_last_dirty_users",
                       "Users refit by the most recent online-EM refresh.");
      registry.SetHelp("upskill_online_param_delta_l2",
                       "L2 norm of the model parameter change in the most "
                       "recent online-EM refresh vs the previous fit.");
      return new RefreshInstruments{
          registry.GetCounter("upskill_online_refreshes_total"),
          registry.GetCounter("upskill_online_dirty_users_total"),
          registry.GetCounter("upskill_online_clean_users_total"),
          registry.GetCounter("upskill_online_actions_added_total"),
          registry.GetHistogram("upskill_online_refresh_seconds"),
          registry.GetGauge("upskill_online_last_dirty_users"),
          registry.GetGauge("upskill_online_param_delta_l2"),
      };
    }();
    return *instruments;
  }
};

}  // namespace

Status OnlineTrainer::ValidateConfig() const {
  if (config_.transitions == TransitionModel::kPerClass) {
    return Status::FailedPrecondition(
        "online training does not support TransitionModel::kPerClass "
        "(per-user class posteriors are not maintained incrementally)");
  }
  return Status::OK();
}

Result<TrainResult> OnlineTrainer::TrainFullReplay(const Dataset& dataset) {
  UPSKILL_RETURN_IF_ERROR(ValidateConfig());
  obs::Span span("online/full_replay");
  Result<TrainResult> trained = Trainer(config_).Train(dataset);
  if (!trained.ok()) return trained.status();

  model_ = trained.value().model;  // deep copy; the result stays intact
  assignments_ = trained.value().assignments;

  // Rebuild the count grid from the final assignments. The entries are
  // exact integer sums in doubles, so incremental subtract/add
  // maintenance keeps it equal to a fresh sweep.
  level_counts_ =
      CountAssignedActions(dataset, assignments_, config_.num_levels);

  // Self-consistent transition weights: refit from the adopted (final)
  // assignments — a pure function of checkpointed state, so a resumed
  // trainer reconstructs the same weights.
  if (config_.transitions == TransitionModel::kGlobal) {
    transitions_ = FitTransitionWeights(assignments_, config_.num_levels,
                                        config_.smoothing);
  }
  trained_ = true;
  return trained;
}

Result<OnlineRefreshStats> OnlineTrainer::Refresh(const Dataset& previous,
                                                  const Dataset& current,
                                                  exec::Backend* backend) {
  if (!trained_) {
    return Status::FailedPrecondition(
        "online trainer has no state; call TrainFullReplay or "
        "LoadCheckpoint first");
  }
  UPSKILL_RETURN_IF_ERROR(ValidateConfig());
  const size_t num_items = static_cast<size_t>(current.items().num_items());
  const size_t levels = static_cast<size_t>(config_.num_levels);
  if (static_cast<size_t>(previous.items().num_items()) != num_items ||
      level_counts_.size() != levels * num_items) {
    return Status::FailedPrecondition(
        "item catalog changed between refreshes; run TrainFullReplay");
  }
  if (current.schema().num_features() != model_.num_features()) {
    return Status::FailedPrecondition("feature schema does not match model");
  }
  if (current.num_users() < previous.num_users()) {
    return Status::FailedPrecondition("current dataset dropped users");
  }
  if (assignments_.size() != static_cast<size_t>(previous.num_users())) {
    return Status::FailedPrecondition(StringPrintf(
        "trained state covers %zu users, previous dataset has %d",
        assignments_.size(), previous.num_users()));
  }
  for (UserId u = 0; u < previous.num_users(); ++u) {
    if (previous.user_name(u) != current.user_name(u)) {
      return Status::FailedPrecondition(StringPrintf(
          "user %d renamed between datasets (\"%s\" vs \"%s\"); compaction "
          "only appends users",
          u, previous.user_name(u).c_str(), current.user_name(u).c_str()));
    }
    if (assignments_[static_cast<size_t>(u)].size() !=
        previous.sequence(u).size()) {
      return Status::FailedPrecondition(StringPrintf(
          "user %d has %zu assigned levels but %zu previous actions; the "
          "previous dataset is not the one this state was trained on",
          u, assignments_[static_cast<size_t>(u)].size(),
          previous.sequence(u).size()));
    }
  }

  obs::Span span("online/refresh");
  OnlineRefreshStats stats;
  assignments_.resize(static_cast<size_t>(current.num_users()));

  // E-step over the delta only: only users whose action bytes changed
  // re-run the DP. Serial on purpose — the delta is the small side, and a
  // fixed visit order keeps the pass trivially deterministic.
  cache_.Update(model_, current.items(), backend);
  const std::vector<double>& item_log_probs = cache_.values();
  const bool use_transitions =
      config_.transitions == TransitionModel::kGlobal;
  const double log_down = std::log(config_.forgetting.drop_probability);

  for (UserId u = 0; u < current.num_users(); ++u) {
    const size_t us = static_cast<size_t>(u);
    const std::span<const Action> seq = current.sequence(u);
    const bool is_new = u >= previous.num_users();
    if (!is_new && SameSequence(previous.sequence(u), seq)) {
      ++stats.clean_users;
      continue;
    }
    ++stats.dirty_users;
    if (is_new) {
      ++stats.new_users;
    } else {
      // Subtract the user's old contribution. Integer-valued cells make
      // the subtraction exact: the grid lands on the same bits a fresh
      // sweep without this user would produce.
      const std::span<const Action> old_seq = previous.sequence(u);
      const std::vector<int>& old_path = assignments_[us];
      for (size_t n = 0; n < old_seq.size(); ++n) {
        level_counts_[static_cast<size_t>(old_path[n] - 1) * num_items +
                      static_cast<size_t>(old_seq[n].item)] -= 1.0;
      }
      stats.actions_removed += old_seq.size();
    }
    // Re-solve the user's assignment DP against the current model with
    // the solve AssignmentEngine::Assign runs, on the inputs its columns
    // hold, so the path is bitwise the one a full assignment pass would
    // give this user.
    scratch_.items.resize(seq.size());
    for (size_t n = 0; n < seq.size(); ++n) scratch_.items[n] = seq[n].item;
    scratch_.allow_down.clear();
    if (config_.forgetting.enabled) {
      for (size_t n = 1; n < seq.size(); ++n) {
        scratch_.allow_down.push_back(config_.forgetting.OpensDownEdge(
            seq[n].time - seq[n - 1].time));
      }
    }
    SolveUserPath(scratch_.items, scratch_.allow_down, item_log_probs,
                  config_.num_levels, transitions_, log_down, scratch_);
    assignments_[us].assign(scratch_.levels.begin(), scratch_.levels.end());
    for (size_t n = 0; n < seq.size(); ++n) {
      level_counts_[static_cast<size_t>(assignments_[us][n] - 1) * num_items +
                    static_cast<size_t>(seq[n].item)] += 1.0;
    }
    stats.actions_added += seq.size();
  }

  // M-step — but only if anything moved: a refresh over identical data is
  // a strict no-op on the model. The flattened-parameter snapshot feeds
  // the parameter-delta gauge; it reads the model and never writes it,
  // and is skipped entirely when metrics are off, so refresh outputs are
  // bitwise identical either way.
  std::vector<double> params_before;
  const bool track_delta = obs::MetricsEnabled() && stats.dirty_users > 0;
  if (track_delta) params_before = FlattenedParameters();
  if (stats.dirty_users > 0) {
    FitCellsFromCountGrid(current.items(), level_counts_, &model_, backend,
                          config_.parallel);
    if (use_transitions) {
      transitions_ = FitTransitionWeights(assignments_, config_.num_levels,
                                          config_.smoothing);
    }
  }
  if (track_delta) {
    const std::vector<double> params_after = FlattenedParameters();
    double sum_sq = 0.0;
    const size_t n = std::min(params_before.size(), params_after.size());
    for (size_t i = 0; i < n; ++i) {
      const double d = params_after[i] - params_before[i];
      sum_sq += d * d;
    }
    stats.param_delta_l2 = std::sqrt(sum_sq);
  }

  stats.refresh_seconds = span.StopSeconds();
  RefreshInstruments& instruments = RefreshInstruments::Get();
  instruments.refreshes.Increment();
  instruments.dirty_users.Increment(stats.dirty_users);
  instruments.clean_users.Increment(stats.clean_users);
  instruments.actions_added.Increment(stats.actions_added);
  instruments.refresh_seconds.Observe(stats.refresh_seconds);
  instruments.last_dirty_users.Set(static_cast<double>(stats.dirty_users));
  instruments.param_delta_l2.Set(stats.param_delta_l2);
  return stats;
}

std::vector<double> OnlineTrainer::FlattenedParameters() const {
  std::vector<double> flat;
  for (int f = 0; f < model_.num_features(); ++f) {
    for (int s = 1; s <= model_.num_levels(); ++s) {
      const std::vector<double> params = model_.component(f, s).Parameters();
      flat.insert(flat.end(), params.begin(), params.end());
    }
  }
  return flat;
}

Status OnlineTrainer::SaveCheckpoint(const std::string& path) const {
  if (!trained_) {
    return Status::FailedPrecondition("nothing to checkpoint: not trained");
  }
  const size_t levels = static_cast<size_t>(config_.num_levels);
  const uint64_t num_items =
      static_cast<uint64_t>(level_counts_.size() / levels);

  ByteWriter writer;
  writer.Raw(kCheckpointMagic, sizeof(kCheckpointMagic));
  writer.U32(kCheckpointVersion);
  writer.U32(static_cast<uint32_t>(config_.num_levels));
  writer.U32(static_cast<uint32_t>(model_.num_features()));
  writer.U32(config_.transitions == TransitionModel::kGlobal ? 1u : 0u);
  SerializeSchema(model_.schema(), &writer);
  writer.U64(num_items);
  for (int f = 0; f < model_.num_features(); ++f) {
    for (int s = 1; s <= config_.num_levels; ++s) {
      writer.VecF64(model_.component(f, s).Parameters());
    }
  }
  writer.U64(static_cast<uint64_t>(assignments_.size()));
  for (const std::vector<int>& path : assignments_) {
    writer.U32(static_cast<uint32_t>(path.size()));
    writer.Raw(path.data(), path.size() * sizeof(int));
  }
  writer.U64(static_cast<uint64_t>(level_counts_.size()));
  writer.Raw(level_counts_.data(), level_counts_.size() * sizeof(double));
  writer.U8(config_.transitions == TransitionModel::kGlobal ? 1 : 0);
  if (config_.transitions == TransitionModel::kGlobal) {
    writer.VecF64(transitions_.log_initial);
    writer.F64(transitions_.log_stay);
    writer.F64(transitions_.log_up);
  }
  const uint32_t crc =
      Crc32(writer.buffer().data(), writer.buffer().size());
  writer.U32(crc);

  // A crash or failure leaves either the old checkpoint or the new one,
  // never a torn file.
  return ReplaceFile(path, writer.buffer());
}

Result<OnlineTrainer> OnlineTrainer::LoadCheckpoint(
    const std::string& path, const SkillModelConfig& config) {
  Result<FileContents> file = ReadFile(path);
  if (!file.ok()) return file.status();
  const std::string_view bytes = file.value().view();
  if (bytes.size() < sizeof(kCheckpointMagic) + 4 + 4) {
    return Status::Corruption("checkpoint truncated: " + path);
  }
  if (std::memcmp(bytes.data(), kCheckpointMagic,
                  sizeof(kCheckpointMagic)) != 0) {
    return Status::Corruption("checkpoint bad magic: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  if (Crc32(bytes.data(), bytes.size() - 4) != stored_crc) {
    return Status::Corruption("checkpoint crc mismatch: " + path);
  }

  ByteReader reader(bytes.data() + sizeof(kCheckpointMagic),
                    bytes.size() - sizeof(kCheckpointMagic) - 4);
  const auto corrupt = [&](const std::string& what) {
    return Status::Corruption("checkpoint " + what + ": " + path);
  };
  uint32_t version = 0, num_levels = 0, num_features = 0, has_global = 0;
  if (!reader.U32(&version) || !reader.U32(&num_levels) ||
      !reader.U32(&num_features) || !reader.U32(&has_global)) {
    return corrupt("truncated header");
  }
  if (version != kCheckpointVersion) {
    return corrupt(StringPrintf("unsupported version %u", version));
  }
  if (config.transitions == TransitionModel::kPerClass) {
    return Status::FailedPrecondition(
        "online training does not support TransitionModel::kPerClass");
  }
  if (static_cast<uint32_t>(config.num_levels) != num_levels) {
    return Status::FailedPrecondition(StringPrintf(
        "checkpoint has %u levels, config wants %d", num_levels,
        config.num_levels));
  }
  const bool want_global = config.transitions == TransitionModel::kGlobal;
  if (want_global != (has_global == 1)) {
    return Status::FailedPrecondition(
        "checkpoint transition model does not match config");
  }
  Result<FeatureSchema> schema = DeserializeSchema(&reader);
  if (!schema.ok()) return schema.status();
  if (static_cast<uint32_t>(schema.value().num_features()) != num_features) {
    return corrupt("schema/feature-count mismatch");
  }
  if (!ComponentParametersFit(schema.value(), config.num_levels,
                              reader.remaining())) {
    return corrupt("model shape exceeds the file");
  }
  uint64_t num_items = 0;
  if (!reader.U64(&num_items)) return corrupt("truncated item count");

  OnlineTrainer trainer(config);
  Result<SkillModel> model = SkillModel::Create(schema.value(), config);
  if (!model.ok()) return model.status();
  trainer.model_ = std::move(model).value();
  for (uint32_t f = 0; f < num_features; ++f) {
    for (uint32_t s = 1; s <= num_levels; ++s) {
      std::vector<double> params;
      if (!reader.VecF64(&params)) return corrupt("truncated parameters");
      const Status set =
          trainer.model_
              .mutable_component(static_cast<int>(f), static_cast<int>(s))
              ->SetParameters(params);
      if (!set.ok()) {
        return corrupt(StringPrintf("component (%u, %u): %s", f, s,
                                    set.message().c_str()));
      }
    }
  }
  // Each user takes at least its 4-byte path length, each level 4 bytes.
  uint64_t num_users = 0;
  if (!reader.U64(&num_users)) return corrupt("truncated user count");
  if (num_users > reader.remaining() / sizeof(uint32_t)) {
    return corrupt("user count exceeds the file");
  }
  trainer.assignments_.resize(num_users);
  for (uint64_t u = 0; u < num_users; ++u) {
    uint32_t length = 0;
    if (!reader.U32(&length) || length > reader.remaining() / sizeof(int)) {
      return corrupt("truncated assignments");
    }
    std::vector<int>& path = trainer.assignments_[u];
    path.resize(length);
    if (!reader.Raw(path.data(), static_cast<size_t>(length) * sizeof(int))) {
      return corrupt("truncated assignments");
    }
    for (const int level : path) {
      if (level < 1 || level > static_cast<int>(num_levels)) {
        return corrupt(StringPrintf("assignment level %d out of range",
                                    level));
      }
    }
  }
  uint64_t grid_size = 0;
  if (!reader.U64(&grid_size)) return corrupt("truncated grid");
  if (grid_size != static_cast<uint64_t>(num_levels) * num_items) {
    return corrupt("grid size does not match levels * items");
  }
  if (grid_size > reader.remaining() / sizeof(double)) {
    return corrupt("truncated grid");
  }
  trainer.level_counts_.resize(static_cast<size_t>(grid_size));
  if (!reader.Doubles(trainer.level_counts_)) return corrupt("truncated grid");
  uint8_t stored_global = 0;
  if (!reader.U8(&stored_global)) return corrupt("truncated transitions");
  if ((stored_global == 1) != want_global) {
    return corrupt("transition flag disagrees with header");
  }
  if (want_global) {
    if (!reader.VecF64(&trainer.transitions_.log_initial) ||
        !reader.F64(&trainer.transitions_.log_stay) ||
        !reader.F64(&trainer.transitions_.log_up)) {
      return corrupt("truncated transitions");
    }
    if (trainer.transitions_.log_initial.size() !=
        static_cast<size_t>(num_levels)) {
      return corrupt("transition vector has wrong length");
    }
  }
  if (!reader.exhausted()) return corrupt("trailing bytes");
  trainer.trained_ = true;
  return trainer;
}

}  // namespace upskill
