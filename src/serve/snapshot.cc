#include "serve/snapshot.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/durable_file.h"
#include "common/string_util.h"
#include "data/schema_io.h"

namespace upskill {
namespace serve {

namespace {

// Fixed-size header preceding the payload: magic, version, reserved
// (zero; room for future flags), payload size, payload CRC.
constexpr size_t kHeaderSize = 8 + 4 + 4 + 8 + 4;

void WriteConfig(const SkillModelConfig& config, ByteWriter* out) {
  // Only the fields that define model *semantics* are persisted; trainer
  // knobs (iterations, tolerances, parallelism) are not part of a model.
  out->I32(config.num_levels);
  out->F64(config.smoothing);
  out->I32(static_cast<int32_t>(config.transitions));
  out->I32(config.num_progression_classes);
  out->U8(config.forgetting.enabled ? 1 : 0);
  out->I64(config.forgetting.gap_threshold);
  out->F64(config.forgetting.drop_probability);
}

bool ReadConfig(ByteReader* in, SkillModelConfig* config) {
  int32_t transitions = 0;
  uint8_t forgetting = 0;
  if (!in->I32(&config->num_levels) || !in->F64(&config->smoothing) ||
      !in->I32(&transitions) || !in->I32(&config->num_progression_classes) ||
      !in->U8(&forgetting) || !in->I64(&config->forgetting.gap_threshold) ||
      !in->F64(&config->forgetting.drop_probability)) {
    return false;
  }
  if (transitions < 0 ||
      transitions > static_cast<int32_t>(TransitionModel::kPerClass)) {
    return false;
  }
  config->transitions = static_cast<TransitionModel>(transitions);
  config->forgetting.enabled = forgetting != 0;
  return true;
}

void WriteSchema(const FeatureSchema& schema, ByteWriter* out) {
  SerializeSchema(schema, out);
}

Result<FeatureSchema> ReadSchema(ByteReader* in) {
  Result<FeatureSchema> schema = DeserializeSchema(in);
  if (!schema.ok()) {
    return Status::Corruption("snapshot " + schema.status().message());
  }
  return schema;
}

}  // namespace

Result<ModelSnapshot> MakeSnapshot(const SkillModel& model,
                                   const ItemTable& items,
                                   std::vector<double> difficulty,
                                   const TransitionWeights* transitions) {
  if (static_cast<int>(difficulty.size()) != items.num_items()) {
    return Status::InvalidArgument(StringPrintf(
        "difficulty has %zu entries for %d items", difficulty.size(),
        items.num_items()));
  }
  if (transitions != nullptr && !transitions->log_initial.empty() &&
      static_cast<int>(transitions->log_initial.size()) !=
          model.num_levels()) {
    return Status::InvalidArgument("transition weights level mismatch");
  }
  ModelSnapshot snapshot;
  snapshot.config = model.config();
  snapshot.schema = model.schema();
  snapshot.model = model;
  snapshot.items = items;
  snapshot.difficulty = std::move(difficulty);
  if (transitions != nullptr) {
    snapshot.has_transitions = true;
    snapshot.transitions = *transitions;
  }
  return snapshot;
}

Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path) {
  const int levels = snapshot.config.num_levels;
  const int features = snapshot.schema.num_features();
  const int num_items = snapshot.items.num_items();
  if (snapshot.model.num_levels() != levels ||
      snapshot.model.num_features() != features) {
    return Status::InvalidArgument("snapshot model/config shape mismatch");
  }
  if (static_cast<int>(snapshot.difficulty.size()) != num_items) {
    return Status::InvalidArgument("snapshot difficulty size mismatch");
  }

  ByteWriter payload;
  WriteConfig(snapshot.config, &payload);
  WriteSchema(snapshot.schema, &payload);
  for (int f = 0; f < features; ++f) {
    for (int s = 1; s <= levels; ++s) {
      payload.VecF64(snapshot.model.component(f, s).Parameters());
    }
  }
  payload.U8(snapshot.has_transitions ? 1 : 0);
  if (snapshot.has_transitions) {
    payload.VecF64(snapshot.transitions.log_initial);
    payload.F64(snapshot.transitions.log_stay);
    payload.F64(snapshot.transitions.log_up);
  }
  payload.I32(num_items);
  for (int f = 0; f < features; ++f) {
    const std::span<const double> column = snapshot.items.column(f);
    for (double v : column) payload.F64(v);
  }
  bool any_name = false;
  for (ItemId i = 0; i < num_items; ++i) {
    any_name = any_name || !snapshot.items.name(i).empty();
  }
  payload.U8(any_name ? 1 : 0);
  if (any_name) {
    for (ItemId i = 0; i < num_items; ++i) payload.Str(snapshot.items.name(i));
  }
  payload.VecF64(snapshot.difficulty);

  ByteWriter header;
  header.Raw(kSnapshotMagic, sizeof kSnapshotMagic);
  header.U32(kSnapshotVersion);
  header.U32(0);  // reserved
  header.U64(payload.buffer().size());
  header.U32(Crc32(payload.buffer().data(), payload.buffer().size()));

  Result<DurableFile> file = DurableFile::CreateReplacement(path);
  if (!file.ok()) return file.status();
  UPSKILL_RETURN_IF_ERROR(file.value().Write(header.buffer()));
  UPSKILL_RETURN_IF_ERROR(file.value().Write(payload.buffer()));
  return file.value().Commit();
}

Result<ModelSnapshot> LoadSnapshot(const std::string& path) {
  // The file is loaded whole: its CRC covers the whole payload.
  Result<FileContents> file = ReadFile(path);
  if (!file.ok()) return file.status();
  const std::string_view bytes = file.value().view();
  if (bytes.size() < kHeaderSize) {
    return Status::Corruption("snapshot shorter than header");
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof kSnapshotMagic) != 0) {
    return Status::Corruption("not a snapshot file (bad magic)");
  }
  uint32_t version = 0;
  uint64_t payload_size = 0;
  uint32_t payload_crc = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof version);
  std::memcpy(&payload_size, bytes.data() + 16, sizeof payload_size);
  std::memcpy(&payload_crc, bytes.data() + 24, sizeof payload_crc);
  if (version != kSnapshotVersion) {
    return Status::Corruption(
        StringPrintf("unsupported snapshot version %u", version));
  }
  if (bytes.size() - kHeaderSize != payload_size) {
    return Status::Corruption(StringPrintf(
        "snapshot truncated: header claims %llu payload bytes, file has %zu",
        static_cast<unsigned long long>(payload_size),
        bytes.size() - kHeaderSize));
  }
  const char* payload = bytes.data() + kHeaderSize;
  if (Crc32(payload, payload_size) != payload_crc) {
    return Status::Corruption("snapshot checksum mismatch");
  }

  ByteReader reader(payload, payload_size);
  ModelSnapshot snapshot;
  if (!ReadConfig(&reader, &snapshot.config)) {
    return Status::Corruption("snapshot config section");
  }
  Result<FeatureSchema> schema = ReadSchema(&reader);
  if (!schema.ok()) return schema.status();
  snapshot.schema = std::move(schema).value();
  if (!ComponentParametersFit(snapshot.schema, snapshot.config.num_levels,
                              reader.remaining())) {
    return Status::Corruption(
        "snapshot model shape exceeds the payload (level count or "
        "cardinality)");
  }

  Result<SkillModel> model =
      SkillModel::Create(snapshot.schema, snapshot.config);
  if (!model.ok()) return model.status();
  snapshot.model = std::move(model).value();
  for (int f = 0; f < snapshot.schema.num_features(); ++f) {
    for (int s = 1; s <= snapshot.config.num_levels; ++s) {
      std::vector<double> params;
      if (!reader.VecF64(&params)) {
        return Status::Corruption(
            StringPrintf("snapshot component (%d, %d)", f, s));
      }
      UPSKILL_RETURN_IF_ERROR(
          snapshot.model.mutable_component(f, s)->SetParameters(params));
    }
  }

  uint8_t has_transitions = 0;
  if (!reader.U8(&has_transitions)) {
    return Status::Corruption("snapshot transitions section");
  }
  snapshot.has_transitions = has_transitions != 0;
  if (snapshot.has_transitions) {
    if (!reader.VecF64(&snapshot.transitions.log_initial) ||
        !reader.F64(&snapshot.transitions.log_stay) ||
        !reader.F64(&snapshot.transitions.log_up)) {
      return Status::Corruption("snapshot transitions section");
    }
    if (!snapshot.transitions.log_initial.empty() &&
        static_cast<int>(snapshot.transitions.log_initial.size()) !=
            snapshot.config.num_levels) {
      return Status::Corruption("snapshot transition weights level mismatch");
    }
  }

  int32_t num_items = 0;
  const int features = snapshot.schema.num_features();
  // Every item has one double per feature column plus its difficulty.
  if (!reader.I32(&num_items) || num_items < 0 ||
      static_cast<size_t>(num_items) >
          reader.remaining() /
              (sizeof(double) * (static_cast<size_t>(features) + 1))) {
    return Status::Corruption("snapshot item section");
  }
  std::vector<std::vector<double>> columns(
      static_cast<size_t>(features),
      std::vector<double>(static_cast<size_t>(num_items)));
  for (int f = 0; f < features; ++f) {
    if (!reader.Doubles(columns[static_cast<size_t>(f)])) {
      return Status::Corruption(StringPrintf("snapshot item column %d", f));
    }
  }
  uint8_t has_names = 0;
  if (!reader.U8(&has_names)) {
    return Status::Corruption("snapshot item names section");
  }
  std::vector<std::string> names(static_cast<size_t>(num_items));
  if (has_names != 0) {
    for (std::string& name : names) {
      if (!reader.Str(&name)) {
        return Status::Corruption("snapshot item names section");
      }
    }
  }
  snapshot.items = ItemTable(snapshot.schema);
  std::vector<double> row(static_cast<size_t>(features));
  for (int32_t i = 0; i < num_items; ++i) {
    for (int f = 0; f < features; ++f) {
      row[static_cast<size_t>(f)] =
          columns[static_cast<size_t>(f)][static_cast<size_t>(i)];
    }
    Result<ItemId> added =
        snapshot.items.AddItem(row, std::move(names[static_cast<size_t>(i)]));
    if (!added.ok()) return added.status();
  }

  if (!reader.VecF64(&snapshot.difficulty)) {
    return Status::Corruption("snapshot difficulty section");
  }
  if (static_cast<int>(snapshot.difficulty.size()) != num_items) {
    return Status::Corruption("snapshot difficulty size mismatch");
  }
  if (!reader.exhausted()) {
    return Status::Corruption("snapshot has trailing bytes");
  }
  return snapshot;
}

}  // namespace serve
}  // namespace upskill
