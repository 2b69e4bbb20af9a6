#include "data/schema_io.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "data/feature.h"

namespace upskill {

void SerializeSchema(const FeatureSchema& schema, ByteWriter* out) {
  out->I32(schema.num_features());
  out->I32(schema.id_feature());
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    out->Str(spec.name);
    out->U8(static_cast<uint8_t>(spec.type));
    out->U8(static_cast<uint8_t>(spec.distribution));
    out->I32(spec.cardinality);
    out->U32(static_cast<uint32_t>(spec.labels.size()));
    for (const std::string& label : spec.labels) out->Str(label);
  }
}

Result<FeatureSchema> DeserializeSchema(ByteReader* in) {
  int32_t num_features = 0;
  int32_t id_feature = 0;
  if (!in->I32(&num_features) || !in->I32(&id_feature) || num_features < 0) {
    return Status::Corruption("schema header");
  }
  FeatureSchema schema;
  for (int32_t f = 0; f < num_features; ++f) {
    std::string name;
    uint8_t type = 0;
    uint8_t distribution = 0;
    int32_t cardinality = 0;
    uint32_t num_labels = 0;
    if (!in->Str(&name) || !in->U8(&type) || !in->U8(&distribution) ||
        !in->I32(&cardinality) || !in->U32(&num_labels)) {
      return Status::Corruption(StringPrintf("schema feature %d", f));
    }
    // Each label takes at least its 4-byte length.
    if (num_labels > in->remaining() / sizeof(uint32_t)) {
      return Status::Corruption(
          StringPrintf("schema labels of feature %d", f));
    }
    std::vector<std::string> labels(num_labels);
    for (std::string& label : labels) {
      if (!in->Str(&label)) {
        return Status::Corruption(
            StringPrintf("schema labels of feature %d", f));
      }
    }
    Result<int> added = [&]() -> Result<int> {
      if (f == id_feature) return schema.AddIdFeature(cardinality);
      switch (static_cast<FeatureType>(type)) {
        case FeatureType::kCategorical:
          return schema.AddCategorical(std::move(name), cardinality,
                                       std::move(labels));
        case FeatureType::kCount:
          return schema.AddCount(std::move(name));
        case FeatureType::kReal:
          return schema.AddReal(std::move(name),
                                static_cast<DistributionKind>(distribution));
      }
      return Status::Corruption("schema feature type");
    }();
    if (!added.ok()) return added.status();
  }
  return schema;
}

bool ComponentParametersFit(const FeatureSchema& schema, int num_levels,
                            size_t remaining) {
  if (num_levels <= 0) return true;
  // Bytes of one level's cells, compared as it grows so it cannot
  // overflow.
  size_t level_bytes = 0;
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    level_bytes += sizeof(uint32_t);
    if (spec.distribution == DistributionKind::kCategorical) {
      level_bytes += static_cast<size_t>(spec.cardinality) * sizeof(double);
    }
    if (level_bytes > remaining) return false;
  }
  return level_bytes == 0 ||
         static_cast<size_t>(num_levels) <= remaining / level_bytes;
}

}  // namespace upskill
