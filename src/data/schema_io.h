#ifndef UPSKILL_DATA_SCHEMA_IO_H_
#define UPSKILL_DATA_SCHEMA_IO_H_

#include "common/bytes.h"
#include "common/status.h"
#include "data/schema.h"

namespace upskill {

/// Binary schema serialization shared by the serve snapshot format and the
/// columnar store. The encoding is self-delimiting, so a schema can be
/// embedded inside a larger payload.
void SerializeSchema(const FeatureSchema& schema, ByteWriter* out);

/// Inverse of SerializeSchema. Returns Corruption when the bytes are
/// truncated or describe an impossible schema.
Result<FeatureSchema> DeserializeSchema(ByteReader* in);

/// True when `remaining` bytes can hold the component parameters of a
/// model over `schema` with `num_levels` levels, as snapshots and
/// checkpoints store them: one length-prefixed double vector
/// (ByteWriter::VecF64) per (feature, level) cell, `cardinality` doubles
/// long for a categorical feature. Decoders call it before building a
/// model whose shape they read from the bytes. A non-positive
/// `num_levels` needs no bytes.
bool ComponentParametersFit(const FeatureSchema& schema, int num_levels,
                            size_t remaining);

}  // namespace upskill

#endif  // UPSKILL_DATA_SCHEMA_IO_H_
