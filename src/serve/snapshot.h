#ifndef UPSKILL_SERVE_SNAPSHOT_H_
#define UPSKILL_SERVE_SNAPSHOT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/skill_model.h"
#include "core/trainer.h"
#include "data/dataset.h"

namespace upskill {
namespace serve {

/// Everything the online serving layer needs from a training run, bundled
/// for atomic persistence: the learned model (components + config), the
/// item universe it scores (feature columns + display names — but not
/// metadata columns, which are not part of the generative model), the
/// per-item difficulty table, and the optional global transition weights.
/// The CSV paths (SkillModel::Save, SaveDataset, assignment CSVs) remain
/// the human-readable interchange format; the snapshot is the machine
/// format: one file, versioned, checksummed, and bitwise round-tripping.
struct ModelSnapshot {
  SkillModelConfig config;
  FeatureSchema schema;
  SkillModel model;
  ItemTable items;
  /// One entry per item; NaN marks items with no estimate.
  std::vector<double> difficulty;
  /// Global progression weights (TransitionModel::kGlobal); when
  /// `has_transitions` is false the serving DP runs with a free start and
  /// zero stay/up costs, matching TransitionModel::kNone.
  bool has_transitions = false;
  TransitionWeights transitions;
};

/// Magic bytes at offset 0 of every snapshot file.
inline constexpr char kSnapshotMagic[8] = {'U', 'P', 'S', 'K',
                                           'S', 'N', 'A', 'P'};
/// Current format version (see DESIGN.md for the layout).
inline constexpr uint32_t kSnapshotVersion = 1;

/// Writes `snapshot` to `path`: a fixed header (magic, version, payload
/// size, payload CRC-32) followed by the payload. All multi-byte values
/// are little-endian host layout; doubles are written as raw IEEE-754
/// bits, which is what makes LoadSnapshot(SaveSnapshot(x)) bitwise equal
/// to x down to every parameter, difficulty, and feature value. The file
/// is replaced atomically (DurableFile::CreateReplacement ... Commit): a
/// failed save leaves the previous snapshot intact, and a `path` that is
/// not a regular file (a FIFO, a device node) is refused.
Status SaveSnapshot(const ModelSnapshot& snapshot, const std::string& path);

/// Reads a snapshot written by SaveSnapshot. Rejects bad magic, unknown
/// versions, payload size mismatches (truncation), checksum mismatches
/// (corruption), and any structurally invalid payload. The file is read
/// whole by ReadFile (common/durable_file.h): a regular file that reads
/// back short, or a directory, is an IoError; a pipe is read to EOF.
Result<ModelSnapshot> LoadSnapshot(const std::string& path);

/// Convenience builder: packages a trained model with its dataset's item
/// table, a difficulty table, and optional transition weights. Validates
/// that `difficulty` covers every item.
Result<ModelSnapshot> MakeSnapshot(const SkillModel& model,
                                   const ItemTable& items,
                                   std::vector<double> difficulty,
                                   const TransitionWeights* transitions =
                                       nullptr);

}  // namespace serve
}  // namespace upskill

#endif  // UPSKILL_SERVE_SNAPSHOT_H_
