#include "serve/serving_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/string_util.h"
#include "exec/backend.h"

namespace upskill {
namespace serve {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

// Radix key whose ascending unsigned order is `score`'s descending order.
// -0.0 is folded onto +0.0 first: the two compare equal, so they tie.
uint64_t DescendingKey(double score) {
  if (score == 0.0) score = 0.0;
  const uint64_t bits = std::bit_cast<uint64_t>(score);
  const uint64_t ascending = (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
  return ~ascending;
}

struct Keyed {
  uint64_t key;
  ItemId item;
};

}  // namespace

void RankDescending(const double* scores, size_t stride, size_t count,
                    ItemId* order) {
  // Stable LSD radix sort, one byte per pass, over items listed in
  // ascending id order: equal keys keep that order, which is the
  // comparator's tie-break. Passes whose byte is the same for every key
  // move nothing and are skipped.
  constexpr int kPasses = 8;
  std::vector<Keyed> items(count);
  std::vector<std::array<size_t, 256>> histograms(kPasses);
  for (auto& histogram : histograms) histogram.fill(0);
  for (size_t i = 0; i < count; ++i) {
    const uint64_t key = DescendingKey(scores[i * stride]);
    items[i] = Keyed{key, static_cast<ItemId>(i)};
    for (int pass = 0; pass < kPasses; ++pass) {
      ++histograms[pass][(key >> (8 * pass)) & 0xff];
    }
  }
  std::vector<Keyed> scratch(count);
  for (int pass = 0; pass < kPasses && count > 0; ++pass) {
    std::array<size_t, 256>& offsets = histograms[pass];
    const int shift = 8 * pass;
    if (offsets[(items[0].key >> shift) & 0xff] == count) continue;
    size_t next = 0;
    for (size_t& offset : offsets) {
      const size_t bucket = offset;
      offset = next;
      next += bucket;
    }
    for (const Keyed& item : items) {
      scratch[offsets[(item.key >> shift) & 0xff]++] = item;
    }
    items.swap(scratch);
  }
  for (size_t i = 0; i < count; ++i) order[i] = items[i].item;
}

Result<std::shared_ptr<const ServingModel>> ServingModel::FromSnapshot(
    ModelSnapshot snapshot, exec::Backend* backend) {
  if (backend == nullptr) backend = exec::Backend::Serial();
  const int levels = snapshot.config.num_levels;
  if (levels < 1) {
    return Status::InvalidArgument("snapshot has no skill levels");
  }
  if (snapshot.model.num_levels() != levels ||
      snapshot.model.num_features() != snapshot.schema.num_features()) {
    return Status::InvalidArgument("snapshot model/config shape mismatch");
  }
  if (static_cast<int>(snapshot.difficulty.size()) !=
      snapshot.items.num_items()) {
    return Status::InvalidArgument("snapshot difficulty size mismatch");
  }
  if (snapshot.has_transitions &&
      !snapshot.transitions.log_initial.empty() &&
      static_cast<int>(snapshot.transitions.log_initial.size()) != levels) {
    return Status::InvalidArgument("snapshot transition weights mismatch");
  }

  std::shared_ptr<ServingModel> model(new ServingModel());
  model->snapshot_ = std::move(snapshot);
  model->log_down_ =
      std::log(model->snapshot_.config.forgetting.drop_probability);
  model->log_probs_ =
      model->snapshot_.model.ItemLogProbCache(model->snapshot_.items, backend);

  const size_t num_items =
      static_cast<size_t>(model->snapshot_.items.num_items());
  model->ranked_.resize(static_cast<size_t>(levels) * num_items);
  const std::vector<double>& log_probs = model->log_probs_;
  // Per-level rankings are independent full sorts: one instrumented
  // shard per level, each writing a disjoint slice of ranked_.
  backend->Run(levels, [&](int level) {
    const size_t s = static_cast<size_t>(level);
    RankDescending(log_probs.data() + s, static_cast<size_t>(levels),
                   num_items, model->ranked_.data() + s * num_items);
  });
  return std::shared_ptr<const ServingModel>(std::move(model));
}

Result<std::shared_ptr<const ServingModel>> ServingModel::FromSnapshotFile(
    const std::string& path, exec::Backend* backend) {
  Result<ModelSnapshot> snapshot = LoadSnapshot(path);
  if (!snapshot.ok()) return snapshot.status();
  return FromSnapshot(std::move(snapshot).value(), backend);
}

std::span<const ItemId> ServingModel::RankedItems(int level) const {
  const size_t num_items = static_cast<size_t>(this->num_items());
  return std::span<const ItemId>(
      ranked_.data() + static_cast<size_t>(level - 1) * num_items, num_items);
}

Result<std::vector<UpskillRecommendation>> ServingModel::Recommend(
    int current_level, const UpskillRecommendationOptions& options) const {
  if (current_level < 1 || current_level > num_levels()) {
    return Status::OutOfRange(
        StringPrintf("level %d of %d", current_level, num_levels()));
  }
  if (options.max_results < 1) {
    return Status::InvalidArgument("max_results must be >= 1");
  }
  if (!(options.stretch > 0.0)) {
    return Status::InvalidArgument("stretch must be positive");
  }
  const int target = options.rank_by_next_level
                         ? std::min(current_level + 1, num_levels())
                         : current_level;
  const double lo = static_cast<double>(current_level);
  const double hi = lo + options.stretch;
  const std::vector<double>& difficulty = snapshot_.difficulty;
  const size_t stride = static_cast<size_t>(num_levels());

  std::vector<UpskillRecommendation> picks;
  picks.reserve(static_cast<size_t>(options.max_results));
  for (const ItemId item : RankedItems(target)) {
    const double d = difficulty[static_cast<size_t>(item)];
    if (std::isnan(d) || d <= lo || d > hi) continue;
    picks.push_back(UpskillRecommendation{
        item, d,
        log_probs_[static_cast<size_t>(item) * stride +
                   static_cast<size_t>(target - 1)]});
    if (static_cast<int>(picks.size()) == options.max_results) break;
  }
  return picks;
}

}  // namespace serve
}  // namespace upskill
