#ifndef UPSKILL_DATA_DATASET_H_
#define UPSKILL_DATA_DATASET_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/schema.h"

namespace upskill {

using UserId = int32_t;
using ItemId = int32_t;

/// One action (t, u, i): user `u` (implicit in the owning sequence)
/// selected item `item` at time `time`. `rating` is the optional explicit
/// feedback used only by the rating-prediction task (NaN when absent).
struct Action {
  int64_t time = 0;
  ItemId item = -1;
  double rating = std::numeric_limits<double>::quiet_NaN();

  bool has_rating() const { return !std::isnan(rating); }
};

/// Column-major table of item feature values plus optional display names
/// and metadata columns. Metadata (e.g. a film's release time) is carried
/// alongside the items but is *not* part of the generative model.
class ItemTable {
 public:
  ItemTable() = default;
  explicit ItemTable(FeatureSchema schema);

  const FeatureSchema& schema() const { return schema_; }
  int num_items() const { return num_items_; }

  /// Appends an item. `values` has one entry per schema feature; a value of
  /// -1 in the ID-feature slot is replaced by the new item's index. Values
  /// are validated against the schema.
  Result<ItemId> AddItem(std::span<const double> values,
                         std::string name = "");

  /// Value of feature `f` for item `item`.
  double value(ItemId item, int f) const {
    return columns_[static_cast<size_t>(f)][static_cast<size_t>(item)];
  }

  /// Whole column for feature `f` (one entry per item).
  std::span<const double> column(int f) const {
    return columns_[static_cast<size_t>(f)];
  }

  /// Display name ("" when the item was added without one).
  const std::string& name(ItemId item) const {
    return names_[static_cast<size_t>(item)];
  }

  /// Attaches a named metadata column (one value per current item).
  Status SetMetadata(const std::string& key, std::vector<double> values);

  /// Reads a metadata column.
  Result<std::span<const double>> Metadata(const std::string& key) const;

  bool HasMetadata(const std::string& key) const {
    return metadata_.count(key) > 0;
  }
  const std::map<std::string, std::vector<double>>& metadata() const {
    return metadata_;
  }

 private:
  FeatureSchema schema_;
  int num_items_ = 0;
  std::vector<std::vector<double>> columns_;  // columns_[f][item]
  std::vector<std::string> names_;
  std::map<std::string, std::vector<double>> metadata_;
};

/// A set of per-user action sequences over a shared item table
/// (A = union of A_u, Section III). Sequences are kept in chronological
/// order: AddAction rejects an action earlier than its user's last one.
///
/// Two storage modes share one read API (`sequence()` returns a span
/// either way, which is what lets every consumer — trainer, exec shards,
/// eval, serve — run unchanged on either):
///  - owned (the default): every action lives in one buffer, built by
///    AddUser/AddAction. User u's actions are one run of slots in it,
///    `size` actions followed by `room - size` slots reserved for
///    appends. The run that ends the buffer (the tail) grows in place by
///    exactly the actions appended, so a dataset filled one user after
///    another holds exactly its actions. An append to a full run that is
///    not the tail moves the run to the end with room for half again its
///    size; once moved-from slots exceed half the live actions the
///    buffer compacts in place, so it spans at most 2x the live actions
///    (buffer_slots()). The buffer grows by realloc, which remaps
///    a large block instead of copying it, and a freed dataset hands the
///    whole block back;
///  - mapped: sequences are borrowed views into external storage (the
///    memory-mapped columnar store, src/store/), kept alive by a shared
///    handle. Mapped datasets are immutable — the mutating entry points
///    reject them — so a multi-GB store is readable without ever copying
///    an action into RAM.
class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(ItemTable items);

  /// Builds a mapped (immutable, zero-copy) dataset: `views[u]` is user
  /// u's chronological sequence, pointing into memory owned by `storage`
  /// (e.g. a store::MappedFile), which is kept alive for the dataset's
  /// lifetime — including through copies.
  static Dataset FromMappedSequences(
      ItemTable items, std::vector<std::string> user_names,
      std::vector<std::span<const Action>> views,
      std::shared_ptr<const void> storage);

  const ItemTable& items() const { return items_; }
  ItemTable& mutable_items() { return items_; }
  const FeatureSchema& schema() const { return items_.schema(); }

  /// True for datasets whose sequences borrow external (mapped) storage.
  bool mapped() const { return storage_ != nullptr; }

  /// Adds a user and returns their id. Rejects mapped datasets (checked).
  UserId AddUser(std::string name = "");

  /// Appends an action to `user`'s sequence. Fails when the item is out of
  /// range, the time would break chronological order, or the dataset is
  /// mapped.
  Status AddAction(UserId user, int64_t time, ItemId item,
                   double rating = std::numeric_limits<double>::quiet_NaN());

  int num_users() const {
    return static_cast<int>(mapped() ? views_.size() : runs_.size());
  }
  size_t num_actions() const { return num_actions_; }

  /// Slots the owned buffer spans: the live actions, the room reserved
  /// behind moved runs and the moved-from slots not yet compacted away.
  /// At most 2 * num_actions() for any append order; 0 when mapped.
  size_t buffer_slots() const { return actions_.size(); }

  /// User's actions in chronological order. For an owned dataset the span
  /// is valid only until the next AddUser or AddAction on this dataset
  /// (the buffer can move); a mapped dataset's spans live as long as the
  /// dataset or a copy of it.
  std::span<const Action> sequence(UserId user) const {
    if (mapped()) return views_[static_cast<size_t>(user)];
    const Run& run = runs_[static_cast<size_t>(user)];
    return {actions_.data() + run.begin, run.size};
  }
  const std::string& user_name(UserId user) const {
    return user_names_[static_cast<size_t>(user)];
  }

  /// Number of distinct items appearing in at least one action.
  int CountUsedItems() const;

  /// Earliest action time across all users; 0 for an empty dataset.
  int64_t MinActionTime() const;

  /// Invokes `fn(user, action)` for every action in user order then
  /// sequence order.
  template <typename Fn>
  void ForEachAction(Fn&& fn) const {
    for (UserId u = 0; u < num_users(); ++u) {
      for (const Action& a : sequence(u)) {
        fn(u, a);
      }
    }
  }

 private:
  // One user's slots in the owned buffer, as offsets so that copies and
  // moves of the dataset stay valid: actions at [begin, begin + size),
  // reserved room up to begin + room. A user with no actions has room 0.
  struct Run {
    size_t begin = 0;
    size_t size = 0;
    size_t room = 0;
  };

  // The owned mode's action slots: one malloc'd block that grows by
  // realloc. A copy allocates exactly the slots in use.
  class ActionBuffer {
   public:
    ActionBuffer() = default;
    ActionBuffer(const ActionBuffer& other);
    ActionBuffer(ActionBuffer&& other) noexcept;
    ActionBuffer& operator=(ActionBuffer other) noexcept;
    ~ActionBuffer();

    Action* data() { return data_; }
    const Action* data() const { return data_; }
    // Slots in use, [0, size()).
    size_t size() const { return size_; }
    // Sets the slots in use, keeping the first min(size, size()) of them;
    // the block grows at least twofold when it must grow.
    void Resize(size_t size);

   private:
    Action* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  // Gives the full run `run` a free slot at its end: in place for the
  // tail, else by moving it to the end of the buffer.
  void MakeRoom(Run& run);
  // Packs the runs in buffer order, dropping moved-from slots.
  void Compact();

  ItemTable items_;
  // Owned mode: the buffer, each user's run in it, and the slots runs
  // have moved out of since the last compaction.
  ActionBuffer actions_;
  std::vector<Run> runs_;
  size_t moved_from_ = 0;
  // Mapped mode: borrowed views plus the handle keeping them alive.
  // `storage_ != nullptr` is the mode discriminant; copies share it.
  std::vector<std::span<const Action>> views_;
  std::shared_ptr<const void> storage_;
  std::vector<std::string> user_names_;
  size_t num_actions_ = 0;
};

}  // namespace upskill

#endif  // UPSKILL_DATA_DATASET_H_
