#include "data/dataset.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"

namespace upskill {

// The owned buffer copies, moves and reallocs actions as raw bytes.
static_assert(std::is_trivially_copyable_v<Action>);

ItemTable::ItemTable(FeatureSchema schema) : schema_(std::move(schema)) {
  columns_.resize(static_cast<size_t>(schema_.num_features()));
}

Result<ItemId> ItemTable::AddItem(std::span<const double> values,
                                  std::string name) {
  if (static_cast<int>(values.size()) != schema_.num_features()) {
    return Status::InvalidArgument(
        StringPrintf("item has %zu values, schema has %d features",
                     values.size(), schema_.num_features()));
  }
  const ItemId id = num_items_;
  for (int f = 0; f < schema_.num_features(); ++f) {
    double value = values[static_cast<size_t>(f)];
    if (f == schema_.id_feature() && value == -1.0) {
      value = static_cast<double>(id);
    }
    UPSKILL_RETURN_IF_ERROR(schema_.ValidateValue(f, value));
    columns_[static_cast<size_t>(f)].push_back(value);
  }
  names_.push_back(std::move(name));
  ++num_items_;
  return id;
}

Status ItemTable::SetMetadata(const std::string& key,
                              std::vector<double> values) {
  if (key.empty()) return Status::InvalidArgument("empty metadata key");
  if (static_cast<int>(values.size()) != num_items_) {
    return Status::InvalidArgument(
        StringPrintf("metadata %s has %zu values for %d items", key.c_str(),
                     values.size(), num_items_));
  }
  metadata_[key] = std::move(values);
  return Status::OK();
}

Result<std::span<const double>> ItemTable::Metadata(
    const std::string& key) const {
  const auto it = metadata_.find(key);
  if (it == metadata_.end()) {
    return Status::NotFound("no metadata column " + key);
  }
  return std::span<const double>(it->second);
}

Dataset::Dataset(ItemTable items) : items_(std::move(items)) {}

Dataset Dataset::FromMappedSequences(
    ItemTable items, std::vector<std::string> user_names,
    std::vector<std::span<const Action>> views,
    std::shared_ptr<const void> storage) {
  UPSKILL_CHECK(storage != nullptr);
  UPSKILL_CHECK(user_names.size() == views.size());
  Dataset dataset(std::move(items));
  dataset.user_names_ = std::move(user_names);
  dataset.views_ = std::move(views);
  dataset.storage_ = std::move(storage);
  for (const std::span<const Action>& view : dataset.views_) {
    dataset.num_actions_ += view.size();
  }
  return dataset;
}

UserId Dataset::AddUser(std::string name) {
  UPSKILL_CHECK(!mapped());
  runs_.emplace_back();
  user_names_.push_back(std::move(name));
  return static_cast<UserId>(runs_.size() - 1);
}

Status Dataset::AddAction(UserId user, int64_t time, ItemId item,
                          double rating) {
  if (mapped()) {
    return Status::FailedPrecondition(
        "mapped datasets are immutable; compact into a new store instead");
  }
  if (user < 0 || user >= num_users()) {
    return Status::OutOfRange(StringPrintf("user %d", user));
  }
  if (item < 0 || item >= items_.num_items()) {
    return Status::OutOfRange(StringPrintf("item %d", item));
  }
  Run& run = runs_[static_cast<size_t>(user)];
  if (run.size > 0) {
    const int64_t tail_time = actions_.data()[run.begin + run.size - 1].time;
    if (tail_time > time) {
      return Status::FailedPrecondition(StringPrintf(
          "action at time %lld precedes the sequence tail at %lld; a "
          "user's actions must come in time order",
          static_cast<long long>(time), static_cast<long long>(tail_time)));
    }
  }
  if (run.size == run.room) MakeRoom(run);
  actions_.data()[run.begin + run.size] = Action{time, item, rating};
  ++run.size;
  ++num_actions_;
  if (2 * moved_from_ > num_actions_) Compact();
  return Status::OK();
}

void Dataset::MakeRoom(Run& run) {
  const size_t end = actions_.size();
  if (run.room > 0 && run.begin + run.room == end) {
    // The tail takes exactly the slot it needs.
    actions_.Resize(end + 1);
    ++run.room;
    return;
  }
  // Out of turn: move to the end with half again its size as room, so a
  // run moves O(log n) times over n appends.
  const size_t room = run.size + run.size / 2 + 1;
  actions_.Resize(end + room);
  if (run.size > 0) {
    std::memcpy(actions_.data() + end, actions_.data() + run.begin,
                run.size * sizeof(Action));
  }
  moved_from_ += run.room;
  run.begin = end;
  run.room = room;
}

void Dataset::Compact() {
  // Runs with slots, in buffer order; each moves down over the gap.
  std::vector<size_t> order;
  for (size_t u = 0; u < runs_.size(); ++u) {
    if (runs_[u].room > 0) order.push_back(u);
  }
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return runs_[a].begin < runs_[b].begin;
  });
  size_t end = 0;
  for (const size_t u : order) {
    Run& run = runs_[u];
    if (run.begin != end) {
      std::memmove(actions_.data() + end, actions_.data() + run.begin,
                   run.size * sizeof(Action));
      run.begin = end;
    }
    end += run.room;
  }
  actions_.Resize(end);
  moved_from_ = 0;
}

Dataset::ActionBuffer::ActionBuffer(const ActionBuffer& other)
    : size_(other.size_), capacity_(other.size_) {
  if (size_ == 0) return;
  data_ = static_cast<Action*>(std::malloc(size_ * sizeof(Action)));
  if (data_ == nullptr) throw std::bad_alloc();
  std::memcpy(data_, other.data_, size_ * sizeof(Action));
}

Dataset::ActionBuffer::ActionBuffer(ActionBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      capacity_(std::exchange(other.capacity_, 0)) {}

Dataset::ActionBuffer& Dataset::ActionBuffer::operator=(
    ActionBuffer other) noexcept {
  std::swap(data_, other.data_);
  std::swap(size_, other.size_);
  std::swap(capacity_, other.capacity_);
  return *this;
}

Dataset::ActionBuffer::~ActionBuffer() { std::free(data_); }

void Dataset::ActionBuffer::Resize(size_t size) {
  if (size > capacity_) {
    const size_t capacity = std::max({size, 2 * capacity_, size_t{64}});
    void* grown = std::realloc(data_, capacity * sizeof(Action));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = static_cast<Action*>(grown);
    capacity_ = capacity;
  }
  size_ = size;
}

int Dataset::CountUsedItems() const {
  std::vector<char> used(static_cast<size_t>(items_.num_items()), 0);
  ForEachAction([&used](UserId, const Action& a) {
    used[static_cast<size_t>(a.item)] = 1;
  });
  int count = 0;
  for (char u : used) count += u;
  return count;
}

int64_t Dataset::MinActionTime() const {
  bool any = false;
  int64_t min_time = 0;
  ForEachAction([&](UserId, const Action& a) {
    if (!any || a.time < min_time) {
      min_time = a.time;
      any = true;
    }
  });
  return min_time;
}

}  // namespace upskill
