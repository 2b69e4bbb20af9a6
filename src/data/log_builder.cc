#include "data/log_builder.h"

#include <algorithm>

#include "common/csv.h"
#include "common/string_util.h"

namespace upskill {

Status ActionLogBuilder::CheckDeclarable(const std::string& name) const {
  if (items_started_) {
    return Status::FailedPrecondition(
        "declare all features before adding items");
  }
  if (name.empty()) return Status::InvalidArgument("empty feature name");
  for (const FeatureSpec& spec : declared_) {
    if (spec.name == name) {
      return Status::InvalidArgument("duplicate feature name: " + name);
    }
  }
  if (name == kItemIdFeatureName) {
    return Status::InvalidArgument(
        "the item-ID feature is added automatically");
  }
  return Status::OK();
}

Status ActionLogBuilder::DeclareCategorical(std::string name, int cardinality,
                                            std::vector<std::string> labels) {
  UPSKILL_RETURN_IF_ERROR(CheckDeclarable(name));
  if (cardinality <= 0) {
    return Status::InvalidArgument("cardinality must be positive");
  }
  if (!labels.empty() && static_cast<int>(labels.size()) != cardinality) {
    return Status::InvalidArgument("label count does not match cardinality");
  }
  FeatureSpec spec;
  spec.name = std::move(name);
  spec.type = FeatureType::kCategorical;
  spec.distribution = DistributionKind::kCategorical;
  spec.cardinality = cardinality;
  spec.labels = std::move(labels);
  declared_.push_back(std::move(spec));
  return Status::OK();
}

Status ActionLogBuilder::DeclareCount(std::string name) {
  UPSKILL_RETURN_IF_ERROR(CheckDeclarable(name));
  FeatureSpec spec;
  spec.name = std::move(name);
  spec.type = FeatureType::kCount;
  spec.distribution = DistributionKind::kPoisson;
  declared_.push_back(std::move(spec));
  return Status::OK();
}

Status ActionLogBuilder::DeclareReal(std::string name,
                                     DistributionKind kind) {
  UPSKILL_RETURN_IF_ERROR(CheckDeclarable(name));
  if (kind != DistributionKind::kGamma &&
      kind != DistributionKind::kLogNormal) {
    return Status::InvalidArgument(
        "real features use a gamma or log-normal component");
  }
  FeatureSpec spec;
  spec.name = std::move(name);
  spec.type = FeatureType::kReal;
  spec.distribution = kind;
  declared_.push_back(std::move(spec));
  return Status::OK();
}

Result<ItemId> ActionLogBuilder::AddItem(const std::string& key,
                                         std::span<const double> values) {
  if (key.empty()) return Status::InvalidArgument("empty item key");
  if (values.size() != declared_.size()) {
    return Status::InvalidArgument(
        StringPrintf("item %s: %zu values for %zu declared features",
                     key.c_str(), values.size(), declared_.size()));
  }
  if (item_ids_.count(key) > 0) {
    return Status::InvalidArgument("item already registered: " + key);
  }
  items_started_ = true;
  const ItemId id = static_cast<ItemId>(item_rows_.size());
  item_ids_.emplace(key, id);
  item_rows_.emplace_back(values.begin(), values.end());
  item_keys_.push_back(key);
  return id;
}

Status ActionLogBuilder::AddEvent(const std::string& user_key, int64_t time,
                                  const std::string& item_key,
                                  double rating) {
  if (user_key.empty()) return Status::InvalidArgument("empty user key");
  const auto item_it = item_ids_.find(item_key);
  ItemId item;
  if (item_it != item_ids_.end()) {
    item = item_it->second;
  } else if (declared_.empty()) {
    // Pure ID log: auto-register.
    Result<ItemId> added = AddItem(item_key, {});
    if (!added.ok()) return added.status();
    item = added.value();
  } else {
    return Status::NotFound("unregistered item: " + item_key);
  }

  UserId user;
  const auto user_it = user_ids_.find(user_key);
  if (user_it != user_ids_.end()) {
    user = user_it->second;
  } else {
    user = static_cast<UserId>(user_events_.size());
    user_ids_.emplace(user_key, user);
    user_keys_.push_back(user_key);
    user_events_.emplace_back();
  }
  user_events_[static_cast<size_t>(user)].push_back(
      Event{time, item, rating, num_events_});
  ++num_events_;
  return Status::OK();
}

Result<Dataset> ActionLogBuilder::Build() && {
  if (num_events_ == 0) {
    return Status::FailedPrecondition("no events recorded");
  }
  FeatureSchema schema;
  Result<int> id = schema.AddIdFeature(num_items());
  if (!id.ok()) return id.status();
  for (const FeatureSpec& spec : declared_) {
    Result<int> added = [&]() -> Result<int> {
      switch (spec.type) {
        case FeatureType::kCategorical:
          return schema.AddCategorical(spec.name, spec.cardinality,
                                       spec.labels);
        case FeatureType::kCount:
          return schema.AddCount(spec.name);
        case FeatureType::kReal:
          return schema.AddReal(spec.name, spec.distribution);
      }
      return Status::Internal("unhandled feature type");
    }();
    if (!added.ok()) return added.status();
  }

  ItemTable items(std::move(schema));
  std::vector<double> row(declared_.size() + 1);
  for (size_t i = 0; i < item_rows_.size(); ++i) {
    row[0] = -1.0;  // auto-fill the ID slot
    std::copy(item_rows_[i].begin(), item_rows_[i].end(), row.begin() + 1);
    Result<ItemId> added = items.AddItem(row, item_keys_[i]);
    if (!added.ok()) return added.status();
  }

  Dataset dataset(std::move(items));
  for (size_t u = 0; u < user_events_.size(); ++u) {
    dataset.AddUser(user_keys_[u]);
    std::vector<Event>& events = user_events_[u];
    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.arrival < b.arrival;
              });
    for (const Event& event : events) {
      UPSKILL_RETURN_IF_ERROR(dataset.AddAction(static_cast<UserId>(u),
                                                event.time, event.item,
                                                event.rating));
    }
  }
  return dataset;
}

Result<Dataset> LoadActionLogCsv(const std::string& path) {
  Result<CsvScanner> opened = CsvScanner::Open(path);
  if (!opened.ok()) return opened.status();
  CsvScanner scanner = std::move(opened).value();
  ActionLogBuilder builder;
  std::vector<std::string> row;
  for (bool first = true;; first = false) {
    Result<bool> next = scanner.Next(&row);
    if (!next.ok()) return next.status();
    if (!next.value()) break;
    if (row.size() != 3 && row.size() != 4) {
      return scanner.CorruptionAt("expected user,time,item[,rating]");
    }
    const Result<long long> time = ParseInt(row[1]);
    if (!time.ok()) {
      // The first row may be a header.
      if (first) continue;
      return time.status();
    }
    double rating = std::numeric_limits<double>::quiet_NaN();
    if (row.size() == 4 && !row[3].empty()) {
      Result<double> parsed = ParseDouble(row[3]);
      if (!parsed.ok()) return parsed.status();
      rating = parsed.value();
    }
    UPSKILL_RETURN_IF_ERROR(
        builder.AddEvent(row[0], time.value(), row[2], rating));
  }
  return std::move(builder).Build();
}

}  // namespace upskill
