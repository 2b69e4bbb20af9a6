#include "core/skill_model.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "dist/categorical.h"
#include "exec/backend.h"
#include "dist/gamma.h"
#include "dist/lognormal.h"
#include "dist/poisson.h"

namespace upskill {

bool AssignmentsAreMonotone(const SkillAssignments& assignments,
                            int num_levels) {
  for (const std::vector<int>& seq : assignments) {
    int previous = 1;
    for (size_t n = 0; n < seq.size(); ++n) {
      const int level = seq[n];
      if (level < 1 || level > num_levels) return false;
      if (n > 0 && (level < previous || level > previous + 1)) return false;
      previous = level;
    }
  }
  return true;
}

SkillModel::SkillModel(FeatureSchema schema, SkillModelConfig config)
    : schema_(std::move(schema)), config_(config) {}

Result<SkillModel> SkillModel::Create(const FeatureSchema& schema,
                                      const SkillModelConfig& config) {
  if (config.num_levels < 1) {
    return Status::InvalidArgument("num_levels must be >= 1");
  }
  if (schema.num_features() == 0) {
    return Status::InvalidArgument("schema has no features");
  }
  if (config.smoothing < 0.0) {
    return Status::InvalidArgument("smoothing must be non-negative");
  }
  SkillModel model(schema, config);
  model.components_.reserve(static_cast<size_t>(schema.num_features()) *
                            static_cast<size_t>(config.num_levels));
  for (int f = 0; f < schema.num_features(); ++f) {
    const FeatureSpec& spec = schema.feature(f);
    for (int s = 1; s <= config.num_levels; ++s) {
      switch (spec.distribution) {
        case DistributionKind::kCategorical:
          model.components_.push_back(
              std::make_unique<Categorical>(spec.cardinality, config.smoothing));
          break;
        case DistributionKind::kPoisson:
          model.components_.push_back(std::make_unique<Poisson>());
          break;
        case DistributionKind::kGamma:
          model.components_.push_back(std::make_unique<Gamma>());
          break;
        case DistributionKind::kLogNormal:
          model.components_.push_back(std::make_unique<LogNormal>());
          break;
      }
    }
  }
  return model;
}

SkillModel::SkillModel(const SkillModel& other)
    : schema_(other.schema_), config_(other.config_) {
  components_.reserve(other.components_.size());
  for (const auto& component : other.components_) {
    components_.push_back(component->Clone());
  }
}

SkillModel& SkillModel::operator=(const SkillModel& other) {
  if (this == &other) return *this;
  schema_ = other.schema_;
  config_ = other.config_;
  components_.clear();
  components_.reserve(other.components_.size());
  for (const auto& component : other.components_) {
    components_.push_back(component->Clone());
  }
  return *this;
}

const Distribution& SkillModel::component(int feature, int level) const {
  UPSKILL_CHECK(feature >= 0 && feature < num_features());
  UPSKILL_CHECK(level >= 1 && level <= num_levels());
  return *components_[GridIndex(feature, level)];
}

Distribution* SkillModel::mutable_component(int feature, int level) {
  UPSKILL_CHECK(feature >= 0 && feature < num_features());
  UPSKILL_CHECK(level >= 1 && level <= num_levels());
  return components_[GridIndex(feature, level)].get();
}

double SkillModel::ItemLogProb(const ItemTable& items, ItemId item,
                               int level) const {
  double total = 0.0;
  for (int f = 0; f < num_features(); ++f) {
    total += components_[GridIndex(f, level)]->LogProb(items.value(item, f));
  }
  return total;
}

std::vector<double> SkillModel::ItemLogProbCache(
    const ItemTable& items, exec::Backend* backend) const {
  LogProbCache cache;
  cache.Update(*this, items, backend);
  return std::move(cache).TakeValues();
}

namespace {
// Items per parallel task when refreshing cache columns/totals; large
// enough to amortize dispatch, small enough to spread the cells over
// every worker.
constexpr size_t kCacheBlock = 2048;
}  // namespace

void LogProbCache::Update(const SkillModel& model, const ItemTable& items,
                          exec::Backend* backend) {
  if (backend == nullptr) backend = exec::Backend::Serial();
  const int levels = model.num_levels();
  const int features = model.num_features();
  const size_t num_items = static_cast<size_t>(items.num_items());
  const size_t num_cells =
      static_cast<size_t>(features) * static_cast<size_t>(levels);
  columns_.resize(num_cells * num_items);
  totals_.resize(num_items * static_cast<size_t>(levels));
  if (num_items == 0) return;

  // Log-support features (Gamma, LogNormal) pay for std::log over the
  // item column once per feature, not once per cell: all S cells of a
  // feature score the same column, so the logs are shared through
  // LogProbBatchWithLogs. log_offset[f] indexes the feature's slice of
  // log_scratch_ (SIZE_MAX: not log-support).
  const size_t blocks = (num_items + kCacheBlock - 1) / kCacheBlock;
  std::vector<size_t> log_offset(static_cast<size_t>(features), SIZE_MAX);
  {
    std::vector<int> features_with_logs;
    for (int f = 0; f < features; ++f) {
      const DistributionKind kind = model.component(f, 1).kind();
      if (kind == DistributionKind::kGamma ||
          kind == DistributionKind::kLogNormal) {
        log_offset[static_cast<size_t>(f)] =
            features_with_logs.size() * num_items;
        features_with_logs.push_back(f);
      }
    }
    log_scratch_.resize(features_with_logs.size() * num_items);
    // Disjoint scratch slices per (feature, block) task and no cross-task
    // reduction, so scheduling cannot move a value.
    backend->RunIndices(0, features_with_logs.size() * blocks, [&](size_t task) {
      const int f = features_with_logs[task / blocks];
      const size_t begin = (task % blocks) * kCacheBlock;
      const size_t count = std::min(num_items - begin, kCacheBlock);
      const std::span<const double> values =
          items.column(f).subspan(begin, count);
      double* logs =
          log_scratch_.data() + log_offset[static_cast<size_t>(f)] + begin;
      for (size_t i = 0; i < count; ++i) {
        logs[i] = values[i] > 0.0 ? std::log(values[i]) : 0.0;
      }
    });
  }

  // Every (cell, item-block) task writes a disjoint column slice and no
  // floats are reduced across tasks, so scheduling cannot affect the
  // values.
  backend->RunIndices(0, num_cells * blocks, [&](size_t task) {
    const size_t cell = task / blocks;
    const size_t begin = (task % blocks) * kCacheBlock;
    const size_t count = std::min(num_items - begin, kCacheBlock);
    const int f = static_cast<int>(cell / levels);
    const int s = static_cast<int>(cell % levels) + 1;
    const std::span<const double> values =
        items.column(f).subspan(begin, count);
    const std::span<double> out(columns_.data() + cell * num_items + begin,
                                count);
    const size_t logs = log_offset[static_cast<size_t>(f)];
    if (logs != SIZE_MAX) {
      model.component(f, s).LogProbBatchWithLogs(
          values,
          std::span<const double>(log_scratch_.data() + logs + begin, count),
          out);
    } else {
      model.component(f, s).LogProbBatch(values, out);
    }
  });

  // Totals sum features in ascending order from 0.0 so they stay bitwise
  // equal to ItemLogProb; each item's sum is serial within its block, so
  // thread count cannot move a rounding.
  backend->RunIndices(0, blocks, [&](size_t block) {
    const size_t begin = block * kCacheBlock;
    const size_t end = std::min(num_items, begin + kCacheBlock);
    for (size_t item = begin; item < end; ++item) {
      for (int s = 1; s <= levels; ++s) {
        double total = 0.0;
        for (int f = 0; f < features; ++f) {
          const size_t cell = static_cast<size_t>(f) * levels + (s - 1);
          total += columns_[cell * num_items + item];
        }
        totals_[item * static_cast<size_t>(levels) + (s - 1)] = total;
      }
    }
  });
}

Status SkillModel::Save(const std::string& path) const {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"feature", "level", "kind", "parameters"});
  for (int f = 0; f < num_features(); ++f) {
    for (int s = 1; s <= num_levels(); ++s) {
      const Distribution& dist = component(f, s);
      std::string params;
      for (double p : dist.Parameters()) {
        if (!params.empty()) params += '|';
        params += StringPrintf("%.17g", p);
      }
      rows.push_back({StringPrintf("%d", f), StringPrintf("%d", s),
                      DistributionKindToString(dist.kind()), std::move(params)});
    }
  }
  return WriteCsvFile(path, rows);
}

Result<SkillModel> SkillModel::Load(const std::string& path,
                                    const FeatureSchema& schema,
                                    const SkillModelConfig& config) {
  Result<SkillModel> model = Create(schema, config);
  if (!model.ok()) return model.status();
  // Save writes a component's parameters as %.17g values joined by '|',
  // at most 25 bytes each, after a "feature,level,kind," prefix of at most
  // 64 bytes; a categorical component holds one value per category.
  size_t max_parameters = 2;
  for (int f = 0; f < schema.num_features(); ++f) {
    max_parameters = std::max(
        max_parameters, static_cast<size_t>(schema.feature(f).cardinality));
  }
  Result<CsvScanner> opened =
      CsvScanner::Open(path, 64 + 25 * max_parameters);
  if (!opened.ok()) return opened.status();
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  size_t restored = 0;
  for (bool header = true;; header = false) {
    Result<bool> next = scanner.Next(&row);
    if (!next.ok()) return next.status();
    if (!next.value()) break;
    if (header) continue;
    // Save ends every row in a newline, so a row without one was cut off,
    // possibly mid-number.
    if (!scanner.line_terminated()) {
      return scanner.CorruptionAt("model row is not newline-terminated");
    }
    if (row.size() != 4) {
      return scanner.CorruptionAt(
          StringPrintf("model row has %zu fields, want 4", row.size()));
    }
    Result<long long> feature = ParseInt(row[0]);
    Result<long long> level = ParseInt(row[1]);
    if (!feature.ok()) return feature.status();
    if (!level.ok()) return level.status();
    if (feature.value() < 0 || feature.value() >= schema.num_features() ||
        level.value() < 1 || level.value() > config.num_levels) {
      return scanner.CorruptionAt("model row out of range");
    }
    Result<DistributionKind> kind = DistributionKindFromString(row[2]);
    if (!kind.ok()) return kind.status();
    Distribution* dist = model.value().mutable_component(
        static_cast<int>(feature.value()), static_cast<int>(level.value()));
    if (dist->kind() != kind.value()) {
      return scanner.CorruptionAt(
          "kind " + row[2] + " does not match the schema");
    }
    std::vector<double> params;
    for (const std::string& field : Split(row[3], '|')) {
      Result<double> value = ParseDouble(field);
      if (!value.ok()) return value.status();
      params.push_back(value.value());
    }
    UPSKILL_RETURN_IF_ERROR(dist->SetParameters(params));
    ++restored;
  }
  const size_t expected = static_cast<size_t>(schema.num_features()) *
                          static_cast<size_t>(config.num_levels);
  if (restored != expected) {
    return Status::Corruption(StringPrintf(
        "model file restored %zu of %zu components", restored, expected));
  }
  return model;
}

}  // namespace upskill
