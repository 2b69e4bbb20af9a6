#include "core/assignments_io.h"

#include "common/csv.h"
#include "common/string_util.h"

namespace upskill {

Status SaveAssignments(const SkillAssignments& assignments,
                       const std::string& path) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"user", "position", "level"});
  for (size_t u = 0; u < assignments.size(); ++u) {
    for (size_t n = 0; n < assignments[u].size(); ++n) {
      rows.push_back({StringPrintf("%zu", u), StringPrintf("%zu", n),
                      StringPrintf("%d", assignments[u][n])});
    }
  }
  return WriteCsvFile(path, rows);
}

Result<SkillAssignments> LoadAssignments(const std::string& path,
                                         int num_users, int num_levels) {
  if (num_users < 0) {
    return Status::InvalidArgument("num_users must be non-negative");
  }
  Result<CsvScanner> opened = CsvScanner::Open(path);
  if (!opened.ok()) return opened.status();
  CsvScanner scanner = std::move(opened).value();

  // Collect (position, level) pairs per user, then validate density.
  std::vector<std::vector<std::pair<size_t, int>>> pending(
      static_cast<size_t>(num_users));
  std::vector<std::string> row;
  for (bool header = true;; header = false) {
    Result<bool> next = scanner.Next(&row);
    if (!next.ok()) return next.status();
    if (!next.value()) break;
    if (header) continue;
    if (row.size() != 3) {
      return scanner.CorruptionAt("assignments row needs 3 fields");
    }
    const Result<long long> user = ParseInt(row[0]);
    const Result<long long> position = ParseInt(row[1]);
    const Result<long long> level = ParseInt(row[2]);
    if (!user.ok()) return user.status();
    if (!position.ok()) return position.status();
    if (!level.ok()) return level.status();
    if (user.value() < 0 || user.value() >= num_users) {
      return Status::OutOfRange(
          StringPrintf("user %lld out of range", user.value()));
    }
    if (level.value() < 1 || level.value() > num_levels) {
      return Status::OutOfRange(
          StringPrintf("level %lld out of range", level.value()));
    }
    if (position.value() < 0) {
      return Status::OutOfRange("negative position");
    }
    pending[static_cast<size_t>(user.value())].emplace_back(
        static_cast<size_t>(position.value()),
        static_cast<int>(level.value()));
  }

  SkillAssignments assignments(static_cast<size_t>(num_users));
  for (size_t u = 0; u < pending.size(); ++u) {
    std::vector<int>& levels = assignments[u];
    levels.assign(pending[u].size(), 0);
    for (const auto& [position, level] : pending[u]) {
      // Levels are validated >= 1 above, so 0 is a safe "unseen" sentinel;
      // a non-zero slot means this (user, position) appeared twice. Report
      // that distinctly from a gap — a duplicate is a corrupt writer, a
      // gap is a missing row, and the two are debugged differently.
      if (position < levels.size() && levels[position] != 0) {
        return Status::Corruption(StringPrintf(
            "duplicate (user, position) row: user %zu position %zu", u,
            position));
      }
      if (position >= levels.size()) {
        return Status::Corruption(StringPrintf(
            "user %zu: positions are not a gapless 0..n-1 range", u));
      }
      levels[position] = level;
    }
  }
  return assignments;
}

}  // namespace upskill
