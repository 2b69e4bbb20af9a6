#include "common/csv.h"

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/durable_file.h"
#include "common/string_util.h"

namespace upskill {

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  size_t i = 0;
  while (i < line.size()) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      current += c;
      ++i;
      continue;
    }
    if (c == '"') {
      if (!current.empty()) {
        return Status::Corruption("quote inside unquoted CSV field");
      }
      in_quotes = true;
      ++i;
      continue;
    }
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
      ++i;
      continue;
    }
    current += c;
    ++i;
  }
  if (in_quotes) return Status::Corruption("unterminated quoted CSV field");
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    const std::string& field = fields[i];
    const bool needs_quotes =
        field.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quotes) {
      out += field;
      continue;
    }
    out += '"';
    for (char c : field) {
      if (c == '"') out += '"';
      out += c;
    }
    out += '"';
  }
  return out;
}

CsvScanner::CsvScanner(FILE* file, std::string path, size_t max_line_bytes)
    : file_(file),
      path_(std::move(path)),
      max_line_bytes_(max_line_bytes),
      buffer_(max_line_bytes + 1) {}

Result<CsvScanner> CsvScanner::Open(const std::string& path,
                                    size_t max_line_bytes) {
  FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError(StringPrintf("cannot open %s: %s", path.c_str(),
                                        std::strerror(errno)));
  }
  return CsvScanner(file, path, max_line_bytes);
}

Status CsvScanner::CorruptionAt(const std::string& what) const {
  return Status::Corruption(StringPrintf(
      "%s:%zu (byte %llu): %s", path_.c_str(), line_number_,
      static_cast<unsigned long long>(line_offset_), what.c_str()));
}

Result<bool> CsvScanner::Next(std::vector<std::string>* fields) {
  // Lines are cut from a fixed buffer refilled by fread: memory is bounded
  // by the buffer regardless of file size, and a line's length is the
  // bytes read, so a NUL inside it is seen rather than taken for its end.
  // A line that fills the buffer without a terminator is over-long —
  // rejected, never grown.
  while (true) {
    const char* line = buffer_.data() + begin_;
    const char* newline =
        static_cast<const char*>(std::memchr(line, '\n', end_ - begin_));
    if (newline == nullptr && !eof_ && end_ - begin_ <= max_line_bytes_) {
      std::memmove(buffer_.data(), line, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
      const size_t n = std::fread(buffer_.data() + end_, 1,
                                  buffer_.size() - end_, file_.get());
      if (n == 0) {
        if (std::ferror(file_.get())) {
          return Status::IoError(StringPrintf("read failed for %s: %s",
                                              path_.c_str(),
                                              std::strerror(errno)));
        }
        eof_ = true;
      }
      end_ += n;
      continue;
    }
    if (begin_ == end_) return false;
    ++line_number_;
    line_offset_ = next_offset_;
    size_t length = newline != nullptr ? static_cast<size_t>(newline - line)
                                       : end_ - begin_;
    if (length > max_line_bytes_) {
      return CorruptionAt(StringPrintf("line exceeds %zu bytes",
                                       max_line_bytes_));
    }
    const size_t consumed = length + (newline != nullptr ? 1 : 0);
    begin_ += consumed;
    next_offset_ += consumed;
    if (std::memchr(line, '\0', length) != nullptr) {
      return CorruptionAt("NUL byte in line");
    }
    if (length > 0 && line[length - 1] == '\r') --length;
    if (length == 0) continue;  // skip blank lines
    Result<std::vector<std::string>> parsed =
        ParseCsvLine(std::string_view(line, length));
    if (!parsed.ok()) return CorruptionAt(parsed.status().message());
    *fields = std::move(parsed).value();
    return true;
  }
}

Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  Result<DurableFile> file = DurableFile::CreateReplacement(path);
  if (!file.ok()) return file.status();
  // Formatted rows are staged and written out ~1 MiB at a time.
  constexpr size_t kBlockBytes = 1 << 20;
  std::string block;
  for (const auto& row : rows) {
    block += FormatCsvLine(row);
    block += '\n';
    if (block.size() >= kBlockBytes) {
      UPSKILL_RETURN_IF_ERROR(file.value().Write(block));
      block.clear();
    }
  }
  UPSKILL_RETURN_IF_ERROR(file.value().Write(block));
  return file.value().Commit();
}

}  // namespace upskill
