#ifndef UPSKILL_COMMON_CSV_H_
#define UPSKILL_COMMON_CSV_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace upskill {

/// Parses one CSV record. Supports RFC-4180-style double-quoted fields with
/// embedded commas and doubled quotes; does not support embedded newlines
/// (records are line-oriented throughout this library).
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// Escapes and joins fields into one CSV record (no trailing newline).
std::string FormatCsvLine(const std::vector<std::string>& fields);

/// Replaces `path` with the rows, one FormatCsvLine each, through
/// DurableFile::CreateReplacement: a failed save leaves the previous file
/// intact, and a target that exists and is not a regular file is refused.
Status WriteCsvFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

/// Streaming line-oriented CSV reader with a bounded line buffer: memory
/// use is O(max_line_bytes) regardless of file size, so the dataset
/// loaders can ingest event logs far larger than RAM row by row. Tracks
/// the 1-based line number and the byte offset where each record starts,
/// so callers can report parse errors as `file:line (byte N)` — precise
/// enough to seek straight to the bad row with ordinary tools.
class CsvScanner {
 public:
  /// Opens `path`; a line longer than `max_line_bytes` (terminator
  /// excluded) is a Corruption, not an allocation.
  static Result<CsvScanner> Open(const std::string& path,
                                 size_t max_line_bytes = 1 << 20);

  CsvScanner(CsvScanner&&) = default;
  CsvScanner& operator=(CsvScanner&&) = default;

  /// Reads the next non-blank record into `fields`. Returns true when a
  /// record was read, false at end of file; malformed rows, over-long
  /// lines and lines holding a NUL byte come back as Corruption citing
  /// the byte offset, and a failed read (a directory, say) as IoError.
  Result<bool> Next(std::vector<std::string>* fields);

  /// 1-based line number of the record Next() last returned.
  size_t line_number() const { return line_number_; }
  /// Byte offset (from the start of the file) of that record's first
  /// character.
  uint64_t line_offset() const { return line_offset_; }
  const std::string& path() const { return path_; }

  /// "path:line (byte N): what" — the uniform parse-error shape.
  Status CorruptionAt(const std::string& what) const;

 private:
  CsvScanner(FILE* file, std::string path, size_t max_line_bytes);

  struct FileCloser {
    void operator()(FILE* f) const {
      if (f != nullptr) std::fclose(f);
    }
  };
  std::unique_ptr<FILE, FileCloser> file_;
  std::string path_;
  size_t max_line_bytes_;
  std::vector<char> buffer_;  // bounded: max_line_bytes + its newline
  /// Unread bytes are buffer_[begin_, end_); eof_ once fread hit the end.
  size_t begin_ = 0;
  size_t end_ = 0;
  bool eof_ = false;
  size_t line_number_ = 0;
  uint64_t line_offset_ = 0;
  uint64_t next_offset_ = 0;
};

}  // namespace upskill

#endif  // UPSKILL_COMMON_CSV_H_
