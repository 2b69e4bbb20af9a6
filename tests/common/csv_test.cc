#include "common/csv.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

namespace upskill {
namespace {

TEST(ParseCsvLineTest, PlainFields) {
  const auto fields = ParseCsvLine("a,b,c").value();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(ParseCsvLineTest, EmptyFields) {
  const auto fields = ParseCsvLine(",,").value();
  ASSERT_EQ(fields.size(), 3u);
  for (const auto& f : fields) EXPECT_EQ(f, "");
}

TEST(ParseCsvLineTest, QuotedFieldWithComma) {
  const auto fields = ParseCsvLine("x,\"a,b\",y").value();
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[1], "a,b");
}

TEST(ParseCsvLineTest, EscapedQuote) {
  const auto fields = ParseCsvLine("\"he said \"\"hi\"\"\"").value();
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "he said \"hi\"");
}

TEST(ParseCsvLineTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsvLine("\"oops").ok());
}

TEST(ParseCsvLineTest, QuoteInsideUnquotedFieldFails) {
  EXPECT_FALSE(ParseCsvLine("ab\"cd").ok());
}

TEST(FormatCsvLineTest, RoundTripsThroughParse) {
  const std::vector<std::string> fields = {"plain", "with,comma",
                                           "with\"quote", ""};
  const auto parsed = ParseCsvLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), fields);
}

// Every record of `path`, read through a CsvScanner.
Result<std::vector<std::vector<std::string>>> ScanAll(const std::string& path) {
  Result<CsvScanner> opened = CsvScanner::Open(path);
  if (!opened.ok()) return opened.status();
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (true) {
    Result<bool> next = scanner.Next(&row);
    if (!next.ok()) return next.status();
    if (!next.value()) return rows;
    rows.push_back(row);
  }
}

class CsvFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("upskill_csv_test_" + std::to_string(::getpid()) + ".csv");
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::filesystem::path path_;
};

TEST_F(CsvFileTest, WriteAndReadBack) {
  const std::vector<std::vector<std::string>> rows = {
      {"h1", "h2"}, {"a", "1"}, {"b,x", "2"}};
  ASSERT_TRUE(WriteCsvFile(path_.string(), rows).ok());
  const auto read = ScanAll(path_.string());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), rows);
}

TEST_F(CsvFileTest, MissingFileFails) {
  const auto read = ScanAll(path_.string() + ".does-not-exist");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(CsvFileTest, ReadErrorIsAnIoError) {
  // A directory opens but cannot be read: the failed read surfaces
  // instead of ending the file early.
  const auto read = ScanAll(path_.parent_path().string());
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIoError);
}

TEST_F(CsvFileTest, SkipsBlankLinesAndCarriageReturns) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\r\n\r\nc,d\n\n", f);
    std::fclose(f);
  }
  const auto read = ScanAll(path_.string());
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().size(), 2u);
  EXPECT_EQ(read.value()[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(read.value()[1], (std::vector<std::string>{"c", "d"}));
}

TEST_F(CsvFileTest, CorruptFileSurfacesError) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("good,row\nbad\"row\n", f);
    std::fclose(f);
  }
  const auto read = ScanAll(path_.string());
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kCorruption);
}

TEST_F(CsvFileTest, ScannerStreamsRowsWithOffsets) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("h1,h2\na,1\r\n\nb,2", f);  // CRLF, blank line, no final \n
    std::fclose(f);
  }
  auto opened = CsvScanner::Open(path_.string());
  ASSERT_TRUE(opened.ok());
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  ASSERT_TRUE(scanner.Next(&row).value());
  EXPECT_EQ(row, (std::vector<std::string>{"h1", "h2"}));
  EXPECT_EQ(scanner.line_number(), 1u);
  EXPECT_EQ(scanner.line_offset(), 0u);
  ASSERT_TRUE(scanner.Next(&row).value());
  EXPECT_EQ(row, (std::vector<std::string>{"a", "1"}));
  EXPECT_EQ(scanner.line_offset(), 6u);  // after "h1,h2\n"
  ASSERT_TRUE(scanner.Next(&row).value());  // blank line skipped
  EXPECT_EQ(row, (std::vector<std::string>{"b", "2"}));
  EXPECT_EQ(scanner.line_number(), 4u);
  EXPECT_EQ(scanner.line_offset(), 12u);  // "h1,h2\n" + "a,1\r\n" + "\n"
  EXPECT_FALSE(scanner.Next(&row).value());
  EXPECT_FALSE(scanner.Next(&row).value());  // stays at EOF
}

TEST_F(CsvFileTest, ScannerCitesByteOffsetOnParseError) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("good,row\nbad\"row\n", f);
    std::fclose(f);
  }
  auto opened = CsvScanner::Open(path_.string());
  ASSERT_TRUE(opened.ok());
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  ASSERT_TRUE(scanner.Next(&row).value());
  const auto bad = scanner.Next(&row);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  // "good,row\n" is 9 bytes; the bad row starts at line 2, byte 9.
  EXPECT_NE(bad.status().message().find(":2 (byte 9)"), std::string::npos)
      << bad.status().message();
}

TEST_F(CsvFileTest, ScannerBoundsLineLength) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("short,line\n", f);
    const std::string longline(100, 'x');
    std::fputs((longline + "\n").c_str(), f);
    std::fclose(f);
  }
  auto opened = CsvScanner::Open(path_.string(), /*max_line_bytes=*/64);
  ASSERT_TRUE(opened.ok());
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  ASSERT_TRUE(scanner.Next(&row).value());
  const auto bad = scanner.Next(&row);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  EXPECT_NE(bad.status().message().find("exceeds"), std::string::npos)
      << bad.status().message();

  // The same file scans cleanly with a buffer that fits the long line,
  // and a line of exactly max_line_bytes is accepted.
  auto wide = CsvScanner::Open(path_.string(), /*max_line_bytes=*/100);
  ASSERT_TRUE(wide.ok());
  ASSERT_TRUE(wide.value().Next(&row).value());
  ASSERT_TRUE(wide.value().Next(&row).value());
  ASSERT_EQ(row.size(), 1u);
  EXPECT_EQ(row[0], std::string(100, 'x'));
  EXPECT_FALSE(wide.value().Next(&row).value());
}

// A NUL byte inside a line is a Corruption at that line's true offset,
// not the end of the record: "alice,ite\0m9" must not read as
// [alice, ite], and the lines after it keep their real byte offsets.
TEST_F(CsvFileTest, ScannerRejectsANulByteInsideALine) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::string bytes = "user,item\nalice,ite";
    bytes += '\0';
    bytes += "m9\nbad\"row\n";
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }
  auto opened = CsvScanner::Open(path_.string());
  ASSERT_TRUE(opened.ok());
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  ASSERT_TRUE(scanner.Next(&row).value());
  const auto bad = scanner.Next(&row);
  ASSERT_FALSE(bad.ok()) << "read as " << row.size() << " fields";
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruption);
  // "user,item\n" is 10 bytes; the NUL line is line 2 at byte 10.
  EXPECT_NE(bad.status().message().find(":2 (byte 10)"), std::string::npos)
      << bad.status().message();
  EXPECT_NE(bad.status().message().find("NUL"), std::string::npos)
      << bad.status().message();
}

// A torn append can leave a zero-filled tail: it is a Corruption, not a
// run of blank lines.
TEST_F(CsvFileTest, ScannerRejectsAZeroFilledTail) {
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("a,b\n", f);
    const std::string zeros(4096, '\0');
    ASSERT_EQ(std::fwrite(zeros.data(), 1, zeros.size(), f), zeros.size());
    std::fclose(f);
  }
  auto opened = CsvScanner::Open(path_.string());
  ASSERT_TRUE(opened.ok());
  CsvScanner scanner = std::move(opened).value();
  std::vector<std::string> row;
  ASSERT_TRUE(scanner.Next(&row).value());
  EXPECT_EQ(row, (std::vector<std::string>{"a", "b"}));
  const auto tail = scanner.Next(&row);
  ASSERT_FALSE(tail.ok());
  EXPECT_EQ(tail.status().code(), StatusCode::kCorruption);
  EXPECT_NE(tail.status().message().find(":2 (byte 4)"), std::string::npos)
      << tail.status().message();
}

}  // namespace
}  // namespace upskill
