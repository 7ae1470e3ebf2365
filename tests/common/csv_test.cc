#include "common/csv.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/random.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

TEST(CsvParseTest, SimpleRows) {
  auto doc = ParseCsv("a,b\nc,d\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, MissingTrailingNewline) {
  auto doc = ParseCsv("a,b\nc,d").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, CrLfRows) {
  auto doc = ParseCsv("a,b\r\nc,d\r\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvParseTest, EmptyFields) {
  auto doc = ParseCsv(",\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"", ""}));
}

TEST(CsvParseTest, EmptyInputHasNoRows) {
  auto doc = ParseCsv("").ValueOrDie();
  EXPECT_TRUE(doc.rows.empty());
}

TEST(CsvParseTest, QuotedFieldWithDelimiterAndNewline) {
  auto doc = ParseCsv("\"a,b\",\"c\nd\"\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "a,b");
  EXPECT_EQ(doc.rows[0][1], "c\nd");
}

TEST(CsvParseTest, DoubledQuoteEscapes) {
  auto doc = ParseCsv("\"say \"\"hi\"\"\"\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "say \"hi\"");
}

TEST(CsvParseTest, UnterminatedQuoteIsError) {
  auto result = ParseCsv("\"oops\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvParseTest, QuoteInsideUnquotedFieldIsError) {
  auto result = ParseCsv("ab\"c\n");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(CsvParseTest, AlternateDelimiter) {
  auto doc = ParseCsv("a\tb\nc\td\n", '\t').ValueOrDie();
  EXPECT_EQ(doc.rows[0], (std::vector<std::string>{"a", "b"}));
}

TEST(CsvWriteTest, QuotesOnlyWhenNeeded) {
  std::string out = WriteCsv({{"plain", "with,comma", "with\"quote", "nl\n"}});
  EXPECT_EQ(out, "plain,\"with,comma\",\"with\"\"quote\",\"nl\n\"\n");
}

TEST(CsvRoundTripTest, RandomTablesSurviveRoundTrip) {
  // Property: ParseCsv(WriteCsv(rows)) == rows for arbitrary cell
  // contents, including delimiters, quotes and newlines.
  Rng rng(321);
  const std::string alphabet = "ab,\"\n x";
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<std::string>> rows;
    size_t num_rows = 1 + rng.NextBelow(5);
    size_t num_cols = 1 + rng.NextBelow(4);
    for (size_t r = 0; r < num_rows; ++r) {
      std::vector<std::string> row;
      for (size_t c = 0; c < num_cols; ++c) {
        std::string cell;
        size_t len = rng.NextBelow(6);
        for (size_t i = 0; i < len; ++i) {
          cell += alphabet[rng.NextBelow(alphabet.size())];
        }
        row.push_back(cell);
      }
      rows.push_back(row);
    }
    // A row of all-empty cells is serialized as a blank line, which
    // the parser cannot distinguish from no row; skip those.
    bool has_blank_row = false;
    for (const auto& row : rows) {
      bool all_empty = true;
      for (const auto& cell : row) all_empty &= cell.empty();
      has_blank_row |= (all_empty && row.size() == 1);
    }
    if (has_blank_row) continue;
    auto doc = ParseCsv(WriteCsv(rows)).ValueOrDie();
    EXPECT_EQ(doc.rows, rows) << "trial " << trial;
  }
}

TEST(CsvFileTest, WriteThenReadBack) {
  std::string path = testutil::TestTempPath("rows.csv");
  std::vector<std::vector<std::string>> rows{{"h1", "h2"}, {"1", "2"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto doc = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(doc.rows, rows);
  std::remove(path.c_str());
}

TEST(CsvFileTest, MissingFileIsNotFound) {
  auto result = ReadCsvFile("/nonexistent/dir/file.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("/nonexistent/dir/file.csv"),
            std::string::npos);
}

TEST(CsvParseTest, StripsLeadingUtf8Bom) {
  // A BOM-prefixed export must not corrupt the first header cell.
  auto doc = ParseCsv("\xEF\xBB\xBF" "fact,s1\nr1,T\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[0][0], "fact");
}

TEST(CsvParseTest, BomOnlyInputIsEmpty) {
  auto doc = ParseCsv("\xEF\xBB\xBF").ValueOrDie();
  EXPECT_TRUE(doc.rows.empty());
}

TEST(CsvParseTest, BomMidFileIsData) {
  // Only a *leading* BOM is stripped.
  auto doc = ParseCsv("a\n\xEF\xBB\xBF" "b\n").ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][0], "\xEF\xBB\xBF" "b");
}

TEST(AtomicWriteTest, ReplacesExistingFile) {
  std::string path = testutil::TestTempPath("atomic.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "second");
  EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, InjectedFaultLeavesOriginalIntactAtEveryStage) {
  ScopedFailpointDisarmer disarmer;
  std::string path = testutil::TestTempPath("atomic_fault.txt");
  ASSERT_TRUE(WriteFileAtomic(path, "precious original").ok());
  for (const char* stage :
       {"io.atomic_write.open", "io.atomic_write.write",
        "io.atomic_write.fsync", "io.atomic_write.rename"}) {
    Failpoints::Arm(stage);
    Status status = WriteFileAtomic(path, "partial garbage");
    Failpoints::Disarm(stage);
    ASSERT_FALSE(status.ok()) << stage;
    EXPECT_EQ(status.code(), StatusCode::kIoError) << stage;
    // The target is untouched and no temp file is left behind.
    EXPECT_EQ(ReadFileToString(path).ValueOrDie(), "precious original")
        << stage;
    EXPECT_EQ(ReadFileToString(path + ".tmp").status().code(),
              StatusCode::kNotFound)
        << stage;
  }
  std::remove(path.c_str());
}

TEST(AtomicWriteTest, UnwritableDirectoryIsIoError) {
  Status status = WriteFileAtomic("/nonexistent/dir/file.txt", "x");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace corrob
