#include "data/dataset_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "data/motivating_example.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

TEST(DatasetIoTest, ParseBasicCsv) {
  std::string text =
      "fact,s1,s2\n"
      "r1,T,-\n"
      "r2,F,T\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_sources(), 2);
  EXPECT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_EQ(loaded.dataset.GetVote(0, 0), Vote::kTrue);
  EXPECT_EQ(loaded.dataset.GetVote(1, 0), Vote::kNone);
  EXPECT_EQ(loaded.dataset.GetVote(0, 1), Vote::kFalse);
  EXPECT_FALSE(loaded.truth.has_value());
}

TEST(DatasetIoTest, ParseTruthColumn) {
  std::string text =
      "fact,s1,__truth__\n"
      "r1,T,true\n"
      "r2,T,false\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_TRUE(loaded.truth->IsTrue(0));
  EXPECT_FALSE(loaded.truth->IsTrue(1));
}

TEST(DatasetIoTest, UnknownTruthDropsColumn) {
  std::string text =
      "fact,s1,__truth__\n"
      "r1,T,?\n"
      "r2,T,true\n";
  LabeledDataset loaded = ParseDatasetCsv(text).ValueOrDie();
  EXPECT_FALSE(loaded.truth.has_value());
}

TEST(DatasetIoTest, CancelledTokenAbortsTheRowLoop) {
  // The row loop polls the token every 2048 rows, so a dataset has to
  // be at least that tall before cancellation can land.
  std::string text = "fact,s1\n";
  for (int i = 0; i < 5000; ++i) {
    text += "r" + std::to_string(i) + ",T\n";
  }
  CancellationToken token;
  DatasetCsvOptions options;
  options.cancel = &token;
  EXPECT_TRUE(ParseDatasetCsv(text, options).ok());

  token.Cancel();
  auto result = ParseDatasetCsv(text, options);
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_NE(result.status().message().find("rows"), std::string::npos);
}

TEST(DatasetIoTest, RejectsMalformedInputs) {
  EXPECT_EQ(ParseDatasetCsv("").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("bogus,s1\nr1,T\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact\nr1\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact,s1\nr1,T,extra\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseDatasetCsv("fact,s1\nr1,Q\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParseDatasetCsv("fact,s1,__truth__\nr1,T,maybe\n").status().code(),
      StatusCode::kParseError);
}

TEST(DatasetIoTest, MotivatingExampleRoundTrips) {
  MotivatingExample example = MakeMotivatingExample();
  std::string csv = DatasetToCsv(example.dataset, &example.truth);
  LabeledDataset loaded = ParseDatasetCsv(csv).ValueOrDie();

  ASSERT_EQ(loaded.dataset.num_sources(), example.dataset.num_sources());
  ASSERT_EQ(loaded.dataset.num_facts(), example.dataset.num_facts());
  for (FactId f = 0; f < example.dataset.num_facts(); ++f) {
    EXPECT_EQ(loaded.dataset.fact_name(f), example.dataset.fact_name(f));
    for (SourceId s = 0; s < example.dataset.num_sources(); ++s) {
      EXPECT_EQ(loaded.dataset.GetVote(s, f), example.dataset.GetVote(s, f))
          << "s" << s << " f" << f;
    }
  }
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_EQ(loaded.truth->labels(), example.truth.labels());
}

TEST(DatasetIoTest, FileRoundTrip) {
  MotivatingExample example = MakeMotivatingExample();
  std::string path = testutil::TestTempPath("dataset.csv");
  ASSERT_TRUE(SaveDatasetCsv(path, example.dataset, &example.truth).ok());
  LabeledDataset loaded = LoadDatasetCsv(path).ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_votes(), example.dataset.num_votes());
  ASSERT_TRUE(loaded.truth.has_value());
  std::remove(path.c_str());
}

TEST(DatasetIoTest, MissingFileIsNotFound) {
  auto result = LoadDatasetCsv("/nope/missing.csv");
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("/nope/missing.csv"),
            std::string::npos);
}

TEST(DatasetIoTest, ParseErrorsNameTheFile) {
  std::string path = testutil::TestTempPath("bad_dataset.csv");
  ASSERT_TRUE(WriteStringToFile(path, "fact,s1\nr1,Q\n").ok());
  auto result = LoadDatasetCsv(path);
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_NE(result.status().message().find(path), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatasetIoTest, StrictModeRejectsWhatLenientSkips) {
  // Bad vote symbol on r2 and a row-length mismatch on r4.
  std::string text =
      "fact,s1,s2,__truth__\n"
      "r1,T,-,true\n"
      "r2,Q,T,false\n"
      "r3,F,T,false\n"
      "r4,T,true\n"
      "r5,-,F,true\n";
  EXPECT_EQ(ParseDatasetCsv(text).status().code(), StatusCode::kParseError);

  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  LabeledDataset loaded =
      ParseDatasetCsv(text, lenient, &report).ValueOrDie();

  EXPECT_EQ(report.rows_seen, 5);
  EXPECT_EQ(report.rows_loaded, 3);
  ASSERT_EQ(report.skipped.size(), 2u);
  EXPECT_FALSE(report.AllRowsLoaded());
  // Diagnostics carry document row indices (the header is row 0).
  EXPECT_EQ(report.skipped[0].row, 2u);
  EXPECT_EQ(report.skipped[1].row, 4u);
  EXPECT_NE(report.ToString().find("skipped 2"), std::string::npos);

  // Skipped rows leave no trace: facts, votes, and truth labels all
  // come from the surviving rows only.
  ASSERT_EQ(loaded.dataset.num_facts(), 3);
  EXPECT_EQ(loaded.dataset.fact_name(0), "r1");
  EXPECT_EQ(loaded.dataset.fact_name(1), "r3");
  EXPECT_EQ(loaded.dataset.fact_name(2), "r5");
  EXPECT_EQ(loaded.dataset.GetVote(0, 1), Vote::kFalse);
  EXPECT_EQ(loaded.dataset.GetVote(1, 2), Vote::kFalse);
  ASSERT_TRUE(loaded.truth.has_value());
  EXPECT_TRUE(loaded.truth->IsTrue(0));
  EXPECT_FALSE(loaded.truth->IsTrue(1));
  EXPECT_TRUE(loaded.truth->IsTrue(2));
}

TEST(DatasetIoTest, LenientCleanInputReportsAllLoaded) {
  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  LabeledDataset loaded =
      ParseDatasetCsv("fact,s1\nr1,T\nr2,F\n", lenient, &report)
          .ValueOrDie();
  EXPECT_EQ(loaded.dataset.num_facts(), 2);
  EXPECT_TRUE(report.AllRowsLoaded());
  EXPECT_EQ(report.rows_seen, 2);
  EXPECT_EQ(report.rows_loaded, 2);
}

TEST(DatasetIoTest, LenientStillRejectsBrokenHeader) {
  DatasetCsvOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  EXPECT_EQ(ParseDatasetCsv("bogus,s1\nr1,T\n", lenient, &report)
                .status()
                .code(),
            StatusCode::kParseError);
}

}  // namespace
}  // namespace corrob
