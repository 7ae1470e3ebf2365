#include "data/golden_io.h"

#include <gtest/gtest.h>

#include "data/motivating_example.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

TEST(GoldenIoTest, RoundTrip) {
  MotivatingExample example = MakeMotivatingExample();
  GoldenSet golden;
  golden.Add(0, true);
  golden.Add(11, false);
  std::string csv = GoldenToCsv(golden, example.dataset);
  GoldenSet loaded = ParseGoldenCsv(csv, example.dataset).ValueOrDie();
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.fact(0), 0);
  EXPECT_TRUE(loaded.label(0));
  EXPECT_EQ(loaded.fact(1), 11);
  EXPECT_FALSE(loaded.label(1));
}

TEST(GoldenIoTest, AcceptsNumericLabels) {
  MotivatingExample example = MakeMotivatingExample();
  GoldenSet loaded =
      ParseGoldenCsv("fact,label\nr1,1\nr2,0\n", example.dataset)
          .ValueOrDie();
  EXPECT_TRUE(loaded.label(0));
  EXPECT_FALSE(loaded.label(1));
}

TEST(GoldenIoTest, RejectsMalformedInputs) {
  MotivatingExample example = MakeMotivatingExample();
  EXPECT_EQ(ParseGoldenCsv("", example.dataset).status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParseGoldenCsv("name,verdict\nr1,true\n", example.dataset)
          .status()
          .code(),
      StatusCode::kParseError);
  EXPECT_EQ(ParseGoldenCsv("fact,label\nr1,maybe\n", example.dataset)
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseGoldenCsv("fact,label\nr1,true\nr1,false\n",
                           example.dataset)
                .status()
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(ParseGoldenCsv("fact,label\nunknown_fact,true\n",
                           example.dataset)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(GoldenIoTest, MissingFileIsNotFound) {
  MotivatingExample example = MakeMotivatingExample();
  auto result = LoadGoldenCsv("/nope/missing_golden.csv", example.dataset);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_NE(result.status().message().find("/nope/missing_golden.csv"),
            std::string::npos);
}

TEST(GoldenIoTest, FileRoundTrip) {
  MotivatingExample example = MakeMotivatingExample();
  GoldenSet golden = GoldenSet::FromFullTruth(example.truth);
  std::string path = testutil::TestTempPath("golden.csv");
  ASSERT_TRUE(SaveGoldenCsv(path, golden, example.dataset).ok());
  GoldenSet loaded = LoadGoldenCsv(path, example.dataset).ValueOrDie();
  EXPECT_EQ(loaded.size(), 12u);
  EXPECT_EQ(loaded.CountTrue(), 7);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrob
