#include "eval/report_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "core/inc_estimate.h"
#include "data/motivating_example.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

CorroborationResult RunWithTrajectory(const Dataset& dataset) {
  IncEstimateOptions options;
  options.record_trajectory = true;
  return IncEstimateCorroborator(options).Run(dataset).ValueOrDie();
}

TEST(ReportIoTest, TrajectoryCsvShape) {
  MotivatingExample example = MakeMotivatingExample();
  CorroborationResult result = RunWithTrajectory(example.dataset);
  std::string csv =
      TrajectoryToCsv(example.dataset, result).ValueOrDie();
  CsvDocument doc = ParseCsv(csv).ValueOrDie();
  ASSERT_EQ(doc.rows.size(), result.trajectory.size() + 1);
  EXPECT_EQ(doc.rows[0][0], "t");
  EXPECT_EQ(doc.rows[0][1], "facts_committed");
  EXPECT_EQ(doc.rows[0][2], "s1");
  ASSERT_EQ(doc.rows[1].size(), 7u);  // t, committed, 5 sources
  EXPECT_EQ(doc.rows[1][0], "0");
  EXPECT_EQ(doc.rows[1][1], "0");          // t0 commits nothing
  EXPECT_EQ(doc.rows[1][2], "0.900000");   // initial trust
}

TEST(ReportIoTest, TrajectoryRequiresRecording) {
  MotivatingExample example = MakeMotivatingExample();
  CorroborationResult result =
      IncEstimateCorroborator().Run(example.dataset).ValueOrDie();
  auto csv = TrajectoryToCsv(example.dataset, result);
  ASSERT_FALSE(csv.ok());
  EXPECT_EQ(csv.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReportIoTest, SaveTrajectoryRoundTrips) {
  MotivatingExample example = MakeMotivatingExample();
  CorroborationResult result = RunWithTrajectory(example.dataset);
  std::string path = testutil::TestTempPath("trajectory.csv");
  ASSERT_TRUE(SaveTrajectoryCsv(path, example.dataset, result).ok());
  CsvDocument doc = ReadCsvFile(path).ValueOrDie();
  EXPECT_EQ(doc.rows.size(), result.trajectory.size() + 1);
  std::remove(path.c_str());
}

TEST(ReportIoTest, DecisionsCsv) {
  MotivatingExample example = MakeMotivatingExample();
  CorroborationResult result = RunWithTrajectory(example.dataset);
  CsvDocument doc = ParseCsv(DecisionsToCsv(example.dataset, result))
                        .ValueOrDie();
  ASSERT_EQ(doc.rows.size(), 13u);
  EXPECT_EQ(doc.rows[0],
            (std::vector<std::string>{"fact", "probability", "decision"}));
  EXPECT_EQ(doc.rows[12][0], "r12");
  EXPECT_EQ(doc.rows[12][2], "false");
}

}  // namespace
}  // namespace corrob
