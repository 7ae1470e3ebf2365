// Crash-safety of the streaming corroborator: a stream killed by an
// injected fault mid-run, restored from its last checkpoint, must
// finish with trust scores and verdicts bit-identical to a run that
// was never interrupted.

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "core/online.h"
#include "core/online_checkpoint.h"
#include "synth/synthetic.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

constexpr char kStepFailpoint[] = "integration.stream.step";
constexpr int64_t kCheckpointEvery = 100;

SyntheticDataset MakeStream() {
  SyntheticOptions options;
  options.num_facts = 1000;
  options.num_sources = 8;
  options.num_inaccurate = 2;
  options.eta = 0.05;
  options.seed = 404;
  return GenerateSynthetic(options).ValueOrDie();
}

OnlineCorroborator MakeCorroborator(const Dataset& dataset) {
  OnlineCorroborator online;
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    online.AddSource(dataset.source_name(s));
  }
  return online;
}

/// Streams facts [online.facts_observed(), num_facts), appending each
/// verdict to `verdicts`, checkpointing every kCheckpointEvery facts.
/// Each step crosses the kStepFailpoint fault-injection site — the
/// "kill switch" of this test.
Status StreamWithCheckpoints(const Dataset& dataset,
                             OnlineCorroborator& online,
                             const std::string& checkpoint_path,
                             std::vector<OnlineCorroborator::Verdict>*
                                 verdicts) {
  for (FactId f = static_cast<FactId>(online.facts_observed());
       f < dataset.num_facts(); ++f) {
    CORROB_FAILPOINT(kStepFailpoint);
    auto votes = dataset.VotesOnFact(f);
    CORROB_ASSIGN_OR_RETURN(
        OnlineCorroborator::Verdict verdict,
        online.Observe(std::vector<SourceVote>(votes.begin(), votes.end())));
    verdicts->push_back(verdict);
    if (online.facts_observed() % kCheckpointEvery == 0) {
      CORROB_RETURN_NOT_OK(SaveOnlineSnapshot(checkpoint_path, online));
    }
  }
  return Status::OK();
}

TEST(CheckpointResumeTest, KillAt500AndResumeIsBitIdentical) {
  ScopedFailpointDisarmer disarmer;
  SyntheticDataset data = MakeStream();
  ASSERT_EQ(data.dataset.num_facts(), 1000);
  const std::string checkpoint = testutil::TestTempPath("resume.snap");

  // Reference: one uninterrupted pass.
  OnlineCorroborator reference = MakeCorroborator(data.dataset);
  std::vector<OnlineCorroborator::Verdict> reference_verdicts;
  {
    std::vector<OnlineCorroborator::Verdict>* verdicts =
        &reference_verdicts;
    for (FactId f = 0; f < data.dataset.num_facts(); ++f) {
      auto votes = data.dataset.VotesOnFact(f);
      verdicts->push_back(
          reference
              .Observe(std::vector<SourceVote>(votes.begin(), votes.end()))
              .ValueOrDie());
    }
  }

  // Interrupted: the armed failpoint kills the stream at fact 500.
  std::vector<OnlineCorroborator::Verdict> verdicts;
  {
    FailpointConfig config;
    config.skip = 500;
    config.message = "simulated crash at fact 500";
    Failpoints::Arm(kStepFailpoint, config);
    OnlineCorroborator doomed = MakeCorroborator(data.dataset);
    Status status =
        StreamWithCheckpoints(data.dataset, doomed, checkpoint, &verdicts);
    Failpoints::DisarmAll();
    ASSERT_EQ(status.code(), StatusCode::kIoError);
    ASSERT_EQ(verdicts.size(), 500u);
    // `doomed` dies here, like the process it stands in for; only the
    // checkpoint file survives.
  }

  // Restore and finish the stream.
  OnlineCorroborator resumed = LoadOnlineSnapshot(checkpoint).ValueOrDie();
  EXPECT_EQ(resumed.facts_observed(), 500);
  ASSERT_TRUE(StreamWithCheckpoints(data.dataset, resumed, checkpoint,
                                    &verdicts)
                  .ok());

  // Verdicts for all 1000 facts match the uninterrupted run exactly.
  ASSERT_EQ(verdicts.size(), reference_verdicts.size());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].probability, reference_verdicts[i].probability)
        << "fact " << i;
    EXPECT_EQ(verdicts[i].decision, reference_verdicts[i].decision)
        << "fact " << i;
  }

  // Trust state is bit-identical: exact counters, not just trust
  // within a tolerance.
  OnlineCorroboratorState a = reference.ExportState();
  OnlineCorroboratorState b = resumed.ExportState();
  EXPECT_EQ(a.correct, b.correct);
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.facts_observed, b.facts_observed);
  EXPECT_EQ(reference.trust_snapshot(), resumed.trust_snapshot());

  std::remove(checkpoint.c_str());
}

TEST(CheckpointResumeTest, SurvivesRepeatedProbabilisticKills) {
  // A flakier world: the stream dies with probability 0.002 per fact,
  // over and over. Resuming from the interval checkpoint after every
  // death must still converge to the uninterrupted result. Lost tail
  // facts (observed after the last checkpoint, before the crash) are
  // re-observed on resume — re-observation is idempotent because the
  // restored state rewinds to the checkpoint.
  ScopedFailpointDisarmer disarmer;
  SyntheticDataset data = MakeStream();
  const std::string checkpoint = testutil::TestTempPath("flaky_resume.snap");

  OnlineCorroborator reference = MakeCorroborator(data.dataset);
  for (FactId f = 0; f < data.dataset.num_facts(); ++f) {
    auto votes = data.dataset.VotesOnFact(f);
    ASSERT_TRUE(
        reference
            .Observe(std::vector<SourceVote>(votes.begin(), votes.end()))
            .ok());
  }

  OnlineCorroborator current = MakeCorroborator(data.dataset);
  ASSERT_TRUE(SaveOnlineSnapshot(checkpoint, current).ok());
  FailpointConfig config;
  config.probability = 0.002;
  config.seed = 99;
  int crashes = 0;
  for (int attempt = 0; attempt < 200; ++attempt) {
    Failpoints::Arm(kStepFailpoint, config);
    // Resume from disk — except on the clean first attempt, the
    // in-memory instance is the casualty of the previous crash.
    OnlineCorroborator online =
        LoadOnlineSnapshot(checkpoint).ValueOrDie();
    // Rewind to the checkpoint: re-observed facts and their verdicts
    // are recomputed, so only count the final pass below.
    std::vector<OnlineCorroborator::Verdict> scratch;
    Status status = StreamWithCheckpoints(data.dataset, online, checkpoint,
                                          &scratch);
    Failpoints::DisarmAll();
    if (status.ok()) {
      ASSERT_TRUE(SaveOnlineSnapshot(checkpoint, online).ok());
      break;
    }
    ++crashes;
    // Advance the kill schedule so reruns do not die at the same fact.
    config.seed += 1;
  }
  OnlineCorroborator finished = LoadOnlineSnapshot(checkpoint).ValueOrDie();
  EXPECT_EQ(finished.facts_observed(), data.dataset.num_facts());
  EXPECT_GT(crashes, 0) << "failpoint never fired; weaken the seed";
  EXPECT_EQ(reference.trust_snapshot(), finished.trust_snapshot());
  std::remove(checkpoint.c_str());
}

}  // namespace
}  // namespace corrob
