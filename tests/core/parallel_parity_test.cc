// Sequential-vs-parallel parity: every iterative corroborator must
// produce bit-identical results at --threads 1 (the legacy sequential
// path) and at any higher thread count. The parallel sweeps partition
// work by output element and keep every reduction in a fixed order
// (docs/PERFORMANCE.md), so this is an exact equality, not a
// tolerance comparison.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/online.h"
#include "core/online_checkpoint.h"
#include "core/registry.h"
#include "synth/synthetic.h"
#include "testing/property.h"
#include "testing/temp_dir.h"

namespace corrob {
namespace {

using proptest::ExpectBitIdentical;
using proptest::ExpectBitIdenticalResults;
using proptest::ForEachSeed;
using proptest::MakeRandomDataset;

/// The corroborators whose Run() honors CorroboratorOptions::
/// num_threads (the one-shot baselines have no sweeps to thread).
const char* kThreadedMethods[] = {"TwoEstimate", "ThreeEstimate", "Cosine",
                                  "TruthFinder", "IncEstHeu", "IncEstPS"};

class ParallelParityTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelParityTest, BitIdenticalAcrossThreadCounts) {
  const std::string& name = GetParam();
  CorroboratorOptions sequential;
  sequential.num_threads = 1;
  CorroboratorOptions parallel;
  parallel.num_threads = 4;
  auto seq = MakeCorroborator(name, sequential).ValueOrDie();
  auto par = MakeCorroborator(name, parallel).ValueOrDie();

  ForEachSeed(0x9A4171E5, 20, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    CorroborationResult a = seq->Run(dataset).ValueOrDie();
    CorroborationResult b = par->Run(dataset).ValueOrDie();
    ExpectBitIdenticalResults(a, b);
  });
}

INSTANTIATE_TEST_SUITE_P(
    AllThreadedMethods, ParallelParityTest,
    ::testing::Values("TwoEstimate", "ThreeEstimate", "Cosine",
                      "TruthFinder", "IncEstHeu", "IncEstPS"));

TEST(ParallelParityTest, LargeSyntheticCorpusAtEightThreads) {
  // One larger planted-truth corpus, checked at the widest configured
  // count: parity must hold when the chunking actually splits work.
  SyntheticOptions options;
  options.num_facts = 20000;
  options.num_sources = 10;
  options.num_inaccurate = 2;
  options.eta = 0.02;
  options.seed = 4242;
  SyntheticDataset data = GenerateSynthetic(options).ValueOrDie();

  for (const char* name : kThreadedMethods) {
    SCOPED_TRACE(name);
    CorroboratorOptions sequential;
    sequential.num_threads = 1;
    CorroboratorOptions parallel;
    parallel.num_threads = 8;
    CorroborationResult a = MakeCorroborator(name, sequential)
                                .ValueOrDie()
                                ->Run(data.dataset)
                                .ValueOrDie();
    CorroborationResult b = MakeCorroborator(name, parallel)
                                .ValueOrDie()
                                ->Run(data.dataset)
                                .ValueOrDie();
    ExpectBitIdenticalResults(a, b);
  }
}

/// Streams every fact of `dataset` through `online` in row order.
void StreamAll(const Dataset& dataset, OnlineCorroborator& online,
               FactId start = 0) {
  for (FactId f = start; f < dataset.num_facts(); ++f) {
    auto votes = dataset.VotesOnFact(f);
    ASSERT_TRUE(
        online.Observe(std::vector<SourceVote>(votes.begin(), votes.end()))
            .ok());
  }
}

OnlineCorroborator MakeOnline(const Dataset& dataset) {
  OnlineCorroborator online;
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    online.AddSource(dataset.source_name(s));
  }
  return online;
}

TEST(StreamParityTest, CheckpointResumeMatchesUninterruptedRun) {
  // The `corrob stream` contract: suspending mid-stream through an
  // exported snapshot and resuming in a fresh instance must land on
  // the exact trust state of an uninterrupted run.
  ForEachSeed(0x57BEA4, 20, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    OnlineCorroborator uninterrupted = MakeOnline(dataset);
    StreamAll(dataset, uninterrupted);

    OnlineCorroborator first_half = MakeOnline(dataset);
    FactId cut = dataset.num_facts() / 2;
    for (FactId f = 0; f < cut; ++f) {
      auto votes = dataset.VotesOnFact(f);
      ASSERT_TRUE(first_half
                      .Observe(std::vector<SourceVote>(votes.begin(),
                                                       votes.end()))
                      .ok());
    }
    OnlineCorroborator resumed =
        OnlineCorroborator::FromState(first_half.ExportState()).ValueOrDie();
    ASSERT_EQ(resumed.facts_observed(), cut);
    StreamAll(dataset, resumed, cut);

    EXPECT_EQ(uninterrupted.facts_observed(), resumed.facts_observed());
    ExpectBitIdentical(uninterrupted.trust_snapshot(),
                       resumed.trust_snapshot(), "trust");
  });
}

TEST(StreamParityTest, FileRoundTripMatchesUninterruptedRun) {
  // Same contract through the durable snapshot file (serialize →
  // parse → resume), a few seeds deep.
  std::string path = testutil::TestTempPath("parity.snap");
  ForEachSeed(0xF11E5EED, 5, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    OnlineCorroborator uninterrupted = MakeOnline(dataset);
    StreamAll(dataset, uninterrupted);

    OnlineCorroborator first_part = MakeOnline(dataset);
    FactId cut = dataset.num_facts() / 3;
    for (FactId f = 0; f < cut; ++f) {
      auto votes = dataset.VotesOnFact(f);
      ASSERT_TRUE(first_part
                      .Observe(std::vector<SourceVote>(votes.begin(),
                                                       votes.end()))
                      .ok());
    }
    ASSERT_TRUE(SaveOnlineSnapshot(path, first_part).ok());
    OnlineCorroborator resumed = LoadOnlineSnapshot(path).ValueOrDie();
    ASSERT_EQ(resumed.facts_observed(), cut);
    StreamAll(dataset, resumed, cut);

    ExpectBitIdentical(uninterrupted.trust_snapshot(),
                       resumed.trust_snapshot(), "trust");
  });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace corrob
