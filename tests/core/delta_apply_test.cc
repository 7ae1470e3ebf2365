#include "core/delta_apply.h"

#include <dirent.h>
#include <unistd.h>

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/random.h"
#include "core/registry.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "testing/property.h"
#include "testing/temp_dir.h"

// Delta application semantics plus the metamorphic contract the WAL
// leans on: replaying any crash-surviving prefix of deltas produces a
// dataset bit-identical to a batch rebuild from the same votes — and
// corroborating that dataset gives bit-identical answers at 1 and 4
// run threads.

namespace corrob {
namespace {

using proptest::ExpectBitIdentical;
using proptest::ForEachSeed;

/// Canonical byte serialization used for bit-identity comparisons.
std::string CanonicalCsv(const Dataset& dataset) {
  return DatasetToCsv(dataset);
}

/// A reproducible random delta stream: vote adds (with occasional
/// overwrites of earlier pairs), retractions (sometimes of unknown
/// names), and bare source registrations.
std::vector<WalRecord> MakeRandomDeltas(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<WalRecord> deltas;
  deltas.reserve(count);
  for (int i = 0; i < count; ++i) {
    const std::string source =
        "src-" + std::to_string(rng.UniformInt(0, 6));
    const std::string fact = "fact-" + std::to_string(rng.UniformInt(0, 11));
    const double roll = rng.NextDouble();
    if (roll < 0.10) {
      deltas.push_back(MakeAddSource(source));
    } else if (roll < 0.25) {
      deltas.push_back(MakeRetractVote(source, fact));
    } else {
      deltas.push_back(MakeAddVote(
          source, fact, rng.Bernoulli(0.2) ? Vote::kFalse : Vote::kTrue));
    }
  }
  return deltas;
}

TEST(DeltaApplyTest, EmptyDeltaSpanReproducesBaseExactly) {
  const Dataset base = proptest::MakeRandomDataset(0xC0FFEE);
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, {});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()), CanonicalCsv(base));
}

TEST(DeltaApplyTest, AddVoteLastWriterWins) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {
      MakeAddVote("s0", "f0", Vote::kTrue),
      MakeAddVote("s0", "f0", Vote::kFalse),
  };
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  // Only the final vote survives; a batch build with just that vote
  // must serialize identically.
  DatasetBuilder expected;
  expected.AddSource("s0");
  expected.AddFact("f0");
  ASSERT_TRUE(expected.SetVote(0, 0, Vote::kFalse).ok());
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()),
            CanonicalCsv(expected.Build()));
}

TEST(DeltaApplyTest, RetractionOfUnknownNamesIsANoOp) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {
      MakeRetractVote("never-seen-source", "f0"),
      MakeRetractVote("s0", "never-seen-fact"),
  };
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  // The unknown names must NOT have been registered.
  EXPECT_EQ(rebuilt.ValueOrDie().num_sources(), 1);
  EXPECT_EQ(rebuilt.ValueOrDie().num_facts(), 1);
  EXPECT_EQ(CanonicalCsv(rebuilt.ValueOrDie()), CanonicalCsv(base));
}

TEST(DeltaApplyTest, RetractionErasesTheVoteButKeepsTheNames) {
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset base = builder.Build();
  const std::vector<WalRecord> deltas = {MakeRetractVote("s0", "f0")};
  Result<Dataset> rebuilt = ApplyDeltasToDataset(base, deltas);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt.ValueOrDie().num_votes(), 0);
  EXPECT_EQ(rebuilt.ValueOrDie().num_sources(), 1);
  EXPECT_EQ(rebuilt.ValueOrDie().num_facts(), 1);
}

TEST(DeltaApplyTest, SnapshotMarkerIsRejected) {
  WalRecord marker;
  marker.type = WalRecordType::kSnapshotMarker;
  const std::vector<WalRecord> deltas = {marker};
  Result<Dataset> rebuilt = ApplyDeltasToDataset(Dataset(), deltas);
  EXPECT_EQ(rebuilt.status().code(), StatusCode::kInvalidArgument);
}

TEST(DeltaApplyTest, FoldingOneAtATimeEqualsOneShotApplication) {
  // Metamorphic: applying deltas record by record (the recovery path
  // taken after every crash) must equal applying the whole span at
  // once (the batch path). Exercised over random bases and streams.
  ForEachSeed(0x57A8C21D, 10, [](uint64_t seed) {
    const Dataset base = proptest::MakeRandomDataset(seed);
    const std::vector<WalRecord> deltas = MakeRandomDeltas(seed ^ 0xABCD, 40);
    Result<Dataset> one_shot = ApplyDeltasToDataset(base, deltas);
    ASSERT_TRUE(one_shot.ok()) << one_shot.status().ToString();

    Result<Dataset> folded = ApplyDeltasToDataset(base, {});
    ASSERT_TRUE(folded.ok());
    for (const WalRecord& delta : deltas) {
      folded = ApplyDeltasToDataset(folded.ValueOrDie(),
                                    std::span<const WalRecord>(&delta, 1));
      ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    }
    EXPECT_EQ(CanonicalCsv(folded.ValueOrDie()),
              CanonicalCsv(one_shot.ValueOrDie()));
  });
}

/// Removes every file in `dir` and the directory itself.
void RemoveWalDir(const std::string& dir) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) return;
  std::vector<std::string> names;
  for (struct dirent* entry = ::readdir(handle); entry != nullptr;
       entry = ::readdir(handle)) {
    const std::string name = entry->d_name;
    if (name != "." && name != "..") names.push_back(name);
  }
  ::closedir(handle);
  for (const std::string& name : names) {
    ::unlink((dir + "/" + name).c_str());
  }
  ::rmdir(dir.c_str());
}

TEST(DeltaApplyTest, CrashPrefixReplayEqualsBatchRebuildAtBothThreadCounts) {
  // The full WAL contract end to end: log a delta stream, simulate
  // kill -9 by truncating the segment at arbitrary byte cuts, recover,
  // and require the recovered dataset to be bit-identical to a batch
  // rebuild from the surviving prefix — and to corroborate
  // bit-identically at 1 and 4 run threads.
  const std::string dir = testutil::TestTempPath("delta_apply_crash_prefix");
  const std::vector<WalRecord> deltas = MakeRandomDeltas(0xFEED5EED, 30);

  RemoveWalDir(dir);
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kNever;
  {
    Result<WalWriter> writer = WalWriter::Open(dir, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& delta : deltas) {
      ASSERT_TRUE(writer.ValueOrDie().Append(delta).ok());
    }
  }
  const std::string segment = dir + "/" + wal_internal::SegmentFileName(0);
  Result<std::string> full = ReadFileToString(segment);
  ASSERT_TRUE(full.ok());
  const std::string intact = full.ValueOrDie();

  // Sample cuts across the whole byte range, including mid-record
  // positions; step 7 is coprime with the record framing so cuts land
  // everywhere relative to record boundaries.
  for (size_t cut = 0; cut <= intact.size(); cut += 7) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    RemoveWalDir(dir);
    {
      Result<WalWriter> writer = WalWriter::Open(dir, options);
      ASSERT_TRUE(writer.ok());
    }
    ASSERT_TRUE(WriteStringToFile(
                    segment, std::string_view(intact).substr(0, cut))
                    .ok());
    WalRecovery recovery;
    Result<WalWriter> reopened = WalWriter::Open(dir, options, &recovery);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    const std::vector<WalRecord> survived = recovery.Mutations();
    ASSERT_LE(survived.size(), deltas.size());
    for (size_t i = 0; i < survived.size(); ++i) {
      ASSERT_EQ(survived[i], deltas[i]) << "record " << i;
    }

    Result<Dataset> recovered = DatasetFromWalRecovery(recovery);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Result<Dataset> batch = ApplyDeltasToDataset(
        Dataset(), std::span<const WalRecord>(survived));
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(CanonicalCsv(recovered.ValueOrDie()),
              CanonicalCsv(batch.ValueOrDie()));

    // Corroboration over the recovered dataset is thread-count
    // invariant, so an operator can restart with a different
    // --threads and still serve identical bytes.
    if (recovered.ValueOrDie().num_votes() == 0) continue;
    CorroborationResult results[2];
    const int thread_counts[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      CorroboratorOptions run_options;
      run_options.num_threads = thread_counts[i];
      Result<std::unique_ptr<Corroborator>> method =
          MakeCorroborator("TwoEstimate", run_options);
      ASSERT_TRUE(method.ok());
      Result<CorroborationResult> run =
          method.ValueOrDie()->Run(recovered.ValueOrDie());
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      results[i] = std::move(run).ValueOrDie();
    }
    ExpectBitIdentical(results[0].fact_probability,
                       results[1].fact_probability, "fact_probability");
    ExpectBitIdentical(results[0].source_trust, results[1].source_trust,
                       "source_trust");
  }
  RemoveWalDir(dir);
}

TEST(DeltaApplyTest, RecoveryWithSnapshotUsesItAsTheBase) {
  const std::string dir = testutil::TestTempPath("delta_apply_snapshot");
  RemoveWalDir(dir);
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kNever;
  Result<WalWriter> writer = WalWriter::Open(dir, options);
  ASSERT_TRUE(writer.ok());

  // Build a dataset, snapshot its CSV, then log one more delta.
  DatasetBuilder builder;
  builder.AddSource("s0");
  builder.AddFact("f0");
  ASSERT_TRUE(builder.SetVote(0, 0, Vote::kTrue).ok());
  const Dataset snapshot_state = builder.Build();
  ASSERT_TRUE(
      writer.ValueOrDie().Compact(DatasetToCsv(snapshot_state), 1).ok());
  ASSERT_TRUE(writer.ValueOrDie()
                  .Append(MakeAddVote("s1", "f0", Vote::kFalse))
                  .ok());
  writer = Status::FailedPrecondition("closed");

  Result<WalRecovery> recovery = InspectWal(dir);
  ASSERT_TRUE(recovery.ok()) << recovery.status().ToString();
  ASSERT_TRUE(recovery.ValueOrDie().has_snapshot);
  Result<Dataset> recovered = DatasetFromWalRecovery(recovery.ValueOrDie());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  Result<Dataset> expected = ApplyDeltasToDataset(
      snapshot_state,
      std::vector<WalRecord>{MakeAddVote("s1", "f0", Vote::kFalse)});
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(CanonicalCsv(recovered.ValueOrDie()),
            CanonicalCsv(expected.ValueOrDie()));
  RemoveWalDir(dir);
}

}  // namespace
}  // namespace corrob
