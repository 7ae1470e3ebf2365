#include "data/wal.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/failpoint.h"
#include "testing/temp_dir.h"

// WAL framing and recovery: round trips across reopen, segment
// rotation, compaction, and — the contract crash-safety rests on —
// byte-granular torn-tail truncation. A partial final record after
// kill -9 must recover with a single WARNING; the same damage
// anywhere else must be a hard error.

namespace corrob {
namespace {

/// Removes `dir` and every regular file directly inside it, so a test
/// can restart from a WAL directory that does not exist.
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

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testutil::TestTempPath("wal");
  }

  void TearDown() override {
    Failpoints::DisarmAll();
    RemoveWalDir(dir_);
  }

  /// Options tuned for tests: no fsync (speed), tiny segments where a
  /// test wants rotation.
  static WalOptions FastOptions() {
    WalOptions options;
    options.fsync_policy = WalFsyncPolicy::kNever;
    return options;
  }

  static std::vector<WalRecord> SampleRecords() {
    return {
        MakeAddSource("alice"),
        MakeAddVote("alice", "sky-is-blue", Vote::kTrue),
        MakeAddVote("bob", "sky-is-blue", Vote::kFalse),
        MakeRetractVote("alice", "sky-is-blue"),
        MakeAddVote("alice", "grass-is-green", Vote::kTrue),
    };
  }

  std::string SegmentPath(int64_t index) const {
    return dir_ + "/" + wal_internal::SegmentFileName(index);
  }

  std::string dir_;
};

TEST_F(WalTest, AppendThenReopenRecoversEveryRecord) {
  const std::vector<WalRecord> records = SampleRecords();
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& record : records) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
    EXPECT_EQ(writer.ValueOrDie().records_appended(), 5);
  }
  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.records, records);
  EXPECT_FALSE(recovery.tail_truncated);
  EXPECT_FALSE(recovery.has_snapshot);
  EXPECT_EQ(recovery.segments_scanned, 1);
  // Mutations() passes vote deltas through untouched (no markers yet).
  EXPECT_EQ(recovery.Mutations(), records);
}

TEST_F(WalTest, InspectMatchesOpenAndDoesNotRepair) {
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : SampleRecords()) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  // Tear the tail: drop the last 3 bytes of the final record.
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  const std::string& intact = contents.ValueOrDie();
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0),
                                std::string_view(intact).substr(
                                    0, intact.size() - 3))
                  .ok());

  // Inspect reports the tear but leaves the bytes alone.
  for (int pass = 0; pass < 2; ++pass) {
    Result<WalRecovery> inspected = InspectWal(dir_);
    ASSERT_TRUE(inspected.ok()) << inspected.status().ToString();
    EXPECT_TRUE(inspected.ValueOrDie().tail_truncated);
    EXPECT_EQ(inspected.ValueOrDie().records.size(), 4u);
    struct stat info;
    ASSERT_EQ(::stat(SegmentPath(0).c_str(), &info), 0);
    EXPECT_EQ(static_cast<size_t>(info.st_size), intact.size() - 3);
  }

  // Open physically truncates to the last record boundary.
  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(recovery.tail_truncated);
  struct stat info;
  ASSERT_EQ(::stat(SegmentPath(0).c_str(), &info), 0);
  EXPECT_LT(static_cast<size_t>(info.st_size), intact.size() - 3);
  // A third open sees a clean log: the tear is gone.
  reopened = WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE(recovery.tail_truncated);
}

TEST_F(WalTest, InspectMissingDirectoryIsNotFound) {
  Result<WalRecovery> inspected = InspectWal(dir_ + "/nonexistent");
  EXPECT_EQ(inspected.status().code(), StatusCode::kNotFound);
}

TEST_F(WalTest, TornTailTruncatedAtEveryCutPosition) {
  // Build one intact segment and capture its bytes, then replay
  // recovery from every possible truncation point. Each cut must
  // recover exactly the records that fit whole before it — never an
  // error, never a partial record.
  const std::vector<WalRecord> records = SampleRecords();
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  Result<std::string> full = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(full.ok());
  const std::string intact = full.ValueOrDie();

  // Record boundaries, derived from the same encoder the writer used.
  std::vector<size_t> boundaries;
  size_t offset = wal_internal::SegmentHeader().size();
  boundaries.push_back(offset);
  for (const WalRecord& record : records) {
    offset += wal_internal::EncodeRecord(record).size();
    boundaries.push_back(offset);
  }
  ASSERT_EQ(offset, intact.size());

  for (size_t cut = 0; cut <= intact.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    RemoveWalDir(dir_);
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    writer = Status::FailedPrecondition("closed");  // close the fd
    ASSERT_TRUE(WriteStringToFile(
                    SegmentPath(0), std::string_view(intact).substr(0, cut))
                    .ok());

    size_t expected_whole = 0;
    while (expected_whole < records.size() &&
           boundaries[expected_whole + 1] <= cut) {
      ++expected_whole;
    }
    WalRecovery recovery;
    Result<WalWriter> reopened =
        WalWriter::Open(dir_, FastOptions(), &recovery);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    ASSERT_EQ(recovery.records.size(), expected_whole);
    for (size_t i = 0; i < expected_whole; ++i) {
      EXPECT_EQ(recovery.records[i], records[i]);
    }
    const bool on_boundary =
        cut == 0 || (cut >= boundaries.front() &&
                     std::find(boundaries.begin(), boundaries.end(), cut) !=
                         boundaries.end());
    EXPECT_EQ(recovery.tail_truncated, !on_boundary);

    // The truncated log accepts new appends and the result replays.
    ASSERT_TRUE(
        reopened.ValueOrDie().Append(MakeAddSource("post-crash")).ok());
    reopened = Status::FailedPrecondition("closed");
    Result<WalRecovery> after = InspectWal(dir_);
    ASSERT_TRUE(after.ok()) << after.status().ToString();
    ASSERT_EQ(after.ValueOrDie().records.size(), expected_whole + 1);
    EXPECT_EQ(after.ValueOrDie().records.back(), MakeAddSource("post-crash"));
  }
}

TEST_F(WalTest, TornTailLogsExactlyOneWarning) {
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : SampleRecords()) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  ASSERT_TRUE(WriteStringToFile(
                  SegmentPath(0),
                  std::string_view(contents.ValueOrDie())
                      .substr(0, contents.ValueOrDie().size() - 2))
                  .ok());

  ::testing::internal::CaptureStderr();
  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, FastOptions(), &recovery);
  const std::string stderr_text = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(recovery.tail_truncated);
  size_t warnings = 0;
  for (size_t pos = stderr_text.find("torn tail"); pos != std::string::npos;
       pos = stderr_text.find("torn tail", pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1u) << stderr_text;
  EXPECT_EQ(stderr_text.find("ERROR"), std::string::npos) << stderr_text;
}

TEST_F(WalTest, CorruptRecordInNonFinalSegmentIsParseError) {
  WalOptions options = FastOptions();
  options.segment_bytes = 64;  // force rotation quickly
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(writer.ValueOrDie()
                      .Append(MakeAddVote("s" + std::to_string(i), "f",
                                          Vote::kTrue))
                      .ok());
    }
    ASSERT_GT(writer.ValueOrDie().active_segment_index(), 0);
  }
  // Flip one payload byte in the FIRST segment: a CRC mismatch that
  // cannot be a torn tail.
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  std::string damaged = contents.ValueOrDie();
  damaged[damaged.size() - 6] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), damaged).ok());

  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, options, &recovery);
  EXPECT_EQ(reopened.status().code(), StatusCode::kParseError);
  EXPECT_NE(reopened.status().message().find("non-final"),
            std::string::npos);
}

TEST_F(WalTest, CrcFlipInFinalRecordTruncatesIt) {
  const std::vector<WalRecord> records = SampleRecords();
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  std::string damaged = contents.ValueOrDie();
  damaged.back() ^= 0xFF;  // stored CRC of the final record
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), damaged).ok());

  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(recovery.tail_truncated);
  ASSERT_EQ(recovery.records.size(), records.size() - 1);
  EXPECT_GT(recovery.tail_bytes_dropped, 0u);
}

TEST_F(WalTest, BadMagicAndBadVersionAreHardErrors) {
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());
  }
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  const std::string intact = contents.ValueOrDie();

  std::string wrong_magic = intact;
  wrong_magic[0] = 'X';
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), wrong_magic).ok());
  EXPECT_EQ(InspectWal(dir_).status().code(), StatusCode::kParseError);

  std::string wrong_version = intact;
  wrong_version[8] = 9;  // version u32 follows the 8-byte magic
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), wrong_version).ok());
  EXPECT_EQ(InspectWal(dir_).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(WalTest, RotationSpreadsRecordsAcrossSegments) {
  WalOptions options = FastOptions();
  options.segment_bytes = 64;
  std::vector<WalRecord> records;
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 40; ++i) {
      WalRecord record = MakeAddVote("source-" + std::to_string(i),
                                     "fact-" + std::to_string(i % 7),
                                     i % 3 == 0 ? Vote::kFalse : Vote::kTrue);
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
      records.push_back(record);
    }
    EXPECT_GT(writer.ValueOrDie().active_segment_index(), 2);
  }
  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, options, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(recovery.segments_scanned, 3);
  EXPECT_EQ(recovery.records, records);
  // Appends continue in the segment recovery left active.
  EXPECT_EQ(reopened.ValueOrDie().active_segment_index(),
            recovery.segments_scanned - 1);
}

TEST_F(WalTest, CompactFoldsLogIntoSnapshot) {
  WalOptions options = FastOptions();
  options.segment_bytes = 64;
  Result<WalWriter> writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(writer.ValueOrDie()
                    .Append(MakeAddVote("s" + std::to_string(i), "f",
                                        Vote::kTrue))
                    .ok());
  }
  const std::string csv = "fact,s0,s1\nf,T,F\n";
  ASSERT_TRUE(writer.ValueOrDie().Compact(csv, 20).ok());
  const int64_t fresh_segment = writer.ValueOrDie().active_segment_index();
  ASSERT_TRUE(
      writer.ValueOrDie().Append(MakeAddSource("after-compact")).ok());
  writer = Status::FailedPrecondition("closed");

  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, options, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(recovery.has_snapshot);
  EXPECT_EQ(recovery.snapshot_csv, csv);
  // Folded segments are gone; only the post-compaction log remains.
  EXPECT_EQ(recovery.segments_scanned, 1);
  ASSERT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.records[0].type, WalRecordType::kSnapshotMarker);
  EXPECT_EQ(recovery.records[0].records_folded, 20u);
  EXPECT_EQ(recovery.records[0].snapshot_crc, recovery.snapshot_crc);
  EXPECT_EQ(recovery.records[1], MakeAddSource("after-compact"));
  // Mutations() hides the marker from replay.
  const std::vector<WalRecord> mutations = recovery.Mutations();
  ASSERT_EQ(mutations.size(), 1u);
  EXPECT_EQ(mutations[0], MakeAddSource("after-compact"));
  // The folded segment files are actually unlinked.
  struct stat info;
  for (int64_t index = 0; index < fresh_segment; ++index) {
    EXPECT_NE(::stat(SegmentPath(index).c_str(), &info), 0)
        << "segment " << index << " should have been removed";
  }
}

TEST_F(WalTest, CompactInterruptedBeforeMarkerRecoversWithStaleMarker) {
  // The review scenario: a second compaction publishes its snapshot
  // (step 1) and crashes before logging the new marker — the live log
  // still ends with the FIRST compaction's marker, whose CRC pins the
  // superseded snapshot. Recovery must tolerate that marker by its
  // older compaction sequence, not refuse to start.
  Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());
  ASSERT_TRUE(writer.ValueOrDie().Compact("fact,s0\nf,T\n", 1).ok());
  ASSERT_TRUE(
      writer.ValueOrDie().Append(MakeAddVote("b", "f", Vote::kTrue)).ok());
  // Second compaction dies between snapshot publish and rotation.
  Failpoints::Arm("wal.rotate");
  EXPECT_EQ(writer.ValueOrDie().Compact("fact,s0,b\nf,T,T\n", 2).code(),
            StatusCode::kIoError);
  Failpoints::Disarm("wal.rotate");
  writer = Status::FailedPrecondition("closed");

  WalRecovery recovery;
  Result<WalWriter> reopened =
      WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(recovery.has_snapshot);
  EXPECT_EQ(recovery.snapshot_csv, "fact,s0,b\nf,T,T\n");
  EXPECT_EQ(recovery.snapshot_seq, 2u);
  EXPECT_EQ(recovery.stale_markers, 1);
  // The surviving mutation replays idempotently on the new snapshot.
  const std::vector<WalRecord> mutations = recovery.Mutations();
  ASSERT_EQ(mutations.size(), 1u);
  EXPECT_EQ(mutations[0], MakeAddVote("b", "f", Vote::kTrue));
  // A third compaction supersedes cleanly on the reopened writer.
  ASSERT_TRUE(
      reopened.ValueOrDie().Compact("fact,s0,b\nf,T,T\n", 1).ok());
  Result<WalRecovery> after = InspectWal(dir_);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after.ValueOrDie().snapshot_seq, 3u);
  EXPECT_EQ(after.ValueOrDie().stale_markers, 0);
}

TEST_F(WalTest, SurvivingFoldedSegmentAfterCompactionRecovers) {
  // The unlink-failure flavor: a folded segment (holding the OLD
  // marker) survives a completed second compaction. Its marker's
  // older sequence makes it stale, and its records replay
  // idempotently under the new snapshot.
  Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());
  ASSERT_TRUE(writer.ValueOrDie().Compact("fact,s0\nf,T\n", 1).ok());
  const int64_t folded_index = writer.ValueOrDie().active_segment_index();
  ASSERT_TRUE(
      writer.ValueOrDie().Append(MakeAddVote("b", "f", Vote::kTrue)).ok());
  Result<std::string> folded_bytes = ReadFileToString(SegmentPath(folded_index));
  ASSERT_TRUE(folded_bytes.ok());
  ASSERT_TRUE(writer.ValueOrDie().Compact("fact,s0,b\nf,T,T\n", 1).ok());
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("c")).ok());
  writer = Status::FailedPrecondition("closed");
  // Resurrect the folded segment, as if its unlink had failed.
  ASSERT_TRUE(WriteStringToFile(SegmentPath(folded_index),
                                folded_bytes.ValueOrDie())
                  .ok());

  WalRecovery recovery;
  Result<WalWriter> reopened =
      WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.snapshot_seq, 2u);
  EXPECT_EQ(recovery.stale_markers, 1);
  EXPECT_EQ(recovery.segments_scanned, 2);
  // Stale-segment mutations come first (idempotent re-fold), then the
  // post-compaction ones.
  const std::vector<WalRecord> mutations = recovery.Mutations();
  ASSERT_EQ(mutations.size(), 2u);
  EXPECT_EQ(mutations[0], MakeAddVote("b", "f", Vote::kTrue));
  EXPECT_EQ(mutations[1], MakeAddSource("c"));
}

TEST_F(WalTest, SnapshotMarkerWithoutSnapshotIsParseError) {
  ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  WalRecord marker;
  marker.type = WalRecordType::kSnapshotMarker;
  marker.snapshot_crc = 0xDEADBEEF;
  marker.records_folded = 7;
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0),
                                wal_internal::SegmentHeader() +
                                    wal_internal::EncodeRecord(marker))
                  .ok());
  Result<WalRecovery> inspected = InspectWal(dir_);
  EXPECT_EQ(inspected.status().code(), StatusCode::kParseError);
  EXPECT_NE(inspected.status().message().find("no snapshot.snap"),
            std::string::npos);
}

TEST_F(WalTest, MismatchedSnapshotPairIsParseError) {
  Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());
  ASSERT_TRUE(writer.ValueOrDie().Compact("fact\nf\n", 1).ok());
  writer = Status::FailedPrecondition("closed");
  // Replace the snapshot with a different (valid) one: the marker in
  // the log now pins a CRC that no longer matches.
  {
    Result<WalWriter> other =
        WalWriter::Open(dir_ + "_other", FastOptions());
    ASSERT_TRUE(other.ok());
    ASSERT_TRUE(other.ValueOrDie().Append(MakeAddSource("b")).ok());
    ASSERT_TRUE(other.ValueOrDie().Compact("fact\ng\n", 1).ok());
  }
  Result<std::string> foreign =
      ReadFileToString(dir_ + "_other/snapshot.snap");
  ASSERT_TRUE(foreign.ok());
  ASSERT_TRUE(
      WriteStringToFile(dir_ + "/snapshot.snap", foreign.ValueOrDie()).ok());
  RemoveWalDir(dir_ + "_other");

  Result<WalRecovery> inspected = InspectWal(dir_);
  EXPECT_EQ(inspected.status().code(), StatusCode::kParseError);
  EXPECT_NE(inspected.status().message().find("mismatched snapshot"),
            std::string::npos);
}

TEST_F(WalTest, CorruptionFollowedByIntactRecordsIsParseError) {
  // A flipped payload byte in the MIDDLE of the final (here: only)
  // segment, with intact acked records after it, is corruption — not
  // a torn tail. Truncating would silently drop the acked records
  // behind the damage, so recovery must refuse instead.
  const std::vector<WalRecord> records = SampleRecords();
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  std::string damaged = contents.ValueOrDie();
  // Flip a byte inside the second record's frame (well before the
  // final record).
  const size_t second_record =
      wal_internal::SegmentHeader().size() +
      wal_internal::EncodeRecord(records[0]).size();
  damaged[second_record + 7] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), damaged).ok());

  Result<WalRecovery> inspected = InspectWal(dir_);
  EXPECT_EQ(inspected.status().code(), StatusCode::kParseError);
  EXPECT_NE(inspected.status().message().find("corruption"),
            std::string::npos);
  EXPECT_EQ(WalWriter::Open(dir_, FastOptions()).status().code(),
            StatusCode::kParseError);
}

TEST_F(WalTest, LengthFieldBitFlipMidSegmentIsParseError) {
  // The record CRC covers the length field, so a flipped length bit
  // mid-segment fails that record's CRC; the intact records after it
  // then classify the damage as corruption. Before the fix this
  // silently discarded every record from the flip onward.
  const std::vector<WalRecord> records = SampleRecords();
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    for (const WalRecord& record : records) {
      ASSERT_TRUE(writer.ValueOrDie().Append(record).ok());
    }
  }
  Result<std::string> contents = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(contents.ok());
  std::string damaged = contents.ValueOrDie();
  // Byte 1 of a record frame is the low byte of its u32 length.
  const size_t second_record =
      wal_internal::SegmentHeader().size() +
      wal_internal::EncodeRecord(records[0]).size();
  damaged[second_record + 1] ^= 0x04;
  ASSERT_TRUE(WriteStringToFile(SegmentPath(0), damaged).ok());

  Result<WalRecovery> inspected = InspectWal(dir_);
  EXPECT_EQ(inspected.status().code(), StatusCode::kParseError)
      << inspected.status().ToString();
}

TEST_F(WalTest, OversizeDigitRunInSegmentNameIsIgnored) {
  // A stray all-digits name wider than int64 must be skipped like any
  // other foreign file — stoll would throw out_of_range through
  // startup recovery and abort the daemon.
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());
  }
  ASSERT_TRUE(WriteStringToFile(
                  dir_ + "/wal-99999999999999999999999.log", "junk")
                  .ok());
  WalRecovery recovery;
  Result<WalWriter> reopened =
      WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(recovery.segments_scanned, 1);
  ASSERT_EQ(recovery.records.size(), 1u);
  EXPECT_EQ(recovery.records[0], MakeAddSource("a"));
}

TEST_F(WalTest, AppendBatchRoundTripsAndCountsOneFsync) {
  const std::vector<WalRecord> batch = {
      MakeAddVote("alice", "sky-is-blue", Vote::kTrue),
      MakeAddVote("bob", "sky-is-blue", Vote::kFalse),
      MakeRetractVote("alice", "sky-is-blue"),
  };
  {
    WalOptions options;
    options.fsync_policy = WalFsyncPolicy::kAlways;
    Result<WalWriter> writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("alice")).ok());
    // The batch is one frame and one fsync, not one per record.
    FailpointConfig observe;
    observe.probability = 0.0;
    Failpoints::Arm("wal.fsync", observe);
    ASSERT_TRUE(writer.ValueOrDie().AppendBatch(batch).ok());
    EXPECT_EQ(Failpoints::HitCount("wal.fsync"), 1);
    Failpoints::Disarm("wal.fsync");
    EXPECT_EQ(writer.ValueOrDie().records_appended(), 4);
    // Markers may only enter the log through Compact.
    WalRecord marker;
    marker.type = WalRecordType::kSnapshotMarker;
    EXPECT_EQ(writer.ValueOrDie().AppendBatch({&marker, 1}).code(),
              StatusCode::kInvalidArgument);
  }
  WalRecovery recovery;
  Result<WalWriter> reopened =
      WalWriter::Open(dir_, FastOptions(), &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.records.size(), 4u);
  EXPECT_EQ(recovery.records[0], MakeAddSource("alice"));
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(recovery.records[i + 1], batch[i]);
  }
}

TEST_F(WalTest, TornBatchFrameIsAllOrNothing) {
  // Cut the file at every byte inside the batch frame: recovery must
  // yield either the whole batch or none of it — never a strict
  // prefix — because the batch shares one length and one CRC.
  const WalRecord before = MakeAddSource("pre-batch");
  const std::vector<WalRecord> batch = {
      MakeAddVote("alice", "sky-is-blue", Vote::kTrue),
      MakeAddVote("bob", "sky-is-blue", Vote::kFalse),
      MakeAddVote("carol", "grass-is-green", Vote::kTrue),
  };
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.ValueOrDie().Append(before).ok());
    ASSERT_TRUE(writer.ValueOrDie().AppendBatch(batch).ok());
  }
  Result<std::string> full = ReadFileToString(SegmentPath(0));
  ASSERT_TRUE(full.ok());
  const std::string intact = full.ValueOrDie();
  const size_t batch_start = wal_internal::SegmentHeader().size() +
                             wal_internal::EncodeRecord(before).size();
  ASSERT_EQ(batch_start + wal_internal::EncodeBatchRecord(batch).size(),
            intact.size());

  for (size_t cut = batch_start; cut <= intact.size(); ++cut) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    RemoveWalDir(dir_);
    {
      Result<WalWriter> writer = WalWriter::Open(dir_, FastOptions());
      ASSERT_TRUE(writer.ok());
    }
    ASSERT_TRUE(WriteStringToFile(
                    SegmentPath(0), std::string_view(intact).substr(0, cut))
                    .ok());
    WalRecovery recovery;
    Result<WalWriter> reopened =
        WalWriter::Open(dir_, FastOptions(), &recovery);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    if (cut == intact.size()) {
      ASSERT_EQ(recovery.records.size(), 1u + batch.size());
    } else {
      ASSERT_EQ(recovery.records.size(), 1u);
      EXPECT_EQ(recovery.records[0], before);
      EXPECT_EQ(recovery.tail_truncated, cut != batch_start);
    }
  }
}

TEST_F(WalTest, FailedBatchFsyncRollsTheFrameBack) {
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kAlways;
  Result<WalWriter> writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());

  const std::vector<WalRecord> batch = {
      MakeAddVote("b", "f", Vote::kTrue),
      MakeAddVote("c", "f", Vote::kFalse),
  };
  Failpoints::Arm("wal.fsync");
  EXPECT_EQ(writer.ValueOrDie().AppendBatch(batch).code(),
            StatusCode::kIoError);
  Failpoints::Disarm("wal.fsync");
  // The NACKed frame left no trace: accounting and bytes both rolled
  // back, and the next append lands right after the surviving record.
  EXPECT_EQ(writer.ValueOrDie().records_appended(), 1);
  ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("d")).ok());
  writer = Status::FailedPrecondition("closed");

  WalRecovery recovery;
  Result<WalWriter> reopened = WalWriter::Open(dir_, options, &recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ASSERT_EQ(recovery.records.size(), 2u);
  EXPECT_EQ(recovery.records[0], MakeAddSource("a"));
  EXPECT_EQ(recovery.records[1], MakeAddSource("d"));
  EXPECT_FALSE(recovery.tail_truncated);
}

TEST_F(WalTest, FailpointsCoverEveryDurabilityEdge) {
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kAlways;
  options.segment_bytes = 64;
  {
    Result<WalWriter> writer = WalWriter::Open(dir_, options);
    ASSERT_TRUE(writer.ok());

    Failpoints::Arm("wal.append");
    EXPECT_EQ(writer.ValueOrDie().Append(MakeAddSource("a")).code(),
              StatusCode::kIoError);
    Failpoints::Disarm("wal.append");
    ASSERT_TRUE(writer.ValueOrDie().Append(MakeAddSource("a")).ok());

    Failpoints::Arm("wal.fsync");
    EXPECT_EQ(writer.ValueOrDie().Append(MakeAddSource("b")).code(),
              StatusCode::kIoError);  // Append's policy fsync fails
    EXPECT_EQ(writer.ValueOrDie().Sync().code(), StatusCode::kIoError);
    Failpoints::Disarm("wal.fsync");

    Failpoints::Arm("wal.rotate");
    EXPECT_EQ(writer.ValueOrDie().Compact("fact\nf\n", 1).code(),
              StatusCode::kIoError);  // Compact rotates to a new segment
    Failpoints::Disarm("wal.rotate");
  }
  Failpoints::Arm("wal.replay");
  EXPECT_EQ(WalWriter::Open(dir_, options).status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(InspectWal(dir_).status().code(), StatusCode::kIoError);
  Failpoints::Disarm("wal.replay");
  EXPECT_TRUE(WalWriter::Open(dir_, options).ok());
}

TEST_F(WalTest, FsyncPolicyParsingAndOptionValidation) {
  EXPECT_EQ(ParseWalFsyncPolicy("always").ValueOrDie(),
            WalFsyncPolicy::kAlways);
  EXPECT_EQ(ParseWalFsyncPolicy("interval").ValueOrDie(),
            WalFsyncPolicy::kInterval);
  EXPECT_EQ(ParseWalFsyncPolicy("never").ValueOrDie(),
            WalFsyncPolicy::kNever);
  EXPECT_EQ(ParseWalFsyncPolicy("Always").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseWalFsyncPolicy("").status().code(),
            StatusCode::kInvalidArgument);
  for (WalFsyncPolicy policy :
       {WalFsyncPolicy::kAlways, WalFsyncPolicy::kInterval,
        WalFsyncPolicy::kNever}) {
    EXPECT_EQ(ParseWalFsyncPolicy(WalFsyncPolicyName(policy)).ValueOrDie(),
              policy);
  }

  WalOptions options;
  EXPECT_TRUE(ValidateWalOptions(options).ok());
  options.fsync_interval_records = 0;
  EXPECT_EQ(ValidateWalOptions(options).code(),
            StatusCode::kInvalidArgument);
  options = WalOptions{};
  options.segment_bytes = 0;
  EXPECT_EQ(ValidateWalOptions(options).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(WalTest, IntervalPolicySyncsEveryNRecords) {
  WalOptions options;
  options.fsync_policy = WalFsyncPolicy::kInterval;
  options.fsync_interval_records = 3;
  Result<WalWriter> writer = WalWriter::Open(dir_, options);
  ASSERT_TRUE(writer.ok());
  // Count fsyncs through the wal.fsync failpoint's hit counter; the
  // probability-0 arm never fails, only observes.
  FailpointConfig observe;
  observe.probability = 0.0;
  Failpoints::Arm("wal.fsync", observe);
  for (int i = 0; i < 9; ++i) {
    ASSERT_TRUE(
        writer.ValueOrDie().Append(MakeAddSource("s" + std::to_string(i)))
            .ok());
  }
  EXPECT_EQ(Failpoints::HitCount("wal.fsync"), 3);
}

TEST_F(WalTest, SegmentFileNamesArePaddedAndStable) {
  EXPECT_EQ(wal_internal::SegmentFileName(0), "wal-000000.log");
  EXPECT_EQ(wal_internal::SegmentFileName(42), "wal-000042.log");
  EXPECT_EQ(wal_internal::SegmentFileName(1234567), "wal-1234567.log");
}

}  // namespace
}  // namespace corrob
