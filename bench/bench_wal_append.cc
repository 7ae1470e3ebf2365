// Append throughput of the vote-delta WAL (data/wal.h) at each fsync
// policy, recorded as BENCH_wal.json (the shared corrob.bench/1
// report: one row per policy, with `records` and `records_per_sec`
// beside the row's `seconds`). The three arms bound the
// durability/throughput trade an operator picks with corrobd
// --wal-fsync:
//   always    one fsync per record: the ack-means-durable ceiling
//   interval  one fsync per --fsync-interval records
//   never     OS page cache only; a crash loses the unsynced tail
// The "always" arm appends fewer records by default — at one fsync
// per record, disks do hundreds to low thousands per second, and the
// point is the ratio, not a long wait.

#include <dirent.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "data/wal.h"

namespace {

/// Removes every file in `dir` and the directory itself so each arm
/// starts on a fresh log.
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

/// Appends `records` synthetic vote deltas and returns the elapsed
/// seconds, or a negative value on error.
double RunArm(const std::string& dir, corrob::WalFsyncPolicy policy,
              int64_t interval, int64_t records) {
  RemoveWalDir(dir);
  corrob::WalOptions options;
  options.fsync_policy = policy;
  options.fsync_interval_records = interval;
  corrob::Result<corrob::WalWriter> writer =
      corrob::WalWriter::Open(dir, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "bench_wal_append: %s\n",
                 writer.status().ToString().c_str());
    return -1.0;
  }
  const double seconds = corrob::bench::TimeSeconds([&] {
    for (int64_t i = 0; i < records; ++i) {
      const corrob::Status appended = writer.ValueOrDie().Append(
          corrob::MakeAddVote("source-" + std::to_string(i % 64),
                              "fact-" + std::to_string(i % 1024),
                              i % 5 == 0 ? corrob::Vote::kFalse
                                         : corrob::Vote::kTrue));
      if (!appended.ok()) {
        std::fprintf(stderr, "bench_wal_append: %s\n",
                     appended.ToString().c_str());
      }
    }
  });
  RemoveWalDir(dir);
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  corrob::FlagParser flags = corrob::bench::ParseFlags(argc, argv);
  const int64_t records = flags.GetInt("records", 100000);
  // One fsync per record runs orders of magnitude slower; a smaller
  // default keeps the arm honest without a minute-long wait.
  const int64_t always_records =
      flags.GetInt("always-records", records / 100 > 0 ? records / 100 : 1);
  const int64_t interval = flags.GetInt("fsync-interval", 64);
  const std::string dir =
      flags.GetString("dir", "/tmp/corrob_bench_wal_append");

  corrob::bench::PrintHeader(
      "WAL append throughput",
      "Records per second appended to the vote-delta WAL at each fsync "
      "policy (corrobd --wal-fsync). 'always' is the ack-means-durable "
      "ceiling; 'never' is the page-cache upper bound.");

  corrob::bench::BenchReport report("wal", flags);
  report.SetConfig("records", records);
  report.SetConfig("always_records", always_records);
  report.SetConfig("fsync_interval", interval);

  corrob::TablePrinter table({"Policy", "Records", "Seconds", "Records/s"});
  const struct {
    corrob::WalFsyncPolicy policy;
    int64_t records;
  } arms[] = {
      {corrob::WalFsyncPolicy::kAlways, always_records},
      {corrob::WalFsyncPolicy::kInterval, records},
      {corrob::WalFsyncPolicy::kNever, records},
  };
  bool ok = true;
  for (const auto& arm : arms) {
    const std::string name(corrob::WalFsyncPolicyName(arm.policy));
    const double seconds = RunArm(dir, arm.policy, interval, arm.records);
    if (seconds < 0.0) {
      ok = false;
      continue;
    }
    const double rate =
        seconds > 0.0 ? static_cast<double>(arm.records) / seconds : 0.0;
    corrob::obs::JsonValue row =
        corrob::bench::BenchReport::Row(name, seconds);
    row.Set("records", corrob::obs::JsonValue::Int(arm.records));
    row.Set("records_per_sec", corrob::obs::JsonValue::Double(rate));
    report.AddRow(std::move(row));
    table.AddRow({name, std::to_string(arm.records),
                  corrob::FormatDouble(seconds, 4),
                  corrob::FormatDouble(rate, 1)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  report.Write();
  return ok ? 0 : 1;
}
