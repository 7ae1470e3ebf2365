// corrbench harness: the in-process half of corrbench/run.py.
//
// run.py times the user-facing binaries (`corrob`, `corrobd`) from the
// outside; this program does the work that needs the libraries: it
// builds seeded inputs, drives corrobd with an open-loop schedule,
// checks every output against an in-process reference, and replays
// the same work in-process with spans around each public call of the
// data, core and server layers. Nothing here modifies the program
// under test; it only calls its public entry points.
//
//   corrbench_harness setup        --kind K --facts N --sources S --seed X --out F
//   corrbench_harness ping         --socket P
//   corrbench_harness deltas       --corpus F --seed X --batches N
//   corrbench_harness verify-batch --jobs F
//   corrbench_harness serve        --socket P --corpus F --delta-seed X
//                                  --read-seed Y --warmup-seconds U
//                                  --seconds S --read-rate R --write-rate W
//                                  --keys K --out-prefix O
//   corrbench_harness trace-batch  --jobs F --max-jobs N --spans F
//                                  --scratch-output F --corrob B
//   corrbench_harness trace-serve  --corpus F --delta-seed X --batches N
//                                  --wal-dir D --spans F
//
// Every subcommand prints one JSON object on stdout (or, for `deltas`,
// the delta stream as text) and exits 0; any failure exits non-zero
// with a message on stderr.

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/crc32.h"
#include "common/csv.h"
#include "core/corroborator.h"
#include "core/delta_apply.h"
#include "core/fact_group.h"
#include "core/inc_estimate.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "core/vote_matrix.h"
#include "data/dataset.h"
#include "data/dataset_io.h"
#include "data/wal.h"
#include "eval/report_io.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "synth/restaurant_sim.h"
#include "synth/synthetic.h"

namespace corrob {
namespace {

using obs::JsonValue;

[[noreturn]] void Die(const std::string& message) {
  std::cerr << "corrbench_harness: " << message << "\n";
  std::exit(2);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).ValueOrDie();
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// Threads that compute in-process references.
constexpr int kWorkers = 4;
/// How long `ping` waits for a starting daemon to answer.
constexpr int64_t kPingTimeoutMs = 30000;

/// --key value pairs after the subcommand.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
        Die("expected --flag value pairs, got '" + key + "'");
      }
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) Die("missing --" + key);
    return it->second;
  }
  int64_t Int(const std::string& key) const { return std::stoll(Str(key)); }
  uint64_t U64(const std::string& key) const { return std::stoull(Str(key)); }
  double Double(const std::string& key) const { return std::stod(Str(key)); }

 private:
  std::map<std::string, std::string> values_;
};

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// Deterministic 64-bit generator (SplitMix64), so a seed names the
/// same stream on every platform and standard library.
class SeededStream {
 public:
  explicit SeededStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// "crc32:bytes" of a byte string; how outputs are compared without
/// keeping them.
std::string Fingerprint(std::string_view bytes) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%08x:%zu", ComputeCrc32(bytes),
                bytes.size());
  return buffer;
}

// ---------------------------------------------------------------------
// Inputs.

struct Corpus {
  Dataset dataset;
  GroundTruth truth;
};

/// The same generators, with the same defaults, that `corrob generate`
/// uses, so a CLI-written corpus and this one are byte-identical.
Corpus GenerateCorpus(const std::string& kind, int32_t facts, int32_t sources,
                      uint64_t seed) {
  Corpus corpus;
  if (kind == "synthetic") {
    SyntheticOptions options;
    options.num_facts = facts;
    options.num_sources = sources;
    options.num_inaccurate = 2;
    options.eta = 0.02;
    options.seed = seed;
    SyntheticDataset data = Unwrap(GenerateSynthetic(options), "generate");
    corpus.dataset = std::move(data.dataset);
    corpus.truth = std::move(data.truth);
  } else if (kind == "restaurant") {
    RestaurantSimOptions options;
    options.num_facts = facts;
    options.seed = seed;
    RestaurantCorpus data =
        Unwrap(GenerateRestaurantCorpus(options), "generate");
    corpus.dataset = std::move(data.dataset);
    corpus.truth = std::move(data.truth);
  } else {
    Die("unknown corpus kind '" + kind + "'");
  }
  return corpus;
}

/// The serve-rw write stream: `batches` apply-delta batches of 1-8
/// deltas each, 70% add-vote (T or F) and 30% retract-vote. Every delta
/// lands on one of kDeltaCells seeded (source, fact) cells of the
/// corpus, so the served corpus stays within that many votes of the
/// base: the traffic is stationary, and a run's tail does not depend on
/// how far the deltas have drifted the fact groups.
constexpr int kDeltaCells = 32;

std::vector<std::vector<WalRecord>> MakeDeltaStream(const Dataset& base,
                                                    uint64_t seed,
                                                    int64_t batches) {
  SeededStream stream(seed);
  std::vector<std::pair<SourceId, FactId>> cells;
  for (int c = 0; c < kDeltaCells; ++c) {
    cells.emplace_back(
        static_cast<SourceId>(stream.Below(static_cast<uint64_t>(base.num_sources()))),
        static_cast<FactId>(stream.Below(static_cast<uint64_t>(base.num_facts()))));
  }
  std::vector<std::vector<WalRecord>> out;
  out.reserve(static_cast<size_t>(batches));
  for (int64_t b = 0; b < batches; ++b) {
    std::vector<WalRecord> batch;
    const uint64_t size = 1 + stream.Below(8);
    for (uint64_t i = 0; i < size; ++i) {
      const auto [s, f] = cells[stream.Below(cells.size())];
      const uint64_t kind = stream.Below(10);
      if (kind < 7) {
        batch.push_back(MakeAddVote(base.source_name(s), base.fact_name(f),
                                    kind % 2 == 0 ? Vote::kTrue
                                                  : Vote::kFalse));
      } else {
        batch.push_back(
            MakeRetractVote(base.source_name(s), base.fact_name(f)));
      }
    }
    out.push_back(std::move(batch));
  }
  return out;
}

LabeledDataset LoadCorpus(const std::string& path) {
  return Unwrap(LoadDatasetCsv(path), "load " + path);
}

double Accuracy(const Dataset& dataset, const GroundTruth& truth,
                const CorroborationResult& result) {
  int64_t correct = 0;
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    if (result.Decide(f) == truth.IsTrue(f)) ++correct;
  }
  return static_cast<double>(correct) /
         static_cast<double>(std::max(1, dataset.num_facts()));
}

/// What a corroborate response and an in-process result share, hashed
/// the same way on both sides.
uint32_t ResultHash(uint32_t iterations, uint8_t termination,
                    const std::vector<double>& probabilities,
                    const std::vector<double>& trust) {
  Crc32 crc;
  crc.Update(std::string_view(reinterpret_cast<const char*>(&iterations),
                              sizeof(iterations)));
  crc.Update(std::string_view(reinterpret_cast<const char*>(&termination),
                              sizeof(termination)));
  crc.Update(std::string_view(
      reinterpret_cast<const char*>(probabilities.data()),
      probabilities.size() * sizeof(double)));
  crc.Update(std::string_view(reinterpret_cast<const char*>(trust.data()),
                              trust.size() * sizeof(double)));
  return crc.Digest();
}

CorroborationResult RunAlgorithm(const std::string& algorithm,
                                 const Dataset& dataset, int threads,
                                 int64_t max_rounds = 0) {
  auto corroborator = Unwrap(
      MakeCorroborator(algorithm, CorroboratorOptions{.num_threads = threads}),
      "make " + algorithm);
  RunContext context;
  if (max_rounds > 0) {
    ResourceBudget budget;
    budget.max_rounds = max_rounds;
    context.WithBudget(budget);
  }
  return Unwrap(corroborator->Run(dataset, context), "run " + algorithm);
}

// ---------------------------------------------------------------------
// setup / ping / deltas

int CmdSetup(const Flags& flags) {
  const std::string out = flags.Str("out");
  Corpus corpus = GenerateCorpus(
      flags.Str("kind"), static_cast<int32_t>(flags.Int("facts")),
      static_cast<int32_t>(flags.Int("sources")), flags.U64("seed"));
  Check(SaveDatasetCsv(out, corpus.dataset, &corpus.truth), "save " + out);
  LabeledDataset loaded = LoadCorpus(out);
  JsonValue doc = JsonValue::Object();
  doc.Set("facts", JsonValue::Int(loaded.dataset.num_facts()));
  doc.Set("sources", JsonValue::Int(loaded.dataset.num_sources()));
  std::cout << doc.Dump() << "\n";
  return 0;
}

int CmdPing(const Flags& flags) {
  const std::string socket = flags.Str("socket");
  const int64_t deadline = NowNs() + kPingTimeoutMs * 1000000;
  while (NowNs() < deadline) {
    auto client = server::CorrobClient::Connect(socket);
    if (client.ok()) {
      auto pong = client.ValueOrDie().Ping("corrbench", StopSignal());
      if (pong.ok() && pong.ValueOrDie() == "corrbench") {
        std::cout << "{\"ping\": true}\n";
        return 0;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Die("no ping answer from " + socket);
}

std::string DeltaText(const WalRecord& record) {
  std::string out = record.type == WalRecordType::kAddVote ? "add" : "retract";
  out += "\t" + record.source + "\t" + record.fact;
  if (record.type == WalRecordType::kAddVote) {
    out += record.vote == Vote::kTrue ? "\tT" : "\tF";
  }
  return out;
}

int CmdDeltas(const Flags& flags) {
  LabeledDataset base = LoadCorpus(flags.Str("corpus"));
  const auto stream =
      MakeDeltaStream(base.dataset, flags.U64("seed"), flags.Int("batches"));
  for (size_t b = 0; b < stream.size(); ++b) {
    for (const WalRecord& record : stream[b]) {
      std::cout << b << "\t" << DeltaText(record) << "\n";
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Batch jobs: the job list run.py wrote, one job per line:
//   <seed> <algorithm> <facts> <sources> <corpus fingerprint> <decisions fingerprint> <corpus path>

struct BatchJob {
  uint64_t seed = 0;
  std::string algorithm;
  int32_t facts = 0;
  int32_t sources = 0;
  std::string corpus_fp;
  std::string decisions_fp;
  std::string corpus_path;
};

std::vector<BatchJob> ReadJobs(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot open " + path);
  std::vector<BatchJob> jobs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    BatchJob job;
    fields >> job.seed >> job.algorithm >> job.facts >> job.sources >>
        job.corpus_fp >> job.decisions_fp >> job.corpus_path;
    if (!fields) Die("bad job line: " + line);
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// Runs fn(i) for i in [0, n) on `workers` threads.
template <typename Fn>
void ParallelFor(size_t n, int workers, Fn fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  const int count = std::max(1, std::min<int>(workers, static_cast<int>(n)));
  for (int t = 0; t < count; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  for (std::thread& thread : threads) thread.join();
}

/// Regenerates every job's corpus and decisions in-process and compares
/// their fingerprints with what the CLI wrote. References run at one
/// thread: results are bit-identical at any thread count.
int CmdVerifyBatch(const Flags& flags) {
  const std::vector<BatchJob> jobs = ReadJobs(flags.Str("jobs"));
  struct Outcome {
    bool corpus_ok = false;
    bool decisions_ok = false;
    double accuracy = 0.0;
  };
  std::vector<Outcome> outcomes(jobs.size());
  ParallelFor(jobs.size(), kWorkers, [&](size_t i) {
    const BatchJob& job = jobs[i];
    Corpus corpus =
        GenerateCorpus("synthetic", job.facts, job.sources, job.seed);
    const std::string csv = DatasetToCsv(corpus.dataset, &corpus.truth);
    outcomes[i].corpus_ok = Fingerprint(csv) == job.corpus_fp;
    LabeledDataset parsed = Unwrap(ParseDatasetCsv(csv), "parse job corpus");
    const CorroborationResult result =
        RunAlgorithm(job.algorithm, parsed.dataset, 1);
    outcomes[i].decisions_ok =
        Fingerprint(DecisionsToCsv(parsed.dataset, result)) == job.decisions_fp;
    outcomes[i].accuracy = Accuracy(parsed.dataset, corpus.truth, result);
  });
  JsonValue list = JsonValue::Array();
  for (const Outcome& outcome : outcomes) {
    JsonValue row = JsonValue::Object();
    row.Set("corpus_ok", JsonValue::Bool(outcome.corpus_ok));
    row.Set("decisions_ok", JsonValue::Bool(outcome.decisions_ok));
    row.Set("accuracy", JsonValue::Double(outcome.accuracy));
    list.Append(std::move(row));
  }
  JsonValue doc = JsonValue::Object();
  doc.Set("jobs", std::move(list));
  std::cout << doc.Dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// Spans. Kept in memory and written when the run ends; a layer's self
// time is computed from them by run.py.

class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t trace = 0;
    int64_t id = 0;
    int64_t parent = 0;
    int64_t start = 0;
    int64_t end = 0;
  };

  /// Opens a span under `parent` (0 = a root, which starts a trace).
  int64_t Begin(const std::string& name, int64_t parent) {
    Span span;
    span.name = name;
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = parent;
    span.trace = parent == 0 ? span.id : spans_[parent - 1].trace;
    span.start = NowNs();
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }
  /// Closes span `id` and returns its duration in nanoseconds.
  int64_t End(int64_t id) {
    Span& span = spans_[static_cast<size_t>(id - 1)];
    span.end = NowNs();
    return span.end - span.start;
  }
  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& span : spans_) {
      JsonValue row = JsonValue::Object();
      row.Set("name", JsonValue::Str(span.name));
      row.Set("trace", JsonValue::Int(span.trace));
      row.Set("id", JsonValue::Int(span.id));
      row.Set("parent", JsonValue::Int(span.parent));
      row.Set("start_ns", JsonValue::Int(span.start));
      row.Set("end_ns", JsonValue::Int(span.end));
      out << row.Dump() << "\n";
    }
    if (!out) Die("cannot write spans to " + path);
  }

  /// What tracing added to each traced operation (root span), in ms:
  /// this log's Begin and End calls, same names and nesting, replayed
  /// into fresh logs in a tight loop (median of five timings). Timing
  /// traced against untraced runs cannot show this cost, which is far
  /// below one run's jitter.
  double OverheadPerRootMs() const {
    const auto roots = std::count_if(spans_.begin(), spans_.end(),
                                     [](const Span& s) { return s.parent == 0; });
    if (roots == 0) return 0.0;
    const size_t replays = std::max<size_t>(1, 100000 / spans_.size());
    std::vector<double> per_root_ms;
    for (int timing = 0; timing < 5; ++timing) {
      const int64_t start = NowNs();
      for (size_t r = 0; r < replays; ++r) {
        SpanLog replay;
        for (const Span& span : spans_) replay.Begin(span.name, span.parent);
        for (int64_t id = static_cast<int64_t>(spans_.size()); id > 0; --id) {
          replay.End(id);
        }
      }
      per_root_ms.push_back(Ms(NowNs() - start) / static_cast<double>(replays) /
                            static_cast<double>(roots));
    }
    return Median(per_root_ms);
  }

 private:
  std::vector<Span> spans_;
};

/// Runs fn under a span.
template <typename Fn>
auto InSpan(SpanLog& log, const std::string& name, int64_t parent, Fn fn) {
  const int64_t id = log.Begin(name, parent);
  auto value = fn();
  log.End(id);
  return value;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

// Per-corpus probes of the core layer, each one public call timed on
// its own, median of three.

double ProbeVoteMatrixMs(const Dataset& dataset) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    VoteMatrix matrix(dataset);
    ms.push_back(Ms(NowNs() - start));
    if (matrix.num_facts() != dataset.num_facts()) Die("vote matrix size");
  }
  return Median(ms);
}

/// BuildFactGroups + BuildSourceGroupIndex; `groups` gets the count.
double ProbeFactGroupsMs(const Dataset& dataset, int64_t* groups) {
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t start = NowNs();
    std::vector<FactGroup> built = BuildFactGroups(dataset);
    auto index = BuildSourceGroupIndex(built, dataset.num_sources());
    ms.push_back(Ms(NowNs() - start));
    *groups = static_cast<int64_t>(built.size());
    if (index.size() != static_cast<size_t>(dataset.num_sources())) {
      Die("source group index size");
    }
  }
  return Median(ms);
}

/// Mean IncrementalEngine::EntropyDelta(g, scratch) over every group at
/// round 0, in nanoseconds.
double ProbeDeltaHNs(const Dataset& dataset) {
  IncrementalEngine engine(dataset, IncEstimateOptions{});
  EntropyScratch scratch;
  const auto groups = static_cast<int32_t>(engine.groups().size());
  double sink = 0;
  const int64_t start = NowNs();
  for (int32_t g = 0; g < groups; ++g) sink += engine.EntropyDelta(g, &scratch);
  const int64_t elapsed = NowNs() - start;
  if (sink != sink) Die("delta-H probe produced NaN");
  return static_cast<double>(elapsed) / static_cast<double>(std::max(1, groups));
}

/// The threads a batch job's `corrob run` uses.
int JobThreads(const BatchJob& job) {
  return job.algorithm == "IncEstHeu" ? 1 : 4;
}

/// Runs the job's `corrob run` (the binary at `cli`) as a child process,
/// its stdout discarded, and returns its wall time in nanoseconds.
int64_t TimeCliJob(const std::string& cli, const BatchJob& job,
                   const std::string& output) {
  std::vector<std::string> args = {cli,
                                   "run",
                                   "--input",
                                   job.corpus_path,
                                   "--algorithm",
                                   job.algorithm,
                                   "--threads",
                                   std::to_string(JobThreads(job)),
                                   "--output",
                                   output};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  const int64_t start = NowNs();
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) Die("cannot start " + cli);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) Die("waitpid on " + cli);
  const int64_t elapsed = NowNs() - start;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("corrob run failed on " + job.corpus_path);
  }
  return elapsed;
}

/// One batch job replayed in-process the way `corrob run` does it:
/// read + parse the CSV, run, format and write the decisions, each
/// under a span. Returns the job's wall time in nanoseconds.
int64_t ReplayJob(const BatchJob& job, const std::string& output,
                  SpanLog& log) {
  const int64_t root = log.Begin("job", 0);
  const std::string text = InSpan(log, "data.read_file", root, [&] {
    return Unwrap(ReadFileToString(job.corpus_path), "read corpus");
  });
  const LabeledDataset parsed = InSpan(log, "data.parse_csv", root, [&] {
    return Unwrap(ParseDatasetCsv(text), "parse corpus");
  });
  const CorroborationResult result = InSpan(log, "core.run", root, [&] {
    return RunAlgorithm(job.algorithm, parsed.dataset, JobThreads(job));
  });
  const std::string decisions = InSpan(log, "cli.format_output", root, [&] {
    return DecisionsToCsv(parsed.dataset, result);
  });
  InSpan(log, "cli.write_output", root, [&] {
    Check(WriteStringToFile(output, decisions), "write decisions");
    return 0;
  });
  const int64_t elapsed = log.End(root);
  if (Fingerprint(decisions) != job.decisions_fp) {
    Die("in-process replay differs from the CLI output for seed " +
        std::to_string(job.seed));
  }
  return elapsed;
}

JsonValue Num(double value) { return JsonValue::Double(value); }

/// Replays the first jobs in-process, traced, each next to a run of the
/// same job's `corrob run` (alternating which goes first, so a drift in
/// host speed does not bias the CLI residual), then times each public
/// call of the layers the job's algorithm enters. Layers a workload
/// never enters report 0.
int CmdTraceBatch(const Flags& flags) {
  std::vector<BatchJob> jobs = ReadJobs(flags.Str("jobs"));
  const size_t count =
      std::min<size_t>(jobs.size(), static_cast<size_t>(flags.Int("max-jobs")));
  const std::string output = flags.Str("scratch-output");
  const std::string cli = flags.Str("corrob");
  SpanLog log;
  std::vector<double> residual_ms, parse_ms, rows, matrix_ms, builds, sweep_ms,
      iterations, groups_ms, groups, inc_run_ms, delta_h_ns, rounds, scans,
      candidates;
  obs::Histogram* candidate_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "corrob.inc_est.delta_h_candidates");
  for (size_t i = 0; i < count; ++i) {
    const BatchJob& job = jobs[i];
    int64_t cli_ns = 0;
    int64_t replay_ns = 0;
    if (i % 2 == 0) {
      cli_ns = TimeCliJob(cli, job, output);
      replay_ns = ReplayJob(job, output, log);
    } else {
      replay_ns = ReplayJob(job, output, log);
      cli_ns = TimeCliJob(cli, job, output);
    }
    residual_ms.push_back(Ms(cli_ns - replay_ns));

    const std::string text = Unwrap(ReadFileToString(job.corpus_path), "read");
    const int64_t rows_before = CounterValue("corrob.csv.rows_loaded");
    const int64_t parse_start = NowNs();
    const LabeledDataset parsed = Unwrap(ParseDatasetCsv(text), "parse");
    parse_ms.push_back(Ms(NowNs() - parse_start));
    rows.push_back(static_cast<double>(CounterValue("corrob.csv.rows_loaded") -
                                       rows_before));

    const bool inc = job.algorithm == "IncEstHeu";
    const int64_t builds_before = CounterValue("corrob.vote_matrix.builds");
    const int64_t scans_before = CounterValue("corrob.inc_est.delta_h_scans");
    const int64_t candidates_before = candidate_histogram->Sum();
    const int64_t run_start = NowNs();
    const CorroborationResult result =
        RunAlgorithm(job.algorithm, parsed.dataset, inc ? 1 : 4);
    const double run_ms = Ms(NowNs() - run_start);
    const int64_t job_builds =
        CounterValue("corrob.vote_matrix.builds") - builds_before;
    builds.push_back(static_cast<double>(job_builds));
    const double matrix = job_builds > 0 ? ProbeVoteMatrixMs(parsed.dataset) : 0;
    if (job_builds > 0) matrix_ms.push_back(matrix);
    if (inc) {
      int64_t group_count = 0;
      groups_ms.push_back(ProbeFactGroupsMs(parsed.dataset, &group_count));
      groups.push_back(static_cast<double>(group_count));
      delta_h_ns.push_back(ProbeDeltaHNs(parsed.dataset));
      inc_run_ms.push_back(run_ms);
      rounds.push_back(result.iterations);
      scans.push_back(static_cast<double>(
          CounterValue("corrob.inc_est.delta_h_scans") - scans_before));
      candidates.push_back(
          static_cast<double>(candidate_histogram->Sum() - candidates_before));
    } else {
      sweep_ms.push_back(run_ms - matrix * static_cast<double>(job_builds));
      iterations.push_back(result.iterations);
    }
  }
  log.Write(flags.Str("spans"));
  JsonValue doc = JsonValue::Object();
  doc.Set("jobs", JsonValue::Int(static_cast<int64_t>(count)));
  doc.Set("trace.overhead_ms", Num(log.OverheadPerRootMs()));
  doc.Set("cli.residual_ms", Num(Median(residual_ms)));
  doc.Set("data.parse_csv_ms", Num(Median(parse_ms)));
  doc.Set("data.rows_loaded", Num(Median(rows)));
  doc.Set("core.vote_matrix_build_ms", Num(Median(matrix_ms)));
  doc.Set("core.vote_matrix.builds", Num(Median(builds)));
  doc.Set("core.fixpoint_sweep_ms", Num(Median(sweep_ms)));
  doc.Set("core.fixpoint.iterations", Num(Median(iterations)));
  doc.Set("core.fact_groups_build_ms", Num(Median(groups_ms)));
  doc.Set("core.fact_groups", Num(Median(groups)));
  doc.Set("core.inc.run_ms", Num(Median(inc_run_ms)));
  doc.Set("core.inc.delta_h_ns", Num(Median(delta_h_ns)));
  doc.Set("core.inc.rounds", Num(Median(rounds)));
  doc.Set("core.inc.delta_h_scans", Num(Median(scans)));
  doc.Set("core.inc.delta_h_candidates", Num(Median(candidates)));
  std::cout << doc.Dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// serve-rw: the open-loop driver.

constexpr char kDataset[] = "serve";
constexpr const char* kReadAlgorithms[] = {"TwoEstimate", "IncEstHeu"};
/// Round budgets that tell the cache keys apart. Each is far above the
/// rounds either algorithm needs on this corpus, which the verifier
/// checks, so every key of one algorithm has the same answer.
constexpr uint32_t kRoundBudgetBase = 100000;
/// Read connections; with the write connection, the driver's four.
constexpr int kReadConnections = 3;

struct ReadOp {
  int64_t sched = 0;  // ns after the measured window opens; < 0 = warm-up
  int algorithm = 0;
  uint32_t max_rounds = 0;
  // Filled by the driver.
  int64_t send = -1;
  int64_t recv = -1;
  std::string status = "not_issued";
  uint32_t hash = 0;
  uint64_t gen_lo = 0;
  uint64_t gen_hi = 0;
  double accuracy = 0;
};

struct WriteOp {
  int64_t sched = 0;
  int64_t send = -1;
  int64_t recv = -1;
  std::string status = "not_issued";
  uint64_t generation = 0;
};

/// Both schedules are evenly spaced (a constant offered rate, wrk2
/// style) from `warmup` seconds before the measured window to its end;
/// which key a read asks for is drawn from the seed.
std::vector<ReadOp> ReadSchedule(uint64_t seed, double warmup, double seconds,
                                 double rate, int keys) {
  SeededStream stream(seed);
  std::vector<ReadOp> reads;
  const int per_algorithm = std::max(1, keys / 2);
  for (int64_t i = 0;; ++i) {
    const double at = static_cast<double>(i) / rate - warmup;
    if (at >= seconds) break;
    ReadOp op;
    op.sched = static_cast<int64_t>(at * 1e9);
    const uint64_t key = stream.Below(static_cast<uint64_t>(per_algorithm * 2));
    op.algorithm = static_cast<int>(key % 2);
    op.max_rounds = kRoundBudgetBase + static_cast<uint32_t>(key / 2);
    reads.push_back(op);
  }
  return reads;
}

std::vector<WriteOp> WriteSchedule(double warmup, double seconds,
                                   double rate) {
  std::vector<WriteOp> writes;
  for (int64_t i = 0;; ++i) {
    const double at = (static_cast<double>(i) + 0.5) / rate - warmup;
    if (at >= seconds) break;
    WriteOp op;
    op.sched = static_cast<int64_t>(at * 1e9);
    writes.push_back(op);
  }
  return writes;
}

StopSignal RequestStop() {
  return StopSignal(nullptr,
                    Deadline::AfterMs(obs::MonotonicClock::Get(), 60000.0));
}

std::string FetchStats(server::CorrobClient* client) {
  return Unwrap(client->Stats(RequestStop()), "stats");
}

/// The daemon's corrob.introspect/1 dump with its metrics registry and
/// up to `max_recent` flight-recorder rows.
std::string FetchIntrospect(server::CorrobClient* client, uint32_t max_recent) {
  server::IntrospectRequest request;
  request.top_k = 10;
  request.max_recent = max_recent;
  return Unwrap(client->Introspect(request, RequestStop()), "introspect");
}

void WriteText(const std::string& path, const std::string& text) {
  Check(WriteStringToFile(path, text), "write " + path);
}

/// In-process answers for every generation the daemon went through:
/// the base corpus with the first k acked batches applied, run with
/// each read algorithm.
struct GenerationReference {
  uint32_t hash[2] = {0, 0};
  double accuracy[2] = {0, 0};
};

std::vector<GenerationReference> ReferenceGenerations(
    const LabeledDataset& base, const std::vector<std::vector<WalRecord>>& applied,
    int workers) {
  const size_t generations = applied.size() + 1;
  std::vector<GenerationReference> refs(generations);
  const GroundTruth& truth = *base.truth;
  // Each worker takes a contiguous range, builds its first dataset from
  // the whole prefix, then applies one batch at a time like the daemon.
  const size_t chunks = static_cast<size_t>(std::max(1, workers));
  const size_t per_chunk = (generations + chunks - 1) / chunks;
  ParallelFor(chunks, workers, [&](size_t c) {
    const size_t first = c * per_chunk;
    const size_t last = std::min(generations, first + per_chunk);
    if (first >= last) return;
    std::vector<WalRecord> prefix;
    for (size_t k = 0; k < first; ++k) {
      prefix.insert(prefix.end(), applied[k].begin(), applied[k].end());
    }
    Dataset current = Unwrap(ApplyDeltasToDataset(base.dataset, prefix),
                             "apply delta prefix");
    for (size_t g = first; g < last; ++g) {
      if (g > first) {
        current = Unwrap(ApplyDeltasToDataset(current, applied[g - 1]),
                         "apply delta batch");
      }
      for (int a = 0; a < 2; ++a) {
        const CorroborationResult result =
            RunAlgorithm(kReadAlgorithms[a], current, 1, kRoundBudgetBase);
        if (result.iterations >= static_cast<int>(kRoundBudgetBase)) {
          Die("round budget binds; cache keys would differ in answer");
        }
        refs[g].hash[a] =
            ResultHash(static_cast<uint32_t>(result.iterations),
                       static_cast<uint8_t>(result.termination),
                       result.fact_probability, result.source_trust);
        refs[g].accuracy[a] = Accuracy(current, truth, result);
      }
    }
  });
  return refs;
}

int CmdServe(const Flags& flags) {
  const std::string socket = flags.Str("socket");
  const std::string prefix = flags.Str("out-prefix");
  const double seconds = flags.Double("seconds");
  // Untimed traffic first, so lazy set-up (first rebuild, first WAL
  // segment, cold page cache) is not charged to the measured window.
  const double warmup = flags.Double("warmup-seconds");
  const double grace_seconds = 5.0;

  const LabeledDataset base = LoadCorpus(flags.Str("corpus"));
  if (!base.truth.has_value()) Die("serve corpus has no __truth__ column");
  std::vector<ReadOp> reads =
      ReadSchedule(flags.U64("read-seed"), warmup, seconds,
                   flags.Double("read-rate"),
                   static_cast<int>(flags.Int("keys")));
  std::vector<WriteOp> writes =
      WriteSchedule(warmup, seconds, flags.Double("write-rate"));
  const std::vector<std::vector<WalRecord>> batches = MakeDeltaStream(
      base.dataset, flags.U64("delta-seed"), static_cast<int64_t>(writes.size()));

  // Connections are opened before the clock starts.
  std::vector<server::CorrobClient> read_clients;
  for (int c = 0; c < kReadConnections; ++c) {
    read_clients.push_back(
        Unwrap(server::CorrobClient::Connect(socket), "connect"));
  }
  // The write connection also reads the daemon's counters.
  server::CorrobClient write_client =
      Unwrap(server::CorrobClient::Connect(socket), "connect");

  // The generation a read saw lies between the last write acked before
  // it was sent and the number of writes sent before it returned.
  std::atomic<uint64_t> acked_generation{1};
  std::atomic<uint64_t> writes_sent{0};
  std::atomic<size_t> next_read{0};

  const int64_t t0 =
      NowNs() + 20 * 1000000 + static_cast<int64_t>(warmup * 1e9);
  const int64_t give_up = t0 + static_cast<int64_t>((seconds + grace_seconds) * 1e9);
  const auto wait_until = [](int64_t at) {
    const int64_t now = NowNs();
    if (at > now) std::this_thread::sleep_for(std::chrono::nanoseconds(at - now));
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kReadConnections; ++c) {
    threads.emplace_back([&, c] {
      server::CorrobClient& client = read_clients[static_cast<size_t>(c)];
      for (size_t i = next_read.fetch_add(1); i < reads.size();
           i = next_read.fetch_add(1)) {
        ReadOp& op = reads[i];
        wait_until(t0 + op.sched);
        if (NowNs() > give_up) continue;  // stays "not_issued"
        server::CorroborateRequest request;
        request.dataset = kDataset;
        request.algorithm = kReadAlgorithms[op.algorithm];
        request.max_rounds = op.max_rounds;
        request.request_id = "r" + std::to_string(i);
        op.gen_lo = acked_generation.load();
        op.send = NowNs() - t0;
        auto outcome = client.Corroborate(request, RequestStop());
        op.recv = NowNs() - t0;
        op.gen_hi = 1 + writes_sent.load();
        if (!outcome.ok()) {
          op.status = "transport_error";
          // Redial so one lost connection does not fail the rest.
          auto redial = server::CorrobClient::Connect(socket);
          if (redial.ok()) client = std::move(redial).ValueOrDie();
          continue;
        }
        const server::CorroborateOutcome& answer = outcome.ValueOrDie();
        switch (answer.kind) {
          case server::CorroborateOutcome::Kind::kResult:
            op.status = "ok";
            op.hash = ResultHash(answer.result.iterations,
                                 answer.result.termination,
                                 answer.result.fact_probability,
                                 answer.result.source_trust);
            break;
          case server::CorroborateOutcome::Kind::kOverloaded:
            op.status = "shed";
            break;
          case server::CorroborateOutcome::Kind::kQuotaExceeded:
            op.status = "quota";
            break;
          case server::CorroborateOutcome::Kind::kError:
            op.status = "error";
            break;
        }
      }
    });
  }
  // Counters are read when the measured window opens and after it ends.
  std::string stats_before;
  std::string introspect_before;
  const auto open_window = [&] {
    stats_before = FetchStats(&write_client);
    introspect_before = FetchIntrospect(&write_client, 0);
  };
  threads.emplace_back([&] {
    for (size_t k = 0; k < writes.size(); ++k) {
      WriteOp& op = writes[k];
      if (op.sched >= 0 && stats_before.empty()) {
        wait_until(t0);
        open_window();
      }
      wait_until(t0 + op.sched);
      if (NowNs() > give_up) break;
      server::ApplyDeltaRequest request;
      request.dataset = kDataset;
      request.deltas = batches[k];
      writes_sent.fetch_add(1);
      op.send = NowNs() - t0;
      auto ack = write_client.ApplyDelta(request, RequestStop());
      op.recv = NowNs() - t0;
      if (!ack.ok()) {
        op.status = "error";
        continue;
      }
      op.status = "ok";
      op.generation = ack.ValueOrDie().generation;
      acked_generation.store(op.generation);
    }
  });
  for (std::thread& thread : threads) thread.join();
  if (stats_before.empty()) open_window();
  const std::string stats_after = FetchStats(&write_client);
  const std::string introspect_after = FetchIntrospect(
      &write_client, static_cast<uint32_t>(reads.size() + 1024));

  // Check every answered read against the generations it could have
  // seen. A write is applied in order, so acked generation k+1 is the
  // base with the first k acked batches.
  std::vector<std::vector<WalRecord>> applied;
  uint64_t expected_generation = 1;
  bool generations_ok = true;
  for (size_t k = 0; k < writes.size(); ++k) {
    if (writes[k].status != "ok") continue;
    ++expected_generation;
    if (writes[k].generation != expected_generation) generations_ok = false;
    applied.push_back(batches[k]);
  }
  const std::vector<GenerationReference> refs =
      ReferenceGenerations(base, applied, kWorkers);
  int64_t mismatched = 0;
  for (ReadOp& op : reads) {
    if (op.status != "ok") continue;
    const uint64_t hi = std::min<uint64_t>(op.gen_hi, refs.size());
    bool matched = false;
    for (uint64_t g = std::max<uint64_t>(op.gen_lo, 1); g <= hi && !matched; ++g) {
      const GenerationReference& ref = refs[g - 1];
      if (ref.hash[op.algorithm] == op.hash) {
        matched = true;
        op.accuracy = ref.accuracy[op.algorithm];
      }
    }
    if (!matched) {
      op.status = "mismatch";
      ++mismatched;
    }
  }

  std::ostringstream rows;
  rows << "kind\tid\tsched_ns\tsend_ns\trecv_ns\tstatus\talgorithm\taccuracy\n";
  for (size_t i = 0; i < reads.size(); ++i) {
    const ReadOp& op = reads[i];
    rows << "read\tr" << i << "\t" << op.sched << "\t" << op.send << "\t"
         << op.recv << "\t" << op.status << "\t"
         << kReadAlgorithms[op.algorithm] << "\t" << op.accuracy << "\n";
  }
  for (size_t k = 0; k < writes.size(); ++k) {
    const WriteOp& op = writes[k];
    rows << "write\tw" << k << "\t" << op.sched << "\t" << op.send << "\t"
         << op.recv << "\t" << op.status << "\t-\t0\n";
  }
  WriteText(prefix + "rows.tsv", rows.str());
  WriteText(prefix + "stats_before.json", stats_before);
  WriteText(prefix + "stats_after.json", stats_after);
  WriteText(prefix + "introspect_before.json", introspect_before);
  WriteText(prefix + "introspect_after.json", introspect_after);

  JsonValue doc = JsonValue::Object();
  doc.Set("generations_ok", JsonValue::Bool(generations_ok));
  doc.Set("generations", JsonValue::Int(static_cast<int64_t>(refs.size())));
  doc.Set("mismatched", JsonValue::Int(mismatched));
  std::cout << doc.Dump() << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// serve-rw traced replay: the same deltas and reads, in-process.

int64_t DirectoryBytes(const std::string& dir) {
  int64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) total += static_cast<int64_t>(entry.file_size());
  }
  return total;
}

int CmdTraceServe(const Flags& flags) {
  const std::string corpus_path = flags.Str("corpus");
  const std::string text = Unwrap(ReadFileToString(corpus_path), "read");
  SpanLog log;

  std::vector<double> parse_ms, rows;
  LabeledDataset base;
  for (int rep = 0; rep < 3; ++rep) {
    const int64_t rows_before = CounterValue("corrob.csv.rows_loaded");
    const int64_t start = NowNs();
    base = Unwrap(ParseDatasetCsv(text), "parse");
    parse_ms.push_back(Ms(NowNs() - start));
    rows.push_back(static_cast<double>(CounterValue("corrob.csv.rows_loaded") -
                                       rows_before));
  }
  const double matrix_ms = ProbeVoteMatrixMs(base.dataset);
  int64_t group_count = 0;
  const double groups_ms = ProbeFactGroupsMs(base.dataset, &group_count);
  const double delta_h_ns = ProbeDeltaHNs(base.dataset);

  const auto batches = MakeDeltaStream(base.dataset, flags.U64("delta-seed"),
                                       flags.Int("batches"));
  WalOptions wal_options;
  wal_options.fsync_policy = WalFsyncPolicy::kAlways;
  const std::string wal_dir = flags.Str("wal-dir");
  WalWriter wal = Unwrap(WalWriter::Open(wal_dir, wal_options), "open wal");
  const int64_t wal_bytes_before = DirectoryBytes(wal_dir);

  // Each replayed write: the daemon's rebuild, then the durable append.
  // Then each read algorithm's cold run at the new generation.
  std::vector<double> apply_ms, append_ms, sweep_ms, iterations, inc_ms,
      rounds, scans, candidates;
  Dataset current = base.dataset;
  int64_t deltas = 0;
  obs::Histogram* candidate_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "corrob.inc_est.delta_h_candidates");
  for (size_t k = 0; k < batches.size(); ++k) {
    const int64_t root = log.Begin("write", 0);
    const int64_t apply_span = log.Begin("core.delta_apply", root);
    Dataset next = Unwrap(ApplyDeltasToDataset(current, batches[k]), "apply");
    apply_ms.push_back(Ms(log.End(apply_span)));
    const int64_t append_span = log.Begin("data.wal_append", root);
    Check(wal.AppendBatch(batches[k]), "wal append");
    append_ms.push_back(Ms(log.End(append_span)));
    log.End(root);
    deltas += static_cast<int64_t>(batches[k].size());
    current = std::move(next);

    for (int a = 0; a < 2; ++a) {
      const int64_t scans_before = CounterValue("corrob.inc_est.delta_h_scans");
      const int64_t candidates_before = candidate_histogram->Sum();
      const int64_t read_span = log.Begin("read", 0);
      const int64_t run_span = log.Begin("core.run", read_span);
      const CorroborationResult result =
          RunAlgorithm(kReadAlgorithms[a], current, 1, kRoundBudgetBase);
      const double run_ms = Ms(log.End(run_span));
      log.End(read_span);
      if (a == 0) {
        sweep_ms.push_back(run_ms - matrix_ms);
        iterations.push_back(result.iterations);
      } else {
        inc_ms.push_back(run_ms);
        rounds.push_back(result.iterations);
        scans.push_back(static_cast<double>(
            CounterValue("corrob.inc_est.delta_h_scans") - scans_before));
        candidates.push_back(
            static_cast<double>(candidate_histogram->Sum() - candidates_before));
      }
    }
  }
  const int64_t wal_bytes = DirectoryBytes(wal_dir) - wal_bytes_before;
  log.Write(flags.Str("spans"));

  // Protocol codec on a restaurant-size response.
  const CorroborationResult reference =
      RunAlgorithm(kReadAlgorithms[0], base.dataset, 1);
  server::CorroborateResponse response;
  response.algorithm = reference.algorithm;
  response.termination = static_cast<uint8_t>(reference.termination);
  response.iterations = static_cast<uint32_t>(reference.iterations);
  response.fact_probability = reference.fact_probability;
  response.source_trust = reference.source_trust;
  response.request_id = "r0";
  std::vector<double> encode_us, decode_us;
  std::string payload;
  for (int rep = 0; rep < 21; ++rep) {
    int64_t start = NowNs();
    payload = server::EncodeCorroborateResponse(response);
    encode_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    start = NowNs();
    auto decoded = server::DecodeCorroborateResponse(payload);
    decode_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    if (!decoded.ok() ||
        decoded.ValueOrDie().fact_probability != response.fact_probability) {
      Die("protocol round trip changed the response");
    }
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("trace.overhead_ms", Num(log.OverheadPerRootMs()));
  doc.Set("data.parse_csv_ms", Num(Median(parse_ms)));
  doc.Set("data.rows_loaded", Num(Median(rows)));
  doc.Set("core.vote_matrix_build_ms", Num(matrix_ms));
  doc.Set("core.fixpoint_sweep_ms", Num(Median(sweep_ms)));
  doc.Set("core.fixpoint.iterations", Num(Median(iterations)));
  doc.Set("core.fact_groups_build_ms", Num(groups_ms));
  doc.Set("core.fact_groups", Num(static_cast<double>(group_count)));
  doc.Set("core.inc.run_ms", Num(Median(inc_ms)));
  doc.Set("core.inc.delta_h_ns", Num(delta_h_ns));
  doc.Set("core.inc.rounds", Num(Median(rounds)));
  doc.Set("core.inc.delta_h_scans", Num(Median(scans)));
  doc.Set("core.inc.delta_h_candidates", Num(Median(candidates)));
  doc.Set("core.delta_apply_ms", Num(Median(apply_ms)));
  doc.Set("data.wal_append_ms", Num(Median(append_ms)));
  doc.Set("data.wal_bytes_per_delta",
          Num(static_cast<double>(wal_bytes) /
              static_cast<double>(std::max<int64_t>(1, deltas))));
  doc.Set("server.protocol.encode_us", Num(Median(encode_us)));
  doc.Set("server.protocol.decode_us", Num(Median(decode_us)));
  std::cout << doc.Dump() << "\n";
  return 0;
}

}  // namespace
}  // namespace corrob

int main(int argc, char** argv) {
  using namespace corrob;
  if (argc < 2) Die("usage: corrbench_harness <subcommand> [--flag value]...");
  const std::string command = argv[1];
  const Flags flags(argc, argv);
  if (command == "setup") return CmdSetup(flags);
  if (command == "ping") return CmdPing(flags);
  if (command == "deltas") return CmdDeltas(flags);
  if (command == "verify-batch") return CmdVerifyBatch(flags);
  if (command == "trace-batch") return CmdTraceBatch(flags);
  if (command == "serve") return CmdServe(flags);
  if (command == "trace-serve") return CmdTraceServe(flags);
  Die("unknown subcommand '" + command + "'");
}
