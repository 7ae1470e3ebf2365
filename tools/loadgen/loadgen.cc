// corrob-loadgen: open-ish-loop load generator and saturation
// benchmark for corrobd (docs/SERVING.md, "Saturation benchmarking").
//
// Sweeps a list of offered QPS levels against a running daemon and
// reports, per level: achieved QPS, result/shed/error/quota counts,
// the shed rate, p50/p90/p99/p999 latency of successful
// corroborations, and — when the daemon's result cache is on — the
// level's cache hit rate plus the cold-vs-hit latency split. The
// machine-readable sidecar BENCH_serving.json (schema
// corrob.serving_bench/3, validated by tools/obs/validate_trace.py)
// carries the whole curve.
//
// Every request carries a client-generated id ("lg<level>-<seq>")
// that the daemon echoes back and keeps in its flight
// recorder. At the end of each level the generator fetches the
// introspection document and joins the two views by id, reporting
// client-observed vs server-side p50 and their delta — the time spent
// outside the daemon's own measurement window (transport, framing,
// accept queues). The delta can be slightly negative: the two p50s
// come from the joined sample set but are independent medians.
//
// Key diversity and tenancy:
//   --unique-keys N   spread requests over N distinct cache keys via
//                     a synthetic request option ("lg_key"); 0 (the
//                     default) sends identical requests, the
//                     repeated-query regime where the cache shines
//   --tenants a,b,c   round-robin requests over tenant ids (empty =
//                     the anonymous tenant)
//
// Response accounting is the chaos-soak contract:
//   results/errors/overloaded/quota  fully received typed responses
//   aborted                   the connection died before ANY response
//                              byte (indistinguishable from a drain
//                              that never read the request — not proof
//                              of a drop)
//   dropped                    response bytes arrived and then the
//                              connection died mid-frame (typed
//                              kConnectionLost): the daemon started an
//                              answer the client never got. Always a
//                              bug; --fail-on-dropped turns any of
//                              these into exit code 1.
//
//   corrob-loadgen --socket /tmp/corrobd.sock --dataset flights
//       --qps 50,100,200,400 --duration-ms 2000 --connections 8

#include <algorithm>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/budget.h"
#include "common/csv.h"
#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/clock.h"
#include "obs/json.h"
#include "server/client.h"
#include "server/protocol.h"

namespace corrob {
namespace loadgen {
namespace {

using server::CorrobClient;
using server::CorroborateOutcome;
using server::CorroborateRequest;

struct LoadgenConfig {
  std::string socket_path;
  std::string dataset;
  std::string algorithm = "IncEstHeu";
  server::Priority priority = server::Priority::kBatch;
  std::vector<double> qps_levels;
  int64_t duration_ms = 2000;
  int connections = 8;
  int64_t timeout_ms = 0;
  int64_t max_rounds = 0;
  /// Tenant ids requests round-robin over; empty = anonymous only.
  std::vector<std::string> tenants;
  /// Distinct cache keys to spread requests over (0 = one key).
  int64_t unique_keys = 0;
  std::string json_path = "BENCH_serving.json";
  bool fail_on_dropped = false;
};

/// Counters and latencies of one offered-QPS level, shared by the
/// worker pool.
struct LevelStats {
  std::mutex mutex;
  /// Request-id prefix of this level ("lg<level>-").
  std::string id_prefix;
  /// Global request sequence: assigns tenants and synthetic keys.
  int64_t next_sequence = 0;
  /// Synthetic key indices already issued this level; the first
  /// request of each index is the key's cold run.
  std::set<int64_t> seen_keys;
  int64_t requests = 0;
  int64_t results = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t quota = 0;
  int64_t aborted = 0;
  int64_t dropped = 0;
  std::vector<double> latencies_ms;
  std::vector<double> cold_latencies_ms;
  std::vector<double> hit_latencies_ms;
  /// (request id, client-observed latency) of each result, for the
  /// end-of-level join against the daemon's flight recorder.
  std::vector<std::pair<std::string, double>> client_by_id;
};

/// Nearest-rank percentile over an ALREADY SORTED sample buffer; the
/// caller sorts once and reads every percentile from the same sort.
double PercentileSorted(const std::vector<double>& sorted_ms,
                        double fraction) {
  if (sorted_ms.empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      fraction * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(index, sorted_ms.size() - 1)];
}

/// Snapshot of the daemon's cache counters, via the stats frame.
struct CacheCounters {
  bool ok = false;
  int64_t hits = 0;
  int64_t misses = 0;
};

CacheCounters FetchCacheCounters(const LoadgenConfig& config) {
  CacheCounters counters;
  Result<CorrobClient> client = CorrobClient::Connect(config.socket_path);
  if (!client.ok()) return counters;
  Result<std::string> stats = client.ValueOrDie().Stats(StopSignal());
  if (!stats.ok()) return counters;
  obs::JsonValue parsed;
  if (!obs::JsonValue::Parse(stats.ValueOrDie(), &parsed)) return counters;
  const obs::JsonValue* cache = parsed.Find("cache");
  if (cache == nullptr) return counters;
  const obs::JsonValue* hits = cache->Find("hits");
  const obs::JsonValue* misses = cache->Find("misses");
  if (hits == nullptr || misses == nullptr) return counters;
  counters.ok = true;
  counters.hits = hits->int_value();
  counters.misses = misses->int_value();
  return counters;
}

/// The client-vs-server latency join of one level: every request this
/// level issued that is still in the daemon's flight-recorder ring
/// contributes a (client ms, server ms) pair.
struct LatencyCorrelation {
  int64_t count = 0;
  double client_p50_ms = 0.0;
  double server_p50_ms = 0.0;
  /// client p50 minus server p50 — transport, framing, and accept
  /// queues outside the daemon's window. Independent medians over the
  /// joined set, so slightly negative values are legitimate.
  double delta_p50_ms = 0.0;
};

LatencyCorrelation CorrelateWithRecorder(
    const LoadgenConfig& config,
    const std::vector<std::pair<std::string, double>>& client_by_id) {
  LatencyCorrelation correlation;
  if (client_by_id.empty()) return correlation;
  Result<CorrobClient> client = CorrobClient::Connect(config.socket_path);
  if (!client.ok()) return correlation;
  server::IntrospectRequest request;
  request.top_k = 1;
  // Ask for the whole ring; the daemon trims to its capacity.
  request.max_recent = 1u << 20;
  Result<std::string> payload =
      client.ValueOrDie().Introspect(request, StopSignal());
  if (!payload.ok()) return correlation;  // daemon predates introspection
  obs::JsonValue doc;
  if (!obs::JsonValue::Parse(payload.ValueOrDie(), &doc)) return correlation;
  const obs::JsonValue* recorder = doc.Find("recorder");
  const obs::JsonValue* recent =
      recorder != nullptr ? recorder->Find("recent") : nullptr;
  if (recent == nullptr || !recent->is_array()) return correlation;

  std::map<std::string, int64_t> server_total_nanos;
  for (const obs::JsonValue& row : recent->items()) {
    const obs::JsonValue* id = row.Find("id");
    const obs::JsonValue* total = row.Find("total_nanos");
    if (id != nullptr && id->is_string() && !id->string_value().empty() &&
        total != nullptr && total->is_int()) {
      server_total_nanos[id->string_value()] = total->int_value();
    }
  }

  std::vector<double> client_ms;
  std::vector<double> server_ms;
  for (const auto& [id, latency_ms] : client_by_id) {
    const auto it = server_total_nanos.find(id);
    if (it == server_total_nanos.end()) continue;
    client_ms.push_back(latency_ms);
    server_ms.push_back(static_cast<double>(it->second) / 1e6);
  }
  correlation.count = static_cast<int64_t>(client_ms.size());
  if (correlation.count == 0) return correlation;
  std::sort(client_ms.begin(), client_ms.end());
  std::sort(server_ms.begin(), server_ms.end());
  correlation.client_p50_ms = PercentileSorted(client_ms, 0.50);
  correlation.server_p50_ms = PercentileSorted(server_ms, 0.50);
  correlation.delta_p50_ms =
      correlation.client_p50_ms - correlation.server_p50_ms;
  return correlation;
}

/// One paced worker: issues requests at `interval_ms` spacing until
/// `deadline`, reconnecting after transport failures.
void RunWorker(const LoadgenConfig& config, double interval_ms,
               double start_offset_ms, Deadline deadline,
               LevelStats* stats) {
  const obs::Clock* clock = obs::MonotonicClock::Get();
  CancellationToken pacer;  // never cancelled; used as a sleeper
  (void)pacer.WaitForMs(start_offset_ms);

  CorroborateRequest request;
  request.priority = config.priority;
  request.dataset = config.dataset;
  request.algorithm = config.algorithm;
  request.timeout_ms = static_cast<uint32_t>(config.timeout_ms);
  request.max_rounds = static_cast<uint32_t>(config.max_rounds);

  Result<CorrobClient> client = CorrobClient::Connect(config.socket_path);
  int64_t next_fire_nanos = clock->NowNanos();
  while (!deadline.expired()) {
    if (!client.ok() || !client.ValueOrDie().connected()) {
      client = CorrobClient::Connect(config.socket_path);
      if (!client.ok()) break;  // daemon gone (e.g. drained away)
    }
    // Claim this request's slot in the level-wide sequence: tenant
    // round-robin, synthetic key, and whether this is the key's cold
    // (first-ever) issue.
    bool cold;
    {
      std::lock_guard<std::mutex> lock(stats->mutex);
      const int64_t sequence = stats->next_sequence++;
      request.request_id = stats->id_prefix + std::to_string(sequence);
      if (!config.tenants.empty()) {
        request.tenant = config.tenants[static_cast<size_t>(
            sequence % static_cast<int64_t>(config.tenants.size()))];
      }
      int64_t key_index = 0;
      if (config.unique_keys > 0) {
        key_index = sequence % config.unique_keys;
        request.options = {{"lg_key", std::to_string(key_index)}};
      }
      cold = stats->seen_keys.insert(key_index).second;
    }
    const int64_t request_started = clock->NowNanos();
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(request, StopSignal());
    const double latency_ms =
        static_cast<double>(clock->NowNanos() - request_started) / 1e6;

    {
      std::lock_guard<std::mutex> lock(stats->mutex);
      ++stats->requests;
      if (outcome.ok()) {
        switch (outcome.ValueOrDie().kind) {
          case CorroborateOutcome::Kind::kResult:
            ++stats->results;
            stats->latencies_ms.push_back(latency_ms);
            stats->client_by_id.emplace_back(request.request_id, latency_ms);
            if (cold) {
              stats->cold_latencies_ms.push_back(latency_ms);
            } else {
              stats->hit_latencies_ms.push_back(latency_ms);
            }
            break;
          case CorroborateOutcome::Kind::kOverloaded:
            ++stats->shed;
            break;
          case CorroborateOutcome::Kind::kQuotaExceeded:
            ++stats->quota;
            break;
          case CorroborateOutcome::Kind::kError:
            ++stats->errors;
            break;
        }
      } else if (outcome.status().code() == StatusCode::kConnectionLost) {
        // A response was being written and the stream died under it.
        ++stats->dropped;
      } else {
        ++stats->aborted;
      }
    }
    if (!outcome.ok()) client.ValueOrDie().Close();  // force reconnect

    next_fire_nanos += static_cast<int64_t>(interval_ms * 1e6);
    const double sleep_ms =
        static_cast<double>(next_fire_nanos - clock->NowNanos()) / 1e6;
    if (sleep_ms > 0) {
      (void)pacer.WaitForMs(sleep_ms);
    } else {
      // Running late (service time exceeds the interval): fire
      // immediately and re-anchor so lateness does not compound into
      // an unbounded burst.
      next_fire_nanos = clock->NowNanos();
    }
  }
}

obs::JsonValue RunLevel(const LoadgenConfig& config, double offered_qps,
                        int level_index) {
  const obs::Clock* clock = obs::MonotonicClock::Get();
  LevelStats stats;
  stats.id_prefix = "lg" + std::to_string(level_index) + "-";
  const double interval_ms =
      static_cast<double>(config.connections) / offered_qps * 1000.0;
  const CacheCounters cache_before = FetchCacheCounters(config);
  const Deadline deadline =
      Deadline::AfterMs(clock, static_cast<double>(config.duration_ms));
  const int64_t level_started = clock->NowNanos();

  std::vector<std::thread> workers;
  workers.reserve(config.connections);
  for (int w = 0; w < config.connections; ++w) {
    // Stagger starts so the pool approximates a uniform arrival
    // process instead of firing in lockstep bursts.
    const double offset_ms = 1000.0 / offered_qps * w;
    workers.emplace_back(RunWorker, std::cref(config), interval_ms,
                         offset_ms, deadline, &stats);
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed_seconds =
      static_cast<double>(clock->NowNanos() - level_started) / 1e9;
  const CacheCounters cache_after = FetchCacheCounters(config);

  const double achieved_qps =
      elapsed_seconds > 0
          ? static_cast<double>(stats.requests) / elapsed_seconds
          : 0.0;
  const double shed_rate =
      stats.requests > 0
          ? static_cast<double>(stats.shed) /
                static_cast<double>(stats.requests)
          : 0.0;
  // Hit rate from the daemon's own counters, so coalesced followers
  // and other clients' traffic do not skew the arithmetic.
  double hit_rate = 0.0;
  if (cache_before.ok && cache_after.ok) {
    const int64_t hits = cache_after.hits - cache_before.hits;
    const int64_t lookups =
        hits + (cache_after.misses - cache_before.misses);
    if (lookups > 0) {
      hit_rate = static_cast<double>(hits) / static_cast<double>(lookups);
    }
  }
  std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
  std::sort(stats.cold_latencies_ms.begin(), stats.cold_latencies_ms.end());
  std::sort(stats.hit_latencies_ms.begin(), stats.hit_latencies_ms.end());
  const double p50 = PercentileSorted(stats.latencies_ms, 0.50);
  const double p90 = PercentileSorted(stats.latencies_ms, 0.90);
  const double p99 = PercentileSorted(stats.latencies_ms, 0.99);
  const double p999 = PercentileSorted(stats.latencies_ms, 0.999);
  const double cold_p50 = PercentileSorted(stats.cold_latencies_ms, 0.50);
  const double hit_p50 = PercentileSorted(stats.hit_latencies_ms, 0.50);
  const LatencyCorrelation correlation =
      CorrelateWithRecorder(config, stats.client_by_id);

  std::printf(
      "%10.1f %10.1f %9lld %9lld %7lld %7lld %7lld %7lld %7lld %9.2f "
      "%9.2f %8.1f%%\n",
      offered_qps, achieved_qps, static_cast<long long>(stats.requests),
      static_cast<long long>(stats.results),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.errors),
      static_cast<long long>(stats.quota),
      static_cast<long long>(stats.aborted),
      static_cast<long long>(stats.dropped), p50, p99, hit_rate * 100.0);

  obs::JsonValue level = obs::JsonValue::Object();
  level.Set("offered_qps", obs::JsonValue::Double(offered_qps));
  level.Set("achieved_qps", obs::JsonValue::Double(achieved_qps));
  level.Set("requests", obs::JsonValue::Int(stats.requests));
  level.Set("results", obs::JsonValue::Int(stats.results));
  level.Set("shed", obs::JsonValue::Int(stats.shed));
  level.Set("errors", obs::JsonValue::Int(stats.errors));
  level.Set("quota", obs::JsonValue::Int(stats.quota));
  level.Set("aborted", obs::JsonValue::Int(stats.aborted));
  level.Set("dropped", obs::JsonValue::Int(stats.dropped));
  level.Set("shed_rate", obs::JsonValue::Double(shed_rate));
  level.Set("hit_rate", obs::JsonValue::Double(hit_rate));
  level.Set("p50_ms", obs::JsonValue::Double(p50));
  level.Set("p90_ms", obs::JsonValue::Double(p90));
  level.Set("p99_ms", obs::JsonValue::Double(p99));
  level.Set("p999_ms", obs::JsonValue::Double(p999));
  level.Set("cold_p50_ms", obs::JsonValue::Double(cold_p50));
  level.Set("hit_p50_ms", obs::JsonValue::Double(hit_p50));
  level.Set("corr_count", obs::JsonValue::Int(correlation.count));
  level.Set("corr_client_p50_ms",
            obs::JsonValue::Double(correlation.client_p50_ms));
  level.Set("corr_server_p50_ms",
            obs::JsonValue::Double(correlation.server_p50_ms));
  level.Set("corr_transport_delta_p50_ms",
            obs::JsonValue::Double(correlation.delta_p50_ms));
  return level;
}

[[nodiscard]] Status ParseConfig(const FlagParser& flags,
                                 LoadgenConfig* config) {
  config->socket_path = flags.GetString("socket", "");
  if (config->socket_path.empty()) {
    return Status::InvalidArgument("--socket is required");
  }
  config->dataset = flags.GetString("dataset", "");
  if (config->dataset.empty()) {
    return Status::InvalidArgument(
        "--dataset is required (a name the daemon loaded at startup)");
  }
  config->algorithm = flags.GetString("algorithm", config->algorithm);
  CORROB_ASSIGN_OR_RETURN(
      config->priority,
      server::ParsePriority(flags.GetString("priority", "batch")));
  CORROB_ASSIGN_OR_RETURN(config->duration_ms,
                          flags.TryGetInt("duration-ms", 2000));
  CORROB_ASSIGN_OR_RETURN(int64_t connections,
                          flags.TryGetInt("connections", 8));
  if (connections < 1) {
    return Status::InvalidArgument("--connections must be >= 1");
  }
  config->connections = static_cast<int>(connections);
  CORROB_ASSIGN_OR_RETURN(config->timeout_ms,
                          flags.TryGetInt("timeout-ms", 0));
  CORROB_ASSIGN_OR_RETURN(config->max_rounds,
                          flags.TryGetInt("max-rounds", 0));
  CORROB_ASSIGN_OR_RETURN(config->unique_keys,
                          flags.TryGetInt("unique-keys", 0));
  if (config->unique_keys < 0) {
    return Status::InvalidArgument("--unique-keys must be >= 0");
  }
  const std::string tenants_text = flags.GetString("tenants", "");
  if (!tenants_text.empty()) {
    size_t begin = 0;
    while (begin <= tenants_text.size()) {
      const size_t comma = tenants_text.find(',', begin);
      config->tenants.push_back(tenants_text.substr(
          begin,
          comma == std::string::npos ? std::string::npos : comma - begin));
      if (comma == std::string::npos) break;
      begin = comma + 1;
    }
  }
  config->json_path = flags.GetString("json", config->json_path);
  config->fail_on_dropped = flags.GetBool("fail-on-dropped", false);

  const std::string qps_text = flags.GetString("qps", "50,100,200");
  size_t begin = 0;
  while (begin <= qps_text.size()) {
    const size_t comma = qps_text.find(',', begin);
    const std::string part = qps_text.substr(
        begin, comma == std::string::npos ? std::string::npos : comma - begin);
    try {
      const double qps = std::stod(part);
      if (qps <= 0) throw std::invalid_argument("non-positive");
      config->qps_levels.push_back(qps);
    } catch (...) {
      return Status::InvalidArgument("--qps: '" + part +
                                     "' is not a positive number");
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return Status::OK();
}

int Run(int argc, char** argv) {
  Result<FlagParser> flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) {
    std::fprintf(stderr, "loadgen: %s\n",
                 flags.status().ToString().c_str());
    return 2;
  }
  LoadgenConfig config;
  if (Status parsed = ParseConfig(flags.ValueOrDie(), &config);
      !parsed.ok()) {
    std::fprintf(stderr, "loadgen: %s\n", parsed.ToString().c_str());
    return 2;
  }

  // Probe the daemon before unleashing the pool: a typo'd socket path
  // should be one clear error, not connections*levels of them.
  {
    Result<CorrobClient> probe = CorrobClient::Connect(config.socket_path);
    if (!probe.ok()) {
      std::fprintf(stderr, "loadgen: %s\n",
                   probe.status().ToString().c_str());
      return 1;
    }
    Result<std::string> pong =
        probe.ValueOrDie().Ping("loadgen", StopSignal());
    if (!pong.ok()) {
      std::fprintf(stderr, "loadgen: daemon did not answer a ping: %s\n",
                   pong.status().ToString().c_str());
      return 1;
    }
  }

  std::printf("%10s %10s %9s %9s %7s %7s %7s %7s %7s %9s %9s %9s\n",
              "offered", "achieved", "requests", "results", "shed",
              "errors", "quota", "aborted", "dropped", "p50_ms",
              "p99_ms", "hit%");
  obs::JsonValue levels = obs::JsonValue::Array();
  int64_t total_dropped = 0;
  int64_t total_responses = 0;
  for (size_t index = 0; index < config.qps_levels.size(); ++index) {
    const double qps = config.qps_levels[index];
    obs::JsonValue level = RunLevel(config, qps, static_cast<int>(index));
    total_dropped += level.Find("dropped")->int_value();
    total_responses += level.Find("results")->int_value() +
                       level.Find("shed")->int_value() +
                       level.Find("errors")->int_value() +
                       level.Find("quota")->int_value();
    levels.Append(std::move(level));
  }

  std::printf("\nloadgen: %lld typed response(s) received, %lld dropped\n",
              static_cast<long long>(total_responses),
              static_cast<long long>(total_dropped));

  if (config.json_path != "none" && !config.json_path.empty()) {
    obs::JsonValue root = obs::JsonValue::Object();
    root.Set("schema", obs::JsonValue::Str("corrob.serving_bench/3"));
    obs::JsonValue bench_config = obs::JsonValue::Object();
    bench_config.Set("socket", obs::JsonValue::Str(config.socket_path));
    bench_config.Set("dataset", obs::JsonValue::Str(config.dataset));
    bench_config.Set("algorithm", obs::JsonValue::Str(config.algorithm));
    bench_config.Set(
        "priority",
        obs::JsonValue::Str(std::string(server::PriorityName(config.priority))));
    bench_config.Set("connections", obs::JsonValue::Int(config.connections));
    bench_config.Set("duration_ms", obs::JsonValue::Int(config.duration_ms));
    bench_config.Set("unique_keys", obs::JsonValue::Int(config.unique_keys));
    obs::JsonValue tenants = obs::JsonValue::Array();
    for (const std::string& tenant : config.tenants) {
      tenants.Append(obs::JsonValue::Str(tenant));
    }
    bench_config.Set("tenants", std::move(tenants));
    root.Set("config", std::move(bench_config));
    root.Set("levels", std::move(levels));
    obs::JsonValue totals = obs::JsonValue::Object();
    totals.Set("responses_received", obs::JsonValue::Int(total_responses));
    totals.Set("dropped", obs::JsonValue::Int(total_dropped));
    root.Set("totals", std::move(totals));
    if (Status written =
            WriteStringToFile(config.json_path, root.Dump(2) + "\n");
        written.ok()) {
      std::printf("wrote %s\n", config.json_path.c_str());
    } else {
      std::fprintf(stderr, "loadgen: cannot write %s: %s\n",
                   config.json_path.c_str(), written.ToString().c_str());
      return 1;
    }
  }

  if (config.fail_on_dropped && total_dropped > 0) {
    std::fprintf(stderr,
                 "loadgen: %lld dropped response(s) — the daemon started "
                 "writing an answer the client never received\n",
                 static_cast<long long>(total_dropped));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace loadgen
}  // namespace corrob

int main(int argc, char** argv) { return corrob::loadgen::Run(argc, argv); }
