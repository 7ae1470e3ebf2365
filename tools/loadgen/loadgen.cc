// corrob-loadgen: paced load source for corrobd (docs/SERVING.md,
// "Load generation").
//
// Drives a running daemon at each offered QPS level in turn over N
// connections, and counts how every request ended. It measures no
// latency and does not guess cache outcomes: serving latency from the
// scheduled send is corrbench's serve-rw workload, and cache outcome
// is what the daemon did (`corrobctl status` cache.hits / cache.misses,
// and the flight recorder's per-request role).
//
// Pacing: each worker fires on a fixed schedule. A late worker fires
// at once and keeps the schedule; with one request in flight per
// connection the catch-up burst is bounded by --connections. The
// `achieved` column is the load actually issued against `offered`.
//
// Every request carries a client-generated id ("lg<level>-<seq>")
// that the daemon echoes back and keeps in its flight recorder.
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

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/budget.h"
#include "common/flags.h"
#include "common/result.h"
#include "common/status.h"
#include "common/string_util.h"
#include "obs/clock.h"
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
  /// Tenant ids requests round-robin over; empty = anonymous only.
  std::vector<std::string> tenants;
  /// Distinct cache keys to spread requests over (0 = one key).
  int64_t unique_keys = 0;
  bool fail_on_dropped = false;
};

/// How the requests of one offered-QPS level ended.
struct LevelCounts {
  int64_t requests = 0;
  int64_t results = 0;
  int64_t shed = 0;
  int64_t errors = 0;
  int64_t quota = 0;
  int64_t aborted = 0;
  int64_t dropped = 0;
};

/// State of one level shared by the worker pool.
struct LevelState {
  std::mutex mutex;
  /// Request-id prefix of this level ("lg<level>-").
  std::string id_prefix;
  /// Global request sequence: assigns tenants and synthetic keys.
  int64_t next_sequence = 0;
  LevelCounts counts;
};

/// One paced worker: issues requests at `interval_ms` spacing until
/// `deadline`, reconnecting after transport failures.
void RunWorker(const LoadgenConfig& config, double interval_ms,
               double start_offset_ms, Deadline deadline,
               LevelState* state) {
  const obs::Clock* clock = obs::MonotonicClock::Get();
  CancellationToken pacer;  // never cancelled; used as a sleeper
  (void)pacer.WaitForMs(start_offset_ms);

  CorroborateRequest request;
  request.priority = config.priority;
  request.dataset = config.dataset;
  request.algorithm = config.algorithm;

  Result<CorrobClient> client = CorrobClient::Connect(config.socket_path);
  int64_t next_fire_nanos = clock->NowNanos();
  while (!deadline.expired()) {
    if (!client.ok() || !client.ValueOrDie().connected()) {
      client = CorrobClient::Connect(config.socket_path);
      if (!client.ok()) break;  // daemon gone (e.g. drained away)
    }
    // Claim this request's slot in the level-wide sequence: tenant
    // round-robin and synthetic key.
    {
      std::lock_guard<std::mutex> lock(state->mutex);
      const int64_t sequence = state->next_sequence++;
      request.request_id = state->id_prefix + std::to_string(sequence);
      if (!config.tenants.empty()) {
        request.tenant = config.tenants[static_cast<size_t>(
            sequence % static_cast<int64_t>(config.tenants.size()))];
      }
      if (config.unique_keys > 0) {
        request.options = {
            {"lg_key", std::to_string(sequence % config.unique_keys)}};
      }
    }
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(request, StopSignal());

    {
      std::lock_guard<std::mutex> lock(state->mutex);
      LevelCounts& counts = state->counts;
      ++counts.requests;
      if (outcome.ok()) {
        switch (outcome.ValueOrDie().kind) {
          case CorroborateOutcome::Kind::kResult:
            ++counts.results;
            break;
          case CorroborateOutcome::Kind::kOverloaded:
            ++counts.shed;
            break;
          case CorroborateOutcome::Kind::kQuotaExceeded:
            ++counts.quota;
            break;
          case CorroborateOutcome::Kind::kError:
            ++counts.errors;
            break;
        }
      } else if (outcome.status().code() == StatusCode::kConnectionLost) {
        // A response was being written and the stream died under it.
        ++counts.dropped;
      } else {
        ++counts.aborted;
      }
    }
    if (!outcome.ok()) client.ValueOrDie().Close();  // force reconnect

    next_fire_nanos += static_cast<int64_t>(interval_ms * 1e6);
    const double sleep_ms =
        static_cast<double>(next_fire_nanos - clock->NowNanos()) / 1e6;
    if (sleep_ms > 0) (void)pacer.WaitForMs(sleep_ms);
  }
}

LevelCounts RunLevel(const LoadgenConfig& config, double offered_qps,
                     int level_index) {
  const obs::Clock* clock = obs::MonotonicClock::Get();
  LevelState state;
  state.id_prefix = "lg" + std::to_string(level_index) + "-";
  const double interval_ms =
      static_cast<double>(config.connections) / offered_qps * 1000.0;
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
                         offset_ms, deadline, &state);
  }
  for (std::thread& worker : workers) worker.join();
  const double elapsed_seconds =
      static_cast<double>(clock->NowNanos() - level_started) / 1e9;

  const LevelCounts& counts = state.counts;
  const double achieved_qps =
      elapsed_seconds > 0
          ? static_cast<double>(counts.requests) / elapsed_seconds
          : 0.0;
  std::printf("%10.1f %10.1f %9lld %9lld %7lld %7lld %7lld %7lld %7lld\n",
              offered_qps, achieved_qps,
              static_cast<long long>(counts.requests),
              static_cast<long long>(counts.results),
              static_cast<long long>(counts.shed),
              static_cast<long long>(counts.errors),
              static_cast<long long>(counts.quota),
              static_cast<long long>(counts.aborted),
              static_cast<long long>(counts.dropped));
  return counts;
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
  if (config->duration_ms < 1) {
    return Status::InvalidArgument("--duration-ms must be >= 1");
  }
  CORROB_ASSIGN_OR_RETURN(int64_t connections,
                          flags.TryGetInt("connections", 8));
  if (connections < 1) {
    return Status::InvalidArgument("--connections must be >= 1");
  }
  config->connections = static_cast<int>(connections);
  CORROB_ASSIGN_OR_RETURN(config->unique_keys,
                          flags.TryGetInt("unique-keys", 0));
  if (config->unique_keys < 0) {
    return Status::InvalidArgument("--unique-keys must be >= 0");
  }
  const std::string tenants_text = flags.GetString("tenants", "");
  if (!tenants_text.empty()) config->tenants = Split(tenants_text, ',');
  config->fail_on_dropped = flags.GetBool("fail-on-dropped", false);

  for (const std::string& part :
       Split(flags.GetString("qps", "50,100,200"), ',')) {
    char* end = nullptr;
    const double qps = std::strtod(part.c_str(), &end);
    if (part.empty() || end != part.c_str() + part.size() ||
        !std::isfinite(qps) || qps <= 0) {
      return Status::InvalidArgument("--qps: '" + part +
                                     "' is not a positive number");
    }
    config->qps_levels.push_back(qps);
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

  std::printf("%10s %10s %9s %9s %7s %7s %7s %7s %7s\n", "offered",
              "achieved", "requests", "results", "shed", "errors", "quota",
              "aborted", "dropped");
  int64_t total_dropped = 0;
  int64_t total_responses = 0;
  for (size_t index = 0; index < config.qps_levels.size(); ++index) {
    const LevelCounts counts = RunLevel(config, config.qps_levels[index],
                                        static_cast<int>(index));
    total_dropped += counts.dropped;
    total_responses +=
        counts.results + counts.shed + counts.errors + counts.quota;
  }

  std::printf("\nloadgen: %lld typed response(s) received, %lld dropped\n",
              static_cast<long long>(total_responses),
              static_cast<long long>(total_dropped));

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
