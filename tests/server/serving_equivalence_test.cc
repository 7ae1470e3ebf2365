#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "common/failpoint.h"
#include "common/status.h"
#include "data/dataset_io.h"
#include "data/motivating_example.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "testing/temp_dir.h"

// The serving-equivalence harness: every path corrobd can answer a
// corroborate request through — a cold run, a result-cache hit, a
// coalesced follower, a promoted follower, a batch item — must
// produce byte-identical response frames, at 1 and at 4 run threads,
// under armed failpoints and across a drain. This suite is the
// contract that makes the serving-efficiency layer invisible to
// clients: turning the cache or coalescer on can change latency,
// never bytes.
//
// Determinism discipline matches server_test.cc: in-flight control
// comes from the server.request.stall failpoint and counter polling,
// never from sleeps standing in for ordering.

namespace corrob {
namespace server {
namespace {

StopSignal NoStop() { return StopSignal(); }

template <typename Predicate>
bool EventuallyTrue(Predicate predicate) {
  CancellationToken pacer;
  for (int i = 0; i < 400; ++i) {
    if (predicate()) return true;
    // lint: discard-ok: plain sleep; the token is never cancelled
    (void)pacer.WaitForMs(5.0);
  }
  return predicate();
}

/// A corrobd on its own socket with Serve() on a background thread
/// (same shape as server_test.cc's Daemon).
class Daemon {
 public:
  explicit Daemon(ServerOptions options) : options_(std::move(options)) {}

  ~Daemon() {
    drain_.Cancel();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] Status Launch() {
    server_ = std::make_unique<CorrobdServer>(options_);
    CORROB_RETURN_NOT_OK(server_->Start());
    thread_ = std::thread([this] { serve_status_ = server_->Serve(&drain_); });
    return Status::OK();
  }

  Status Drain() {
    drain_.Cancel();
    if (thread_.joinable()) thread_.join();
    return serve_status_;
  }

  CorrobdServer& server() { return *server_; }
  CancellationToken& drain_token() { return drain_; }

 private:
  ServerOptions options_;
  std::unique_ptr<CorrobdServer> server_;
  CancellationToken drain_;
  std::thread thread_;
  Status serve_status_;
};

/// Parameterized on run_threads: every equivalence must hold with a
/// single-threaded corroborator and with intra-run parallelism.
class ServingEquivalenceTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    const std::string stem = testutil::TestTempPath("equiv");
    csv_path_ = stem + ".csv";
    socket_path_ = stem + ".sock";
    const MotivatingExample example = MakeMotivatingExample();
    ASSERT_TRUE(SaveDatasetCsv(csv_path_, example.dataset).ok());
  }

  void TearDown() override { Failpoints::DisarmAll(); }

  ServerOptions BaseOptions(const std::string& socket_suffix = "") const {
    ServerOptions options;
    options.socket_path = socket_path_ + socket_suffix;
    options.dataset_specs = {"table1=" + csv_path_};
    options.run_threads = GetParam();
    options.drain_timeout_ms = 10000;
    return options;
  }

  static CorroborateRequest BaseRequest() {
    CorroborateRequest request;
    request.dataset = "table1";
    request.algorithm = "IncEstHeu";
    return request;
  }

  /// One complete request against a throwaway daemon: the reference
  /// cold-run bytes everything else is compared to.
  std::string FreshDaemonFrame(const CorroborateRequest& request) {
    Daemon daemon(BaseOptions(".fresh"));
    EXPECT_TRUE(daemon.Launch().ok());
    Result<CorrobClient> client =
        CorrobClient::Connect(socket_path_ + ".fresh");
    EXPECT_TRUE(client.ok());
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(request, NoStop());
    EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    return outcome.ValueOrDie().raw_frame;
  }

  std::string csv_path_;
  std::string socket_path_;
};

TEST_P(ServingEquivalenceTest, ColdCachedBatchLeaderAndFollowerAgree) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  // Cold run: the reference bytes.
  Result<CorroborateOutcome> cold =
      client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  ASSERT_EQ(cold.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  const std::string reference = cold.ValueOrDie().raw_frame;
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(daemon.server().cache().stats().misses, 1);
  EXPECT_EQ(daemon.server().cache().stats().insertions, 1);

  // Cache hit: same request, replayed bytes.
  Result<CorroborateOutcome> cached =
      client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
  ASSERT_TRUE(cached.ok());
  ASSERT_EQ(cached.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(cached.ValueOrDie().raw_frame, reference);
  EXPECT_EQ(daemon.server().cache().stats().hits, 1);

  // Batch items: each item's standalone framing equals the reference.
  BatchRequest batch;
  batch.items.resize(2);
  for (BatchItem& item : batch.items) item.dataset = "table1";
  Result<std::vector<CorroborateOutcome>> items =
      client.ValueOrDie().BatchCorroborate(batch, NoStop());
  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items.ValueOrDie().size(), 2u);
  for (const CorroborateOutcome& item : items.ValueOrDie()) {
    ASSERT_EQ(item.kind, CorroborateOutcome::Kind::kResult);
    EXPECT_EQ(item.raw_frame, reference);
  }

  // Leader + coalesced followers. Options change the cache key but
  // never the corroboration, so this key is cold while the expected
  // bytes stay `reference`. The stall failpoint holds the leader
  // in-flight until every follower has attached.
  CorroborateRequest coalesced = BaseRequest();
  coalesced.options = {{"lane", "coalesce"}};
  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorroborateOutcome> leader = Status::Internal("not yet run");
  std::thread leader_thread([&] {
    leader = client.ValueOrDie().Corroborate(coalesced, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() >= 1; }));

  constexpr int kFollowers = 3;
  std::vector<Result<CorroborateOutcome>> followers(
      kFollowers, Status::Internal("not yet run"));
  std::vector<std::thread> follower_threads;
  follower_threads.reserve(kFollowers);
  std::vector<CorrobClient> follower_clients;
  for (int i = 0; i < kFollowers; ++i) {
    Result<CorrobClient> follower_client =
        CorrobClient::Connect(socket_path_);
    ASSERT_TRUE(follower_client.ok());
    follower_clients.push_back(std::move(follower_client.ValueOrDie()));
  }
  for (int i = 0; i < kFollowers; ++i) {
    follower_threads.emplace_back([&, i] {
      followers[i] = follower_clients[i].Corroborate(coalesced, NoStop());
    });
  }
  ASSERT_TRUE(EventuallyTrue([&] {
    return daemon.server().coalescer().stats().followers >= kFollowers;
  }));
  Failpoints::DisarmAll();
  leader_thread.join();
  for (std::thread& thread : follower_threads) thread.join();

  ASSERT_TRUE(leader.ok()) << leader.status().ToString();
  ASSERT_EQ(leader.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(leader.ValueOrDie().raw_frame, reference);
  for (int i = 0; i < kFollowers; ++i) {
    ASSERT_TRUE(followers[i].ok()) << followers[i].status().ToString();
    ASSERT_EQ(followers[i].ValueOrDie().kind,
              CorroborateOutcome::Kind::kResult);
    EXPECT_EQ(followers[i].ValueOrDie().raw_frame, reference)
        << "follower " << i;
  }
  EXPECT_GE(daemon.server().coalescer().stats().shared, kFollowers);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_P(ServingEquivalenceTest, DrainedMidFlightRequestMatchesFreshDaemon) {
  // A request already executing when SIGTERM-style drain arrives must
  // finish and answer with exactly the bytes an undisturbed daemon
  // produces — now with the cache and coalescer in the path.
  const std::string reference = FreshDaemonFrame(BaseRequest());
  ASSERT_FALSE(reference.empty());

  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  Result<CorroborateOutcome> outcome = Status::Internal("not yet run");
  std::thread in_flight([&] {
    outcome = client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));

  daemon.drain_token().Cancel();
  Failpoints::DisarmAll();
  in_flight.join();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(outcome.ValueOrDie().raw_frame, reference);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_P(ServingEquivalenceTest, BatchStalledMidFlightMatchesFreshDaemon) {
  // The batch path under an armed failpoint: the first item stalls
  // in-flight, the second runs after the disarm (as a cache hit of
  // the first). Both must equal the fresh-daemon bytes.
  const std::string reference = FreshDaemonFrame(BaseRequest());

  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  Failpoints::Arm("server.request.stall",
                  {.code = StatusCode::kInternal, .message = "stall"});
  BatchRequest batch;
  batch.items.resize(2);
  for (BatchItem& item : batch.items) item.dataset = "table1";
  Result<std::vector<CorroborateOutcome>> items =
      Status::Internal("not yet run");
  std::thread in_flight([&] {
    items = client.ValueOrDie().BatchCorroborate(batch, NoStop());
  });
  ASSERT_TRUE(EventuallyTrue(
      [&] { return daemon.server().admission().running() == 1; }));
  Failpoints::DisarmAll();
  in_flight.join();

  ASSERT_TRUE(items.ok()) << items.status().ToString();
  ASSERT_EQ(items.ValueOrDie().size(), 2u);
  for (const CorroborateOutcome& item : items.ValueOrDie()) {
    ASSERT_EQ(item.kind, CorroborateOutcome::Kind::kResult);
    EXPECT_EQ(item.raw_frame, reference);
  }
  EXPECT_GE(daemon.server().cache().stats().hits, 1);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_P(ServingEquivalenceTest, ReloadInvalidatesAndRerunsEquivalently) {
  Daemon daemon(BaseOptions());
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());

  Result<CorroborateOutcome> before =
      client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  ASSERT_EQ(daemon.server().cache().stats().insertions, 1);

  // Reload the same file: the data is unchanged, but the generation
  // bump must orphan the cached entry all the same.
  ReloadRequest reload;
  reload.dataset = "table1";
  Result<ReloadResponse> reloaded =
      client.ValueOrDie().Reload(reload, NoStop());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded.ValueOrDie().datasets_reloaded, 1u);
  EXPECT_EQ(reloaded.ValueOrDie().generation, 2u);
  EXPECT_EQ(daemon.server().cache().stats().invalidations, 1);
  EXPECT_EQ(daemon.server().cache().stats().entries, 0);

  // The stale key re-runs cold — and, the data being identical, the
  // rerun's bytes equal the original's.
  Result<CorroborateOutcome> after =
      client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
  EXPECT_EQ(after.ValueOrDie().raw_frame, before.ValueOrDie().raw_frame);
  EXPECT_EQ(daemon.server().cache().stats().misses, 2);
  EXPECT_EQ(daemon.server().cache().stats().insertions, 2);
  EXPECT_TRUE(daemon.Drain().ok());
}

TEST_P(ServingEquivalenceTest, DisabledCacheStillAnswersIdentically) {
  // The whole layer must be transparent when switched off: capacity 0
  // serves every request cold with the same bytes.
  const std::string reference = FreshDaemonFrame(BaseRequest());

  ServerOptions options = BaseOptions();
  options.cache.capacity_entries = 0;
  Daemon daemon(options);
  ASSERT_TRUE(daemon.Launch().ok());
  Result<CorrobClient> client = CorrobClient::Connect(socket_path_);
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 2; ++i) {
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(BaseRequest(), NoStop());
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    EXPECT_EQ(outcome.ValueOrDie().raw_frame, reference) << "request " << i;
  }
  EXPECT_EQ(daemon.server().cache().stats().hits, 0);
  EXPECT_TRUE(daemon.Drain().ok());
}

INSTANTIATE_TEST_SUITE_P(RunThreads, ServingEquivalenceTest,
                         ::testing::Values(1, 4));

/// Cross-thread-count equivalence: the bytes must not depend on the
/// corroborator's intra-run parallelism either. (Not parameterized —
/// this is the comparison *between* the parameter values.)
TEST(ServingEquivalenceCrossThreadTest, OneAndFourThreadsAgreeByteForByte) {
  const std::string stem = testutil::TestTempPath("equiv_cross");
  const MotivatingExample example = MakeMotivatingExample();
  ASSERT_TRUE(SaveDatasetCsv(stem + ".csv", example.dataset).ok());

  std::string frames[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ServerOptions options;
    options.socket_path = stem + std::to_string(threads[i]) + ".sock";
    options.dataset_specs = {"table1=" + stem + ".csv"};
    options.run_threads = threads[i];
    Daemon daemon(options);
    ASSERT_TRUE(daemon.Launch().ok());
    Result<CorrobClient> client =
        CorrobClient::Connect(options.socket_path);
    ASSERT_TRUE(client.ok());
    CorroborateRequest request;
    request.dataset = "table1";
    Result<CorroborateOutcome> outcome =
        client.ValueOrDie().Corroborate(request, NoStop());
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ASSERT_EQ(outcome.ValueOrDie().kind, CorroborateOutcome::Kind::kResult);
    frames[i] = outcome.ValueOrDie().raw_frame;
    EXPECT_TRUE(daemon.Drain().ok());
  }
  EXPECT_EQ(frames[0], frames[1]);
}

}  // namespace
}  // namespace server
}  // namespace corrob
