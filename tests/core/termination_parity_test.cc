// Termination parity: interrupting a corroboration run after k
// completed iterations/rounds — whether through the
// cancel.at_iteration failpoint or a ResourceBudget round cap — must
// return exactly the state of an uninterrupted run truncated at k,
// bit for bit, at any thread count. Only the Termination reason may
// differ (docs/ROBUSTNESS.md, "Deadlines, cancellation, and
// budgets").

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/budget.h"
#include "common/failpoint.h"
#include "core/bayes_estimate.h"
#include "core/cosine.h"
#include "core/inc_estimate.h"
#include "core/pasternack.h"
#include "core/registry.h"
#include "core/run_context.h"
#include "core/three_estimate.h"
#include "core/truth_finder.h"
#include "core/two_estimate.h"
#include "obs/clock.h"
#include "testing/property.h"

namespace corrob {
namespace {

using proptest::ExpectBitIdenticalBestSoFar;
using proptest::ExpectBitIdenticalResults;
using proptest::ForEachSeed;
using proptest::MakeRandomDataset;

/// A fixpoint method whose natural truncation is max_iterations.
struct FixpointMethod {
  std::string name;
  /// Whether CorroboratorOptions-style num_threads applies.
  bool threaded;
  std::function<std::unique_ptr<Corroborator>(int max_iterations,
                                              int num_threads)>
      make;
};

std::vector<FixpointMethod> FixpointMethods() {
  std::vector<FixpointMethod> methods;
  methods.push_back(
      {"TwoEstimate", true,
       [](int cap, int threads) -> std::unique_ptr<Corroborator> {
         TwoEstimateOptions options;
         options.max_iterations = cap;
         options.num_threads = threads;
         return std::make_unique<TwoEstimateCorroborator>(options);
       }});
  methods.push_back(
      {"ThreeEstimate", true,
       [](int cap, int threads) -> std::unique_ptr<Corroborator> {
         ThreeEstimateOptions options;
         options.max_iterations = cap;
         options.num_threads = threads;
         return std::make_unique<ThreeEstimateCorroborator>(options);
       }});
  methods.push_back(
      {"Cosine", true,
       [](int cap, int threads) -> std::unique_ptr<Corroborator> {
         CosineOptions options;
         options.max_iterations = cap;
         options.num_threads = threads;
         return std::make_unique<CosineCorroborator>(options);
       }});
  methods.push_back(
      {"TruthFinder", true,
       [](int cap, int threads) -> std::unique_ptr<Corroborator> {
         TruthFinderOptions options;
         options.max_iterations = cap;
         options.num_threads = threads;
         return std::make_unique<TruthFinderCorroborator>(options);
       }});
  methods.push_back(
      {"AvgLog", false,
       [](int cap, int) -> std::unique_ptr<Corroborator> {
         PasternackOptions options;
         options.max_iterations = cap;
         return std::make_unique<PasternackCorroborator>(options);
       }});
  return methods;
}

/// Runs `method` with the cancel.at_iteration failpoint armed to fire
/// after exactly `k` completed iterations, then disarms.
CorroborationResult RunWithCancelAt(const Corroborator& method,
                                    const Dataset& dataset, int64_t k) {
  EXPECT_TRUE(Failpoints::ArmFromSpec("cancel.at_iteration=fail:1:skip=" +
                                      std::to_string(k))
                  .ok());
  CorroborationResult result = method.Run(dataset).ValueOrDie();
  Failpoints::DisarmAll();
  return result;
}

RunContext RoundBudget(int64_t max_rounds) {
  ResourceBudget budget;
  budget.max_rounds = max_rounds;
  RunContext context;
  context.WithBudget(budget);
  return context;
}

/// A clock that ticks once per read, so Deadline::After(&clock, m)
/// expires on exactly the m-th deadline poll after it is made — a
/// poll-exact deadline that can land inside any sweep chunk.
class PollCountingClock final : public obs::Clock {
 public:
  int64_t NowNanos() const override {
    return reads_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  int64_t reads() const { return reads_.load(std::memory_order_relaxed); }

 private:
  mutable std::atomic<int64_t> reads_{0};
};

/// Runs `method` under a deadline that never expires; stores the
/// number of deadline polls the run made in `*polls`.
CorroborationResult RunCountingPolls(const Corroborator& method,
                                     const Dataset& dataset,
                                     int64_t* polls) {
  PollCountingClock clock;
  RunContext context;
  context.WithDeadline(
      Deadline::After(&clock, std::numeric_limits<int64_t>::max() / 2));
  const int64_t before = clock.reads();
  CorroborationResult result = method.Run(dataset, context).ValueOrDie();
  *polls = clock.reads() - before;
  return result;
}

class TerminationParityTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DisarmAll(); }
};

TEST_F(TerminationParityTest, FixpointInterruptedAtKMatchesTruncatedRun) {
  for (const FixpointMethod& method : FixpointMethods()) {
    for (int threads : {1, 4}) {
      if (threads > 1 && !method.threaded) continue;
      SCOPED_TRACE(method.name + " threads=" + std::to_string(threads));
      ForEachSeed(0xB0D6E7, 6, [&](uint64_t seed) {
        Dataset dataset = MakeRandomDataset(seed);
        for (int64_t k : {1, 3}) {
          SCOPED_TRACE("k=" + std::to_string(k));
          auto truncated_method =
              method.make(static_cast<int>(k), threads);
          auto full_method = method.make(100, threads);
          CorroborationResult truncated =
              truncated_method->Run(dataset).ValueOrDie();
          CorroborationResult cancelled =
              RunWithCancelAt(*full_method, dataset, k);
          CorroborationResult budgeted =
              full_method->Run(dataset, RoundBudget(k)).ValueOrDie();
          ExpectBitIdenticalBestSoFar(truncated, cancelled);
          ExpectBitIdenticalBestSoFar(truncated, budgeted);
          if (truncated.termination == Termination::kIterationCap) {
            EXPECT_EQ(cancelled.termination, Termination::kCancelled);
            EXPECT_EQ(budgeted.termination,
                      Termination::kBudgetExhausted);
          } else {
            // The run converged before iteration k, so no
            // interruption fired in any arm.
            EXPECT_EQ(truncated.termination, Termination::kConverged);
            EXPECT_EQ(cancelled.termination, Termination::kConverged);
            EXPECT_EQ(budgeted.termination, Termination::kConverged);
          }
        }
      });
    }
  }
}

TEST_F(TerminationParityTest, FixpointDeadlineAtEveryPollRollsBack) {
  // A deadline that expires on the m-th poll, for every m an
  // uninterrupted run reaches: the boundary polls stop between
  // iterations, the chunk polls cut a sweep short and force the
  // rollback to the last completed iteration. Either way the result
  // must be bit-identical to a run capped at the iterations it
  // reports.
  for (const FixpointMethod& method : FixpointMethods()) {
    if (!method.threaded) continue;  // the four sweep-based methods
    for (int threads : {1, 4}) {
      SCOPED_TRACE(method.name + " threads=" + std::to_string(threads));
      auto full_method = method.make(100, threads);
      ForEachSeed(0xDEAD11, 1, [&](uint64_t seed) {
        Dataset dataset = MakeRandomDataset(seed);
        // Many polls share an iteration count; run each cap once.
        std::map<int, CorroborationResult> truncated;
        int64_t polls = 0;
        CorroborationResult uninterrupted =
            RunCountingPolls(*full_method, dataset, &polls);
        ASSERT_EQ(uninterrupted.termination, Termination::kConverged);
        ASSERT_GT(polls, 0);
        for (int64_t m = 1; m <= polls + 1; ++m) {
          SCOPED_TRACE("m=" + std::to_string(m) + " of " +
                       std::to_string(polls));
          PollCountingClock clock;
          RunContext context;
          context.WithDeadline(Deadline::After(&clock, m));
          CorroborationResult result =
              full_method->Run(dataset, context).ValueOrDie();
          EXPECT_EQ(result.termination, m <= polls
                                            ? Termination::kDeadlineExceeded
                                            : Termination::kConverged);
          if (result.iterations < 1) continue;
          auto [it, fresh] = truncated.try_emplace(result.iterations);
          if (fresh) {
            it->second = method.make(result.iterations, threads)
                             ->Run(dataset)
                             .ValueOrDie();
          }
          ExpectBitIdenticalBestSoFar(it->second, result);
        }
      });
    }
  }
}

TEST_F(TerminationParityTest,
       CancelledRunsAreBitIdenticalAcrossThreadCounts) {
  for (const FixpointMethod& method : FixpointMethods()) {
    if (!method.threaded) continue;
    SCOPED_TRACE(method.name);
    ForEachSeed(0xC4A11D, 6, [&](uint64_t seed) {
      Dataset dataset = MakeRandomDataset(seed);
      auto sequential = method.make(100, 1);
      auto parallel = method.make(100, 4);
      CorroborationResult a = RunWithCancelAt(*sequential, dataset, 2);
      CorroborationResult b = RunWithCancelAt(*parallel, dataset, 2);
      ExpectBitIdenticalResults(a, b);
    });
  }
}

TEST_F(TerminationParityTest, IncEstimateInterruptedAtRoundKProjects) {
  for (IncSelectStrategy strategy :
       {IncSelectStrategy::kHeuristic, IncSelectStrategy::kProbability}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string(strategy == IncSelectStrategy::kHeuristic
                                   ? "IncEstHeu"
                                   : "IncEstPS") +
                   " threads=" + std::to_string(threads));
      IncEstimateOptions options;
      options.strategy = strategy;
      options.num_threads = threads;
      options.record_trajectory = true;
      IncEstimateCorroborator method(options);
      ForEachSeed(0x1CE57, 6, [&](uint64_t seed) {
        Dataset dataset = MakeRandomDataset(seed);
        for (int64_t k : {1, 2}) {
          SCOPED_TRACE("k=" + std::to_string(k));
          CorroborationResult cancelled =
              RunWithCancelAt(method, dataset, k);
          CorroborationResult budgeted =
              method.Run(dataset, RoundBudget(k)).ValueOrDie();
          // "Cancel after round k" and "round budget of k" are the
          // same truncation point; both project the remaining facts
          // with the trust of the last completed round.
          ExpectBitIdenticalBestSoFar(cancelled, budgeted);
          if (cancelled.termination == Termination::kConverged) {
            EXPECT_EQ(budgeted.termination, Termination::kConverged);
          } else {
            EXPECT_EQ(cancelled.termination, Termination::kCancelled);
            EXPECT_EQ(budgeted.termination,
                      Termination::kBudgetExhausted);
          }
          // Graceful degradation: the interrupted result is still a
          // complete answer — every fact carries a commit round.
          ASSERT_EQ(cancelled.fact_commit_round.size(),
                    static_cast<size_t>(dataset.num_facts()));
          for (int32_t committed_round : cancelled.fact_commit_round) {
            EXPECT_GE(committed_round, 0);
          }
        }
      });
    }
  }
}

TEST_F(TerminationParityTest, BayesCancelledAtSweepMatchesRoundBudget) {
  BayesEstimateOptions options;
  options.iterations = 40;
  options.burn_in = 10;
  BayesEstimateCorroborator method(options);
  ForEachSeed(0xBA7E5, 4, [&](uint64_t seed) {
    Dataset dataset = MakeRandomDataset(seed);
    // k=1 and k=5 interrupt inside the burn-in (the fallback labels
    // path); k=25 interrupts with samples kept.
    for (int64_t k : {1, 5, 25}) {
      SCOPED_TRACE("k=" + std::to_string(k));
      CorroborationResult cancelled = RunWithCancelAt(method, dataset, k);
      CorroborationResult budgeted =
          method.Run(dataset, RoundBudget(k)).ValueOrDie();
      ExpectBitIdenticalBestSoFar(cancelled, budgeted);
      EXPECT_EQ(cancelled.termination, Termination::kCancelled);
      EXPECT_EQ(budgeted.termination, Termination::kBudgetExhausted);
      EXPECT_EQ(cancelled.iterations, k);
    }
  });
}

TEST_F(TerminationParityTest, VoteByteCapIsCheckedAgainstTheDataset) {
  // The four sweep-based methods read the Dataset's vote arrays, so
  // max_vote_matrix_bytes is enforced against Dataset::VoteBytes():
  // one byte under it stops the run before any iteration, exactly at
  // it the run is untouched.
  auto context_with_cap = [](int64_t cap) {
    ResourceBudget budget;
    budget.max_vote_matrix_bytes = cap;
    RunContext context;
    context.WithBudget(budget);
    return context;
  };
  for (const FixpointMethod& method : FixpointMethods()) {
    if (!method.threaded) continue;  // the four sweep-based methods
    SCOPED_TRACE(method.name);
    auto corroborator = method.make(100, 1);
    ForEachSeed(0xB17E5, 3, [&](uint64_t seed) {
      Dataset dataset = MakeRandomDataset(seed);
      const int64_t bytes = dataset.VoteBytes();
      ASSERT_GT(bytes, 1);

      CorroborationResult under =
          corroborator->Run(dataset, context_with_cap(bytes - 1))
              .ValueOrDie();
      EXPECT_EQ(under.termination, Termination::kBudgetExhausted);
      EXPECT_EQ(under.iterations, 0);

      CorroborationResult baseline = corroborator->Run(dataset).ValueOrDie();
      CorroborationResult at_cap =
          corroborator->Run(dataset, context_with_cap(bytes)).ValueOrDie();
      EXPECT_EQ(at_cap.termination, Termination::kConverged);
      ExpectBitIdenticalResults(baseline, at_cap);
    });
  }
}

TEST_F(TerminationParityTest, ArmedButIdleContextIsExactlyLegacy) {
  // A context with a live (never firing) token and a far-future
  // deadline must not perturb a single bit of any method's output:
  // the best-so-far machinery only engages when something fires.
  CancellationToken token;
  RunContext armed;
  armed.WithCancellation(&token);
  armed.WithDeadline(
      Deadline::AfterMs(obs::MonotonicClock::Get(), 1e9));
  for (const std::string& name :
       {std::string("Voting"), std::string("Counting"),
        std::string("TwoEstimate"), std::string("ThreeEstimate"),
        std::string("BayesEstimate"), std::string("IncEstHeu"),
        std::string("IncEstPS"), std::string("Cosine"),
        std::string("TruthFinder"), std::string("AvgLog"),
        std::string("Invest"), std::string("PooledInvest")}) {
    SCOPED_TRACE(name);
    auto method = MakeCorroborator(name).ValueOrDie();
    ForEachSeed(0x1D7E, 3, [&](uint64_t seed) {
      Dataset dataset = MakeRandomDataset(seed);
      CorroborationResult baseline = method->Run(dataset).ValueOrDie();
      CorroborationResult idle = method->Run(dataset, armed).ValueOrDie();
      ExpectBitIdenticalResults(baseline, idle);
    });
  }
}

}  // namespace
}  // namespace corrob
