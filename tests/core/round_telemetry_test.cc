// IncEstimate's per-round record: the IncRoundEvent stream that
// collect_telemetry attaches to the result, one event per time point.

#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/budget.h"
#include "core/inc_estimate.h"
#include "core/run_context.h"
#include "data/motivating_example.h"

namespace corrob {
namespace {

CorroborationResult RunWithTelemetry(IncEstimateOptions options,
                                     const RunContext& context = {}) {
  MotivatingExample example = MakeMotivatingExample();
  options.collect_telemetry = true;
  CorroborationResult result = IncEstimateCorroborator(options)
                                   .Run(example.dataset, context)
                                   .ValueOrDie();
  EXPECT_NE(result.telemetry, nullptr);
  return result;
}

TEST(RoundTelemetryTest, RecordsEveryRoundInOrder) {
  CorroborationResult result = RunWithTelemetry({});
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;

  ASSERT_EQ(static_cast<int>(rounds.size()), result.iterations);
  int64_t committed = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int>(i) + 1);
    EXPECT_GT(rounds[i].facts_committed, 0);
    committed += rounds[i].facts_committed;
  }
  EXPECT_EQ(committed, 12);
  // The run ends with the terminal wholesale commit of the leftover
  // side/ties, never with a balanced round.
  const std::string& last = rounds.back().kind;
  EXPECT_TRUE(last == "final_ties" || last == "one_sided_positive" ||
              last == "one_sided_negative")
      << last;
}

TEST(RoundTelemetryTest, BalancedRoundsCarryGroupIds) {
  CorroborationResult result = RunWithTelemetry({});
  int balanced = 0;
  for (const obs::IncRoundEvent& event : result.telemetry->rounds) {
    if (event.kind != "balanced") continue;
    ++balanced;
    EXPECT_GE(event.positive_group, 0);
    EXPECT_GE(event.negative_group, 0);
    EXPECT_NE(event.positive_group, event.negative_group);
  }
  EXPECT_GT(balanced, 0);
}

TEST(RoundTelemetryTest, GreedyRoundsForIncEstPS) {
  IncEstimateOptions options;
  options.strategy = IncSelectStrategy::kProbability;
  CorroborationResult result = RunWithTelemetry(options);
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;
  EXPECT_EQ(static_cast<int>(rounds.size()), result.iterations);
  for (const obs::IncRoundEvent& event : rounds) {
    EXPECT_EQ(event.kind, "greedy");
    EXPECT_EQ(event.negative_group, -1);
  }
}

struct PinnedRound {
  const char* kind;
  int32_t positive_group;
  int32_t negative_group;
  int64_t committed_n;
  int64_t facts_committed;
};

// IncEstHeu on Table 1 with the default options, round by round.
// Group ids index BuildFactGroups' order over the motivating example.
constexpr PinnedRound kMotivatingHeuRounds[] = {
    {"balanced", 4, 9, 1, 2},
    {"balanced", 7, 5, 1, 2},
    {"one_sided_positive", 2, -1, 1, 1},
    {"one_sided_positive", 0, -1, 1, 1},
    {"one_sided_positive", 8, -1, 1, 1},
    {"one_sided_positive", 3, -1, 2, 2},
    {"one_sided_positive", 6, -1, 2, 2},
    {"one_sided_positive", 1, -1, 1, 1},
};

TEST(RoundTelemetryTest, MotivatingExampleRoundSequenceIsPinned) {
  CorroborationResult result = RunWithTelemetry({});
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;
  ASSERT_EQ(rounds.size(), std::size(kMotivatingHeuRounds));
  for (size_t i = 0; i < rounds.size(); ++i) {
    const PinnedRound& want = kMotivatingHeuRounds[i];
    SCOPED_TRACE("round " + std::to_string(i + 1));
    EXPECT_EQ(rounds[i].round, static_cast<int>(i) + 1);
    EXPECT_EQ(rounds[i].kind, want.kind);
    EXPECT_EQ(rounds[i].positive_group, want.positive_group);
    EXPECT_EQ(rounds[i].negative_group, want.negative_group);
    EXPECT_EQ(rounds[i].committed_n, want.committed_n);
    EXPECT_EQ(rounds[i].facts_committed, want.facts_committed);
  }
}

TEST(RoundTelemetryTest, RoundCapEndsInOneInterruptedRound) {
  ResourceBudget budget;
  budget.max_rounds = 2;
  RunContext context;
  context.WithBudget(budget);
  CorroborationResult result = RunWithTelemetry({}, context);
  EXPECT_EQ(result.termination, Termination::kBudgetExhausted);
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;
  ASSERT_EQ(rounds.size(), 3u);
  ASSERT_EQ(static_cast<int>(rounds.size()), result.iterations);

  int64_t selected = 0;
  for (size_t i = 0; i + 1 < rounds.size(); ++i) {
    EXPECT_NE(rounds[i].kind, "interrupted");
    selected += rounds[i].facts_committed;
  }
  // The tail commits every fact the selection rounds left behind.
  const obs::IncRoundEvent& tail = rounds.back();
  EXPECT_EQ(tail.kind, "interrupted");
  EXPECT_EQ(tail.round, 3);
  EXPECT_EQ(tail.positive_group, -1);
  EXPECT_EQ(tail.negative_group, -1);
  EXPECT_EQ(tail.facts_committed, 12 - selected);
  EXPECT_EQ(tail.committed_n, tail.facts_committed);
  EXPECT_FALSE(result.telemetry->converged);
}

TEST(RoundTelemetryTest, KnownLabelsOpenWithSupervisedRoundZero) {
  IncEstimateOptions options;
  options.known_labels = {{3, false}, {9, false}};  // r4, r10
  CorroborationResult result = RunWithTelemetry(options);
  const std::vector<obs::IncRoundEvent>& rounds = result.telemetry->rounds;
  ASSERT_GE(rounds.size(), 2u);
  EXPECT_EQ(static_cast<int>(rounds.size()), result.iterations);

  const obs::IncRoundEvent& t0 = rounds.front();
  EXPECT_EQ(t0.round, 0);
  EXPECT_EQ(t0.kind, "supervised");
  EXPECT_EQ(t0.positive_group, -1);
  EXPECT_EQ(t0.negative_group, -1);
  EXPECT_EQ(t0.committed_n, 2);
  EXPECT_EQ(t0.facts_committed, 2);
  int64_t committed = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, static_cast<int>(i));
    if (i > 0) {
      EXPECT_NE(rounds[i].kind, "supervised");
    }
    committed += rounds[i].facts_committed;
  }
  EXPECT_EQ(committed, 12);
}

}  // namespace
}  // namespace corrob
