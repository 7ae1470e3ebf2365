// Validation coverage for the IncEstimate option surface added in
// DESIGN.md §3.1, and for the loop limits every fixpoint method
// shares.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cosine.h"
#include "core/inc_estimate.h"
#include "core/three_estimate.h"
#include "core/truth_finder.h"
#include "core/two_estimate.h"

namespace corrob {
namespace {

Dataset Empty() { return DatasetBuilder().Build(); }

TEST(IncOptionsValidationTest, RejectsNegativePriorWeight) {
  IncEstimateOptions bad;
  bad.trust_prior_weight = -1.0;
  EXPECT_EQ(IncEstimateCorroborator(bad).Run(Empty()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncOptionsValidationTest, RejectsBadTieMargin) {
  IncEstimateOptions bad;
  bad.tie_margin = -0.01;
  EXPECT_EQ(IncEstimateCorroborator(bad).Run(Empty()).status().code(),
            StatusCode::kInvalidArgument);
  bad.tie_margin = 0.5;
  EXPECT_EQ(IncEstimateCorroborator(bad).Run(Empty()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncOptionsValidationTest, RejectsNegativeExtremeBand) {
  IncEstimateOptions bad;
  bad.extreme_band = -0.1;
  EXPECT_EQ(IncEstimateCorroborator(bad).Run(Empty()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncOptionsValidationTest, BoundaryValuesAccepted) {
  IncEstimateOptions edge;
  edge.trust_prior_weight = 0.0;
  edge.tie_margin = 0.0;
  edge.extreme_band = 0.0;
  EXPECT_TRUE(IncEstimateCorroborator(edge).Run(Empty()).ok());
  edge.tie_margin = 0.49;
  edge.extreme_band = 1.0;
  EXPECT_TRUE(IncEstimateCorroborator(edge).Run(Empty()).ok());
}

/// Builds one fixpoint method with the given loop limits.
struct FixpointFactory {
  std::string name;
  std::function<std::unique_ptr<Corroborator>(int max_iterations,
                                              int num_threads)>
      make;
};

template <typename Method, typename Options>
FixpointFactory Factory(std::string name) {
  return {std::move(name), [](int max_iterations, int num_threads) {
            Options options;
            options.max_iterations = max_iterations;
            options.num_threads = num_threads;
            return std::make_unique<Method>(options);
          }};
}

TEST(FixpointOptionsValidationTest, RejectsZeroIterationsAndZeroThreads) {
  const std::vector<FixpointFactory> methods = {
      Factory<TwoEstimateCorroborator, TwoEstimateOptions>("TwoEstimate"),
      Factory<ThreeEstimateCorroborator, ThreeEstimateOptions>(
          "ThreeEstimate"),
      Factory<TruthFinderCorroborator, TruthFinderOptions>("TruthFinder"),
      Factory<CosineCorroborator, CosineOptions>("Cosine"),
  };
  struct Case {
    int max_iterations;
    int num_threads;
    std::string option;
  };
  for (const FixpointFactory& method : methods) {
    for (const Case& c : {Case{0, 1, "max_iterations"},
                          Case{100, 0, "num_threads"}}) {
      SCOPED_TRACE(method.name + " " + c.option);
      const Status status =
          method.make(c.max_iterations, c.num_threads)->Run(Empty()).status();
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find(c.option), std::string::npos)
          << status.ToString();
    }
    EXPECT_TRUE(method.make(1, 1)->Run(Empty()).ok()) << method.name;
  }
}

}  // namespace
}  // namespace corrob
