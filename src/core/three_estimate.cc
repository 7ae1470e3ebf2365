#include "core/three_estimate.h"

#include <optional>

#include "common/math_util.h"
#include "core/vote_matrix.h"

namespace corrob {

Result<CorroborationResult> ThreeEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  if (options_.initial_difficulty < 0.0 || options_.initial_difficulty > 1.0) {
    return Status::InvalidArgument("initial_difficulty must be in [0,1]");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const size_t sources = static_cast<size_t>(dataset.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> difficulty(facts, options_.initial_difficulty);
  std::vector<double> probability(facts, 0.5);
  const double delta_smooth = options_.smoothing;
  auto step = [&](const FixpointSweeps& sweeps)
      -> std::optional<std::vector<double>> {
    const VoteMatrix& matrix = sweeps.matrix;
    // Corrob step with difficulty-discounted correctness. Each fact
    // reads only the previous trust and its own difficulty.
    if (!sweeps.Facts([&](FactId f) {
          auto voters = matrix.FactSources(f);
          if (voters.empty()) {
            probability[static_cast<size_t>(f)] = 0.5;
            return;
          }
          auto votes = matrix.FactVotes(f);
          const double eps = difficulty[static_cast<size_t>(f)];
          double sum = 0.0;
          for (size_t k = 0; k < voters.size(); ++k) {
            const double correct =
                1.0 - eps * (1.0 - trust[static_cast<size_t>(voters[k])]);
            sum += votes[k] == Vote::kTrue ? correct : 1.0 - correct;
          }
          probability[static_cast<size_t>(f)] =
              sum / static_cast<double>(voters.size());
        })) {
      return std::nullopt;
    }
    NormalizeEstimates(options_.normalization, &probability);
    // Difficulty update: how much disagreement the decisions leave,
    // attributed to the voters' residual untrustworthiness.
    std::vector<double> next_difficulty(facts, options_.initial_difficulty);
    if (!sweeps.Facts([&](FactId f) {
          auto voters = matrix.FactSources(f);
          if (voters.empty()) return;
          auto votes = matrix.FactVotes(f);
          const bool decision = probability[static_cast<size_t>(f)] >= 0.5;
          double wrong = 0.0;
          double capacity = 0.0;
          for (size_t k = 0; k < voters.size(); ++k) {
            if ((votes[k] == Vote::kTrue) != decision) wrong += 1.0;
            capacity += 1.0 - trust[static_cast<size_t>(voters[k])];
          }
          next_difficulty[static_cast<size_t>(f)] =
              Clamp((wrong + delta_smooth / 2.0) / (capacity + delta_smooth),
                    0.0, 1.0);
        })) {
      return std::nullopt;
    }
    difficulty = std::move(next_difficulty);
    // Trust update: wrong votes discounted by fact difficulty.
    std::vector<double> next_trust(sources, options_.initial_trust);
    if (!sweeps.Sources([&](SourceId s) {
          auto voted = matrix.SourceFacts(s);
          if (voted.empty()) return;
          auto votes = matrix.SourceVotes(s);
          double wrong = 0.0;
          double capacity = 0.0;
          for (size_t k = 0; k < voted.size(); ++k) {
            const bool decision =
                probability[static_cast<size_t>(voted[k])] >= 0.5;
            if ((votes[k] == Vote::kTrue) != decision) wrong += 1.0;
            capacity += difficulty[static_cast<size_t>(voted[k])];
          }
          next_trust[static_cast<size_t>(s)] =
              Clamp(1.0 - (wrong + delta_smooth / 2.0) /
                              (capacity + delta_smooth),
                    0.0, 1.0);
        })) {
      return std::nullopt;
    }
    return next_trust;
  };
  return RunFixpoint({"ThreeEstimate::Run", name(), options_.max_iterations,
                      options_.tolerance, options_.num_threads,
                      options_.collect_telemetry},
                     dataset, context, &trust, &probability, step);
}

}  // namespace corrob
