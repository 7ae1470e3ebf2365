#include "core/truth_finder.h"

#include <cmath>
#include <optional>

#include "common/math_util.h"
#include "core/vote_matrix.h"

namespace corrob {

Result<CorroborationResult> TruthFinderCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust <= 0.0 || options_.initial_trust >= 1.0) {
    return Status::InvalidArgument("initial_trust must be in (0,1)");
  }
  if (options_.dampening <= 0.0) {
    return Status::InvalidArgument("dampening must be positive");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const size_t sources = static_cast<size_t>(dataset.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> probability(facts, 0.5);
  auto step = [&](const FixpointSweeps& sweeps)
      -> std::optional<std::vector<double>> {
    const VoteMatrix& matrix = sweeps.matrix;
    // Claim scores and fact confidence, partitioned by fact.
    if (!sweeps.Facts([&](FactId f) {
          auto voters = matrix.FactSources(f);
          if (voters.empty()) {
            probability[static_cast<size_t>(f)] = 0.5;
            return;
          }
          auto votes = matrix.FactVotes(f);
          double score_true = 0.0;
          double score_false = 0.0;
          for (size_t k = 0; k < voters.size(); ++k) {
            const double tau = -std::log(
                Clamp(1.0 - trust[static_cast<size_t>(voters[k])],
                      options_.epsilon, 1.0));
            (votes[k] == Vote::kTrue ? score_true : score_false) += tau;
          }
          const double adjusted_true =
              score_true - options_.exclusion_weight * score_false;
          const double adjusted_false =
              score_false - options_.exclusion_weight * score_true;
          probability[static_cast<size_t>(f)] = Sigmoid(
              options_.dampening * (adjusted_true - adjusted_false));
        })) {
      return std::nullopt;
    }
    // Trust update. Each source reads only `probability` and writes
    // its own slot; a voteless source keeps its trust.
    std::vector<double> next_trust = trust;
    if (!sweeps.Sources([&](SourceId s) {
          auto voted = matrix.SourceFacts(s);
          if (voted.empty()) return;
          auto votes = matrix.SourceVotes(s);
          double sum = 0.0;
          for (size_t k = 0; k < voted.size(); ++k) {
            const double p = probability[static_cast<size_t>(voted[k])];
            sum += votes[k] == Vote::kTrue ? p : 1.0 - p;
          }
          next_trust[static_cast<size_t>(s)] =
              sum / static_cast<double>(voted.size());
        })) {
      return std::nullopt;
    }
    return next_trust;
  };
  return RunFixpoint({"TruthFinder::Run", name(), options_.max_iterations,
                      options_.tolerance, options_.num_threads,
                      options_.collect_telemetry},
                     dataset, context, &trust, &probability, step);
}

}  // namespace corrob
