#include "core/two_estimate.h"

#include <algorithm>
#include <optional>

#include "core/vote_matrix.h"

namespace corrob {

void NormalizeEstimates(Normalization scheme, std::vector<double>* values) {
  switch (scheme) {
    case Normalization::kNone:
      return;
    case Normalization::kRound:
      for (double& v : *values) v = v >= 0.5 ? 1.0 : 0.0;
      return;
    case Normalization::kLinear: {
      if (values->empty()) return;
      auto [lo_it, hi_it] = std::minmax_element(values->begin(), values->end());
      double lo = *lo_it, hi = *hi_it;
      if (hi - lo < 1e-12) return;  // Degenerate span: leave unchanged.
      for (double& v : *values) v = (v - lo) / (hi - lo);
      return;
    }
  }
}

Result<CorroborationResult> TwoEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.initial_trust < 0.0 || options_.initial_trust > 1.0) {
    return Status::InvalidArgument("initial_trust must be in [0,1]");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const size_t sources = static_cast<size_t>(dataset.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> probability(facts, 0.5);
  auto step = [&](const FixpointSweeps& sweeps)
      -> std::optional<std::vector<double>> {
    const VoteMatrix& matrix = sweeps.matrix;
    // Corrob step (paper Eq. 6): each fact's score depends only on
    // the previous iteration's trust, so the sweep partitions by
    // fact.
    if (!sweeps.Facts([&](FactId f) {
          probability[static_cast<size_t>(f)] = matrix.RowScore(f, trust);
        })) {
      return std::nullopt;
    }
    NormalizeEstimates(options_.normalization, &probability);
    // Update step (paper Eq. 7), partitioned by source.
    std::vector<double> next_trust(sources, options_.initial_trust);
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
  return RunFixpoint({"TwoEstimate::Run", name(), options_.max_iterations,
                      options_.tolerance, options_.num_threads,
                      options_.collect_telemetry},
                     dataset, context, &trust, &probability, step);
}

}  // namespace corrob
