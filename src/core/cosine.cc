#include "core/cosine.h"

#include <cmath>
#include <optional>

#include "common/math_util.h"
#include "core/vote_matrix.h"

namespace corrob {

Result<CorroborationResult> CosineCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.damping < 0.0 || options_.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in [0,1)");
  }
  if (options_.trust_power <= 0.0) {
    return Status::InvalidArgument("trust_power must be positive");
  }
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const size_t sources = static_cast<size_t>(dataset.num_sources());
  std::vector<double> trust(sources, options_.initial_trust);
  std::vector<double> value(facts, 0.0);  // V(f) in [-1, 1].
  auto vote_sign = [](Vote vote) { return vote == Vote::kTrue ? 1.0 : -1.0; };
  auto step = [&](const FixpointSweeps& sweeps)
      -> std::optional<std::vector<double>> {
    const VoteMatrix& matrix = sweeps.matrix;
    // Truth update, weighted by T(s)^p (negative trust flips votes),
    // partitioned by fact.
    if (!sweeps.Facts([&](FactId f) {
          auto voters = matrix.FactSources(f);
          if (voters.empty()) {
            value[static_cast<size_t>(f)] = 0.0;
            return;
          }
          auto votes = matrix.FactVotes(f);
          double numerator = 0.0;
          double denominator = 0.0;
          for (size_t k = 0; k < voters.size(); ++k) {
            const double t = trust[static_cast<size_t>(voters[k])];
            const double w = std::copysign(
                std::pow(std::fabs(t), options_.trust_power), t);
            numerator += vote_sign(votes[k]) * w;
            denominator += std::fabs(w);
          }
          value[static_cast<size_t>(f)] =
              denominator > 0.0 ? Clamp(numerator / denominator, -1.0, 1.0)
                                : 0.0;
        })) {
      return std::nullopt;
    }
    // Trust update: damped cosine similarity between the source's
    // vote vector and the current estimates, partitioned by source.
    std::vector<double> next_trust = trust;
    if (!sweeps.Sources([&](SourceId s) {
          auto voted = matrix.SourceFacts(s);
          if (voted.empty()) return;
          auto votes = matrix.SourceVotes(s);
          double dot = 0.0;
          double value_norm_sq = 0.0;
          for (size_t k = 0; k < voted.size(); ++k) {
            const double v = value[static_cast<size_t>(voted[k])];
            dot += vote_sign(votes[k]) * v;
            value_norm_sq += v * v;
          }
          const double vote_norm =
              std::sqrt(static_cast<double>(voted.size()));
          const double value_norm = std::sqrt(value_norm_sq);
          const double cosine = (vote_norm > 0.0 && value_norm > 0.0)
                                    ? dot / (vote_norm * value_norm)
                                    : 0.0;
          next_trust[static_cast<size_t>(s)] =
              options_.damping * trust[static_cast<size_t>(s)] +
              (1.0 - options_.damping) * cosine;
        })) {
      return std::nullopt;
    }
    return next_trust;
  };
  CORROB_ASSIGN_OR_RETURN(
      CorroborationResult result,
      RunFixpoint({"Cosine::Run", name(), options_.max_iterations,
                   options_.tolerance, options_.num_threads,
                   options_.collect_telemetry},
                  dataset, context, &trust, &value, step));
  // Report V(f) and trust mapped into [0, 1] for comparability with
  // the other methods (a perfectly anti-correlated source reads 0).
  for (double& p : result.fact_probability) p = (p + 1.0) / 2.0;
  for (double& t : result.source_trust) t = (Clamp(t, -1.0, 1.0) + 1.0) / 2.0;
  return result;
}

}  // namespace corrob
