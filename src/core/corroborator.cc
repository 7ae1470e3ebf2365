#include "core/corroborator.h"

namespace corrob {

std::vector<bool> CorroborationResult::Decisions() const {
  std::vector<bool> out(fact_probability.size());
  for (size_t f = 0; f < fact_probability.size(); ++f) {
    out[f] = fact_probability[f] >= kDecisionThreshold;
  }
  return out;
}

std::vector<double> TrustAgainstDecisions(const Dataset& dataset,
                                          const std::vector<bool>& decisions,
                                          double no_vote_value) {
  std::vector<double> trust(static_cast<size_t>(dataset.num_sources()),
                            no_vote_value);
  for (SourceId s = 0; s < dataset.num_sources(); ++s) {
    auto votes = dataset.VotesBySource(s);
    if (votes.empty()) continue;
    int64_t correct = 0;
    for (const FactVote& fv : votes) {
      bool voted_true = fv.vote == Vote::kTrue;
      if (voted_true == decisions[static_cast<size_t>(fv.fact)]) ++correct;
    }
    trust[static_cast<size_t>(s)] =
        static_cast<double>(correct) / static_cast<double>(votes.size());
  }
  return trust;
}

}  // namespace corrob
