#include "core/bayes_estimate.h"

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "core/telemetry_util.h"
#include "obs/trace.h"

namespace corrob {

namespace {

/// Per-source sufficient statistics: counts of (truth label, vote)
/// combinations over currently labeled facts.
struct SourceCounts {
  // n[t][o]: #facts with label t on which the source's vote is o
  // (o=1 for T, o=0 for F).
  double n[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
};

}  // namespace

Result<CorroborationResult> BayesEstimateCorroborator::Run(
    const Dataset& dataset, const RunContext& context) const {
  if (options_.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (options_.burn_in < 0 || options_.burn_in >= options_.iterations) {
    return Status::InvalidArgument("burn_in must be in [0, iterations)");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  CORROB_TRACE_SPAN("BayesEstimate::Run");
  const size_t facts = static_cast<size_t>(dataset.num_facts());
  const size_t sources = static_cast<size_t>(dataset.num_sources());
  Rng rng(options_.seed);
  auto telemetry =
      MaybeStartTelemetry(options_.collect_telemetry, name(), dataset);

  // Initialize labels by simple voting.
  std::vector<uint8_t> label(facts, 1);
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    int32_t t = dataset.CountVotes(f, Vote::kTrue);
    int32_t n = dataset.CountVotes(f, Vote::kFalse);
    label[static_cast<size_t>(f)] = t >= n ? 1 : 0;
  }

  std::vector<SourceCounts> counts(sources);
  double n_true = 0.0;
  for (FactId f = 0; f < dataset.num_facts(); ++f) {
    uint8_t t = label[static_cast<size_t>(f)];
    n_true += t;
    for (const SourceVote& sv : dataset.VotesOnFact(f)) {
      int o = sv.vote == Vote::kTrue ? 1 : 0;
      counts[static_cast<size_t>(sv.source)].n[t][o] += 1.0;
    }
  }
  double n_facts = static_cast<double>(facts);

  const BetaPrior& fp = options_.false_positive_prior;   // t=0 votes
  const BetaPrior& sens = options_.sensitivity_prior;    // t=1 votes
  const BetaPrior& prior = options_.truth_prior;

  std::vector<double> truth_sum(facts, 0.0);
  int samples_kept = 0;

  // The Gibbs chain is sequential, so the only interruption points
  // are sweep boundaries: an interrupted run keeps every completed
  // sweep's samples and is bit-identical to a run configured with
  // that many iterations.
  Termination termination = Termination::kConverged;
  int completed_sweeps = 0;
  for (int sweep = 0; sweep < options_.iterations; ++sweep) {
    if (auto interrupt = context.CheckIterationBoundary(sweep)) {
      termination = *interrupt;
      break;
    }
    int64_t flips = 0;
    for (FactId f = 0; f < dataset.num_facts(); ++f) {
      size_t fi = static_cast<size_t>(f);
      auto votes = dataset.VotesOnFact(f);
      uint8_t old_label = label[fi];

      // Remove f from the sufficient statistics.
      n_true -= old_label;
      for (const SourceVote& sv : votes) {
        int o = sv.vote == Vote::kTrue ? 1 : 0;
        counts[static_cast<size_t>(sv.source)].n[old_label][o] -= 1.0;
      }

      // Collapsed conditional: Beta-Bernoulli predictive per source.
      double log_p1 = std::log(prior.alpha + n_true);
      double log_p0 = std::log(prior.beta + (n_facts - 1.0 - n_true));
      for (const SourceVote& sv : votes) {
        const SourceCounts& sc = counts[static_cast<size_t>(sv.source)];
        int o = sv.vote == Vote::kTrue ? 1 : 0;
        // t = 1: vote modeled by sensitivity prior.
        double a1 = sens.alpha + sc.n[1][1];
        double b1 = sens.beta + sc.n[1][0];
        log_p1 += std::log(o == 1 ? a1 : b1) - std::log(a1 + b1);
        // t = 0: vote modeled by false-positive prior.
        double a0 = fp.alpha + sc.n[0][1];
        double b0 = fp.beta + sc.n[0][0];
        log_p0 += std::log(o == 1 ? a0 : b0) - std::log(a0 + b0);
      }

      double max_log = std::max(log_p1, log_p0);
      double p1 = std::exp(log_p1 - max_log);
      double p0 = std::exp(log_p0 - max_log);
      uint8_t new_label = rng.Bernoulli(p1 / (p1 + p0)) ? 1 : 0;

      if (new_label != old_label) ++flips;
      label[fi] = new_label;
      n_true += new_label;
      for (const SourceVote& sv : votes) {
        int o = sv.vote == Vote::kTrue ? 1 : 0;
        counts[static_cast<size_t>(sv.source)].n[new_label][o] += 1.0;
      }
    }
    if (sweep >= options_.burn_in) {
      for (size_t fi = 0; fi < facts; ++fi) truth_sum[fi] += label[fi];
      ++samples_kept;
    }
    if (telemetry != nullptr) {
      // "Delta" for a Gibbs sweep is the fraction of labels that
      // flipped; the trust distribution is each source's agreement
      // with the current labels, read off the sufficient statistics.
      std::vector<double> agreement(sources, 0.0);
      for (size_t s = 0; s < sources; ++s) {
        const SourceCounts& sc = counts[s];
        double total =
            sc.n[0][0] + sc.n[0][1] + sc.n[1][0] + sc.n[1][1];
        agreement[s] =
            total > 0.0 ? (sc.n[1][1] + sc.n[0][0]) / total : 0.0;
      }
      RecordIteration(telemetry.get(), sweep,
                      facts > 0
                          ? static_cast<double>(flips) /
                                static_cast<double>(facts)
                          : 0.0,
                      agreement);
    }
    completed_sweeps = sweep + 1;
  }

  CorroborationResult result;
  result.algorithm = std::string(name());
  result.fact_probability.resize(facts);
  CORROB_CHECK(samples_kept > 0 || TerminatedEarly(termination));
  if (samples_kept > 0) {
    for (size_t fi = 0; fi < facts; ++fi) {
      result.fact_probability[fi] =
          truth_sum[fi] / static_cast<double>(samples_kept);
    }
  } else {
    // Interrupted inside burn-in, before any kept sample: the best
    // available state is the chain's current labels.
    for (size_t fi = 0; fi < facts; ++fi) {
      result.fact_probability[fi] = label[fi] != 0 ? 1.0 : 0.0;
    }
  }
  // Report source trust as precision against the decided labels.
  result.source_trust =
      TrustAgainstDecisions(dataset, result.Decisions(), /*no_vote_value=*/0.0);
  result.iterations = completed_sweeps;
  result.termination = termination;
  if (telemetry != nullptr) {
    telemetry->iterations = completed_sweeps;
    // A sampler has no fixpoint; "converged" records that the
    // completed sweeps left at least one kept sample.
    telemetry->converged = samples_kept > 0;
    result.telemetry = std::move(telemetry);
  }
  return result;
}

}  // namespace corrob
