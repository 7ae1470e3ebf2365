#ifndef CORROB_CORE_CORROBORATOR_H_
#define CORROB_CORE_CORROBORATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/run_context.h"
#include "data/dataset.h"
#include "obs/telemetry.h"

namespace corrob {

/// Decision threshold of paper Eq. 2: σ(f) >= 0.5 means true.
inline constexpr double kDecisionThreshold = 0.5;

/// One time point of an incremental run: the multi-value trust score
/// σ_i(S) in effect after round i, and how many facts round i
/// committed (Figure 2 plots these trajectories).
struct TrajectoryPoint {
  std::vector<double> trust;
  int64_t facts_committed = 0;
};

/// Output of a corroboration run: per-fact truth probabilities σ(f)
/// and per-source trust scores σ(s) (paper §3).
struct CorroborationResult {
  /// Name of the algorithm that produced the result.
  std::string algorithm;
  /// σ(f) for every fact, in fact-id order.
  std::vector<double> fact_probability;
  /// Final σ(s) for every source, in source-id order. For IncEstimate
  /// this is the trust at the last time point (trustworthiness over
  /// the whole dataset, §6.2.3).
  std::vector<double> source_trust;
  /// Iterations to convergence (fixpoint methods), Gibbs sweeps
  /// (BayesEstimate), or rounds/time points (IncEstimate).
  int iterations = 0;
  /// Round-by-round trust scores; non-empty only for IncEstimate.
  /// points[0] holds the initial trust at t0, before any evaluation.
  std::vector<TrajectoryPoint> trajectory;
  /// For incremental runs: the 0-based round at which each fact was
  /// committed (its t(f) of paper Definition 1). Empty for batch
  /// algorithms, which evaluate every fact with the same final state.
  std::vector<int32_t> fact_commit_round;
  /// Convergence telemetry, populated only when the run was configured
  /// with collect_telemetry. Deliberately clock-free: two runs with the
  /// same options and dataset produce byte-identical telemetry.
  std::shared_ptr<obs::RunTelemetry> telemetry;
  /// Why the run stopped. kConverged / kIterationCap are the natural
  /// outcomes; the early-termination reasons mean the RunContext cut
  /// the run short and the scores above are its best-so-far state —
  /// exactly the state after the last *completed* iteration or round.
  Termination termination = Termination::kConverged;

  /// Decision for fact f per Eq. 2.
  bool Decide(FactId f) const {
    return fact_probability[static_cast<size_t>(f)] >= kDecisionThreshold;
  }

  /// All decisions, in fact-id order.
  std::vector<bool> Decisions() const;
};

/// Interface of every truth-discovery algorithm in the library.
/// Implementations are immutable and thread-compatible: one instance
/// may run on several datasets concurrently.
class Corroborator {
 public:
  virtual ~Corroborator() = default;

  /// Stable algorithm name (e.g. "TwoEstimate", "IncEstHeu").
  virtual std::string_view name() const = 0;

  /// Corroborates `dataset` without any execution budget: never
  /// cancelled, never expires. Fails on malformed configuration;
  /// always succeeds on well-formed input, including empty datasets.
  [[nodiscard]] Result<CorroborationResult> Run(const Dataset& dataset) const {
    return Run(dataset, RunContext::Unbounded());
  }

  /// Corroborates `dataset` under `context`. Implementations poll the
  /// context at every sequential iteration/round boundary and, when
  /// it fires, stop gracefully: the result carries the termination
  /// reason and the scores of the last completed iteration (bit-
  /// identical, at any thread count, to an uninterrupted run
  /// truncated there). `context` must outlive the call.
  [[nodiscard]] virtual Result<CorroborationResult> Run(
      const Dataset& dataset, const RunContext& context) const = 0;
};

/// The corroboration score of paper Eq. 5, generalized to F votes:
/// the mean over voters of σ(s) for a T vote and 1-σ(s) for an F
/// vote. Facts with no votes score 0.5 (maximum uncertainty).
/// `votes` is any sized range of SourceVote: a Dataset row, or a
/// fact group's signature.
template <typename Votes = std::span<const SourceVote>>
double CorrobScore(const Votes& votes, const std::vector<double>& trust) {
  if (votes.empty()) return 0.5;
  double sum = 0.0;
  for (const SourceVote& sv : votes) {
    double t = trust[static_cast<size_t>(sv.source)];
    sum += sv.vote == Vote::kTrue ? t : 1.0 - t;
  }
  return sum / static_cast<double>(votes.size());
}

/// Trust of every source computed against fixed fact decisions: the
/// fraction of the source's votes that agree with the decisions
/// (sources with no votes get `no_vote_value`). This is both the
/// trust readout of the baseline methods and the Update step of
/// IncEstimate restricted to evaluated facts (paper Eq. 8).
std::vector<double> TrustAgainstDecisions(const Dataset& dataset,
                                          const std::vector<bool>& decisions,
                                          double no_vote_value);

}  // namespace corrob

#endif  // CORROB_CORE_CORROBORATOR_H_
