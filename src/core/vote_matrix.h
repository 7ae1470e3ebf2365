#ifndef CORROB_CORE_VOTE_MATRIX_H_
#define CORROB_CORE_VOTE_MATRIX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/corroborator.h"
#include "core/run_context.h"
#include "data/dataset.h"

namespace corrob {

/// Sweep helper for the iterative corroborators' hot loops (the
/// trust-propagation sweeps of TwoEstimate, ThreeEstimate, TruthFinder
/// and Cosine are sparse matrix-vector products over the Dataset's
/// CSR/CSC, driven by RunFixpoint below).
///
/// It owns nothing: construction is O(1) and allocates nothing, and
/// the Dataset must outlive it. Its spans are the very arrays behind
/// Dataset::VotesOnFact / VotesBySource, so a fold written against
/// either visits votes in the same order and gives bit-identical
/// floating-point results. Safe to read from any number of threads.
class VoteMatrix {
 public:
  explicit VoteMatrix(const Dataset& dataset) : dataset_(dataset) {}
  /// A temporary Dataset would dangle.
  explicit VoteMatrix(Dataset&&) = delete;

  int32_t num_facts() const { return dataset_.num_facts(); }
  int32_t num_sources() const { return dataset_.num_sources(); }

  /// Voters of fact `f`, ascending source id.
  std::span<const SourceId> FactSources(FactId f) const {
    return dataset_.VotesOnFact(f).ids();
  }
  /// Parallel to FactSources(f): each voter's kTrue / kFalse.
  std::span<const Vote> FactVotes(FactId f) const {
    return dataset_.VotesOnFact(f).votes();
  }

  /// Facts source `s` voted on, ascending fact id.
  std::span<const FactId> SourceFacts(SourceId s) const {
    return dataset_.VotesBySource(s).ids();
  }
  /// Parallel to SourceFacts(s): the source's kTrue / kFalse on each.
  std::span<const Vote> SourceVotes(SourceId s) const {
    return dataset_.VotesBySource(s).votes();
  }

  /// The Eq. 5 corroboration score of row `f` under `trust`: the mean
  /// over voters of σ(s) for a T vote and 1-σ(s) for an F vote, 0.5
  /// for a voteless fact. Bit-identical to CorrobScore() over the
  /// Dataset row (same summation order).
  double RowScore(FactId f, const std::vector<double>& trust) const {
    auto row = dataset_.VotesOnFact(f);
    if (row.empty()) return 0.5;
    auto sources = row.ids();
    auto votes = row.votes();
    double sum = 0.0;
    for (size_t k = 0; k < sources.size(); ++k) {
      const double t = trust[static_cast<size_t>(sources[k])];
      sum += votes[k] == Vote::kTrue ? t : 1.0 - t;
    }
    return sum / static_cast<double>(sources.size());
  }

  /// Parallel per-fact / per-source sweeps: runs fn(i) for every id,
  /// partitioned by output index across `pool` (inline when `pool` is
  /// null — the sequential path). `fn` must only write state owned by
  /// its index; each element is then computed exactly as in the
  /// sequential loop, so results are bit-identical at any thread
  /// count (see docs/PERFORMANCE.md).
  ///
  /// `stop` (optional) is polled at chunk boundaries; a fired signal
  /// skips the remaining chunks and the sweep returns false. The
  /// partial sweep's writes are then inconsistent — callers restore a
  /// snapshot before exposing any state (RunFixpoint's rollback).
  /// Returns true when the sweep covered every id.
  bool ForEachFact(ThreadPool* pool, const std::function<void(FactId)>& fn,
                   const StopSignal* stop = nullptr) const;
  bool ForEachSource(ThreadPool* pool,
                     const std::function<void(SourceId)>& fn,
                     const StopSignal* stop = nullptr) const;

 private:
  const Dataset& dataset_;
};

/// Worker pool for the iterative sweeps: null for num_threads <= 1
/// (the sequential legacy path), otherwise a pool with num_threads
/// workers, created once per Run() and reused across iterations.
std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads);

/// What one fixpoint step sweeps with: the vote matrix, the run's
/// worker pool, and its stop signal (null when nothing is armed).
struct FixpointSweeps {
  const VoteMatrix& matrix;
  ThreadPool* pool;
  const StopSignal* stop;

  bool Facts(const std::function<void(FactId)>& fn) const {
    return matrix.ForEachFact(pool, fn, stop);
  }
  bool Sources(const std::function<void(SourceId)>& fn) const {
    return matrix.ForEachSource(pool, fn, stop);
  }
};

/// The loop settings of one fixpoint run; every fixpoint method's
/// options carry the last four.
struct FixpointLoop {
  /// Trace span covering the run, e.g. "TwoEstimate::Run".
  const char* span;
  std::string_view algorithm;
  int max_iterations;
  double tolerance;
  int num_threads;
  bool collect_telemetry;
};

/// One iteration of a fixpoint method: runs its sweeps and returns
/// the next source trust, or nullopt when a sweep was cut short.
using FixpointStep = std::function<std::optional<std::vector<double>>(
    const FixpointSweeps& sweeps)>;

/// The two-step fixpoint that TwoEstimate, ThreeEstimate, TruthFinder
/// and Cosine share: each iteration's `step` re-estimates the facts
/// from `*trust` into `*estimate` and returns the re-estimated trust,
/// until the L∞ trust change falls below `loop.tolerance` or
/// `loop.max_iterations` pass.
///
/// RunFixpoint owns everything but the step: the max_iterations /
/// num_threads and budget checks, the vote-byte cap, the boundary
/// poll, telemetry, and the best-so-far rollback. When a stop signal
/// is armed, `*estimate` is snapshotted before each iteration and
/// restored when a sweep is cut short, so the result is always the
/// last completed iteration's; trust is replaced only after a complete
/// step, and any other per-step state ends with the run unread. On
/// success `*estimate` and `*trust` are moved into the result's
/// fact_probability and source_trust.
[[nodiscard]] Result<CorroborationResult> RunFixpoint(
    const FixpointLoop& loop, const Dataset& dataset,
    const RunContext& context, std::vector<double>* trust,
    std::vector<double>* estimate, const FixpointStep& step);

}  // namespace corrob

#endif  // CORROB_CORE_VOTE_MATRIX_H_
