#ifndef CORROB_CORE_VOTE_MATRIX_H_
#define CORROB_CORE_VOTE_MATRIX_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.h"
#include "data/dataset.h"

namespace corrob {

/// Sweep helper for the iterative corroborators' hot loops (the
/// trust-propagation sweeps of TwoEstimate, ThreeEstimate, TruthFinder
/// and Cosine are sparse matrix-vector products over the Dataset's
/// CSR/CSC).
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
  /// snapshot before exposing any state (see the iterative
  /// corroborators' best-so-far handling). Returns true when the
  /// sweep covered every id.
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

}  // namespace corrob

#endif  // CORROB_CORE_VOTE_MATRIX_H_
