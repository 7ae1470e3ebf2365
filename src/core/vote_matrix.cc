#include "core/vote_matrix.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "core/telemetry_util.h"
#include "obs/trace.h"

namespace corrob {

bool VoteMatrix::ForEachFact(ThreadPool* pool,
                             const std::function<void(FactId)>& fn,
                             const StopSignal* stop) const {
  return ParallelApply(
      pool, num_facts(),
      [&fn](int64_t begin, int64_t end) {
        for (int64_t f = begin; f < end; ++f) fn(static_cast<FactId>(f));
      },
      stop);
}

bool VoteMatrix::ForEachSource(ThreadPool* pool,
                               const std::function<void(SourceId)>& fn,
                               const StopSignal* stop) const {
  return ParallelApply(
      pool, num_sources(),
      [&fn](int64_t begin, int64_t end) {
        for (int64_t s = begin; s < end; ++s) fn(static_cast<SourceId>(s));
      },
      stop);
}

std::unique_ptr<ThreadPool> MakeSweepPool(int num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(num_threads);
}

Result<CorroborationResult> RunFixpoint(
    const FixpointLoop& loop, const Dataset& dataset,
    const RunContext& context, std::vector<double>* trust,
    std::vector<double>* estimate, const FixpointStep& step) {
  if (loop.max_iterations < 1) {
    return Status::InvalidArgument("max_iterations must be >= 1");
  }
  if (loop.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  CORROB_RETURN_NOT_OK(ValidateResourceBudget(context.budget()));

  obs::TraceSpan span(loop.span);
  const VoteMatrix matrix(dataset);
  std::unique_ptr<ThreadPool> pool = MakeSweepPool(loop.num_threads);
  auto telemetry =
      MaybeStartTelemetry(loop.collect_telemetry, loop.algorithm, dataset);
  const FixpointSweeps sweeps{matrix, pool.get(), context.sweep_stop()};
  std::vector<double> snapshot;

  Termination termination = Termination::kIterationCap;
  int iteration = 0;
  const auto over_budget = context.CheckMatrixBytes(dataset.VoteBytes());
  if (over_budget) termination = *over_budget;
  for (; !over_budget && iteration < loop.max_iterations; ++iteration) {
    if (auto interrupt = context.CheckIterationBoundary(iteration)) {
      termination = *interrupt;
      break;
    }
    if (sweeps.stop != nullptr) snapshot = *estimate;
    std::optional<std::vector<double>> next_trust = step(sweeps);
    if (!next_trust) {
      *estimate = std::move(snapshot);
      termination = context.SweepInterruption();
      break;
    }
    double delta = 0.0;
    for (size_t s = 0; s < trust->size(); ++s) {
      delta = std::max(delta, std::fabs((*next_trust)[s] - (*trust)[s]));
    }
    *trust = std::move(*next_trust);
    RecordIteration(telemetry.get(), iteration, delta, *trust);
    if (delta < loop.tolerance) {
      termination = Termination::kConverged;
      ++iteration;
      break;
    }
  }

  CorroborationResult result;
  result.algorithm = std::string(loop.algorithm);
  result.fact_probability = std::move(*estimate);
  result.source_trust = std::move(*trust);
  result.iterations = iteration;
  result.termination = termination;
  if (telemetry != nullptr) {
    telemetry->iterations = iteration;
    telemetry->converged = termination == Termination::kConverged;
    result.telemetry = std::move(telemetry);
  }
  return result;
}

}  // namespace corrob
