#include "core/run_context.h"

#include "common/failpoint.h"
#include "obs/metrics.h"

namespace corrob {

std::string_view TerminationName(Termination termination) {
  switch (termination) {
    case Termination::kConverged:
      return "converged";
    case Termination::kIterationCap:
      return "iteration_cap";
    case Termination::kDeadlineExceeded:
      return "deadline_exceeded";
    case Termination::kCancelled:
      return "cancelled";
    case Termination::kBudgetExhausted:
      return "budget_exhausted";
  }
  return "unknown";
}

bool TerminatedEarly(Termination termination) {
  return termination != Termination::kConverged &&
         termination != Termination::kIterationCap;
}

const RunContext& RunContext::Unbounded() {
  static const RunContext context;
  return context;
}

namespace {

// Counter pointers are stable for the registry's lifetime; resolve
// once so the boundary poll stays allocation- and lookup-free.
void RecordInterruption(Termination reason) {
  static obs::Counter* deadline = obs::MetricsRegistry::Global().GetCounter(
      "corrob.budget.interrupts.deadline_exceeded");
  static obs::Counter* cancelled = obs::MetricsRegistry::Global().GetCounter(
      "corrob.budget.interrupts.cancelled");
  static obs::Counter* budget = obs::MetricsRegistry::Global().GetCounter(
      "corrob.budget.interrupts.budget_exhausted");
  switch (reason) {
    case Termination::kDeadlineExceeded:
      deadline->Add(1);
      break;
    case Termination::kCancelled:
      cancelled->Add(1);
      break;
    case Termination::kBudgetExhausted:
      budget->Add(1);
      break;
    default:
      break;
  }
}

}  // namespace

std::optional<Termination> RunContext::CheckIterationBoundary(
    int64_t completed_iterations) const {
  // Failpoints first: they simulate expiry/cancellation in tests and
  // must fire at the same boundary regardless of real elapsed time.
  if (Failpoints::AnyArmed()) {
    if (!Failpoints::Check("budget.force_expire").ok()) {
      RecordInterruption(Termination::kDeadlineExceeded);
      return Termination::kDeadlineExceeded;
    }
    if (!Failpoints::Check("cancel.at_iteration").ok()) {
      RecordInterruption(Termination::kCancelled);
      return Termination::kCancelled;
    }
  }
  if (stop_.cancelled()) {
    RecordInterruption(Termination::kCancelled);
    return Termination::kCancelled;
  }
  if (!stop_.deadline().infinite()) {
    const int64_t headroom = stop_.deadline().remaining_nanos();
    static obs::Gauge* headroom_gauge = obs::MetricsRegistry::Global().GetGauge(
        "corrob.budget.deadline_headroom_ns");
    headroom_gauge->Set(headroom);
    if (headroom <= 0) {
      RecordInterruption(Termination::kDeadlineExceeded);
      return Termination::kDeadlineExceeded;
    }
  }
  if (budget_.max_rounds > 0 && completed_iterations >= budget_.max_rounds) {
    RecordInterruption(Termination::kBudgetExhausted);
    return Termination::kBudgetExhausted;
  }
  return std::nullopt;
}

Termination RunContext::SweepInterruption() const {
  const Termination reason = stop_.cancelled() ? Termination::kCancelled
                                               : Termination::kDeadlineExceeded;
  RecordInterruption(reason);
  return reason;
}

std::optional<Termination> RunContext::CheckMatrixBytes(
    int64_t vote_bytes) const {
  if (budget_.max_vote_matrix_bytes > 0 &&
      vote_bytes > budget_.max_vote_matrix_bytes) {
    RecordInterruption(Termination::kBudgetExhausted);
    return Termination::kBudgetExhausted;
  }
  return std::nullopt;
}

}  // namespace corrob
