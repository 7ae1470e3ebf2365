#ifndef CORROB_CORE_TELEMETRY_UTIL_H_
#define CORROB_CORE_TELEMETRY_UTIL_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "obs/telemetry.h"

namespace corrob {

/// Starts a telemetry record for one corroboration run, or returns
/// null when telemetry is off — callers guard each recording site with
/// a plain null check so the disabled path costs one branch.
inline std::shared_ptr<obs::RunTelemetry> MaybeStartTelemetry(
    bool enabled, std::string_view algorithm, const Dataset& dataset) {
  if (!enabled) return nullptr;
  auto telemetry = std::make_shared<obs::RunTelemetry>();
  telemetry->algorithm = std::string(algorithm);
  telemetry->num_facts = static_cast<int64_t>(dataset.num_facts());
  telemetry->num_sources = static_cast<int64_t>(dataset.num_sources());
  return telemetry;
}

/// Appends one fixpoint-iteration (or Gibbs-sweep) record: the L∞
/// trust delta plus the min/mean/max of the trust distribution after
/// the iteration.
inline void RecordIteration(obs::RunTelemetry* telemetry, int32_t iteration,
                            double max_delta,
                            const std::vector<double>& trust) {
  if (telemetry == nullptr) return;
  obs::IterationStats stats;
  stats.iteration = iteration;
  stats.max_delta = max_delta;
  obs::TrustDistribution(trust, &stats.trust_min, &stats.trust_mean,
                         &stats.trust_max);
  telemetry->iteration_stats.push_back(stats);
}

}  // namespace corrob

#endif  // CORROB_CORE_TELEMETRY_UTIL_H_
