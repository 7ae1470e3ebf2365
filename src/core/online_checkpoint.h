#ifndef CORROB_CORE_ONLINE_CHECKPOINT_H_
#define CORROB_CORE_ONLINE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/retry.h"
#include "core/online.h"

namespace corrob {

/// Version of the snapshot wire format produced by this build, and
/// the only one ParseOnlineSnapshot accepts.
/// History:
///   v1 — options, facts_observed, per-source correct/total counters.
///        No longer readable.
///   v2 — appends the telemetry counters (decisions_true,
///        decisions_false, deferrals) so a resumed stream's running
///        stats stay continuous with the original run.
inline constexpr uint32_t kOnlineSnapshotVersion = 2;

/// Serializes the full state of `online` into the snapshot format:
///
///   magic "CORROBSN" | version u32 | payload_size u64
///   | payload | crc32(payload) u32            (all little-endian)
///
/// The payload stores the options, facts_observed, the exact
/// correct/total counters per source as raw IEEE-754 bits, and the
/// telemetry counters, so a restored corroborator continues the
/// trust trajectory bit-identical to one that never stopped.
std::string SerializeOnlineSnapshot(const OnlineCorroborator& online);

/// Decodes a snapshot. Distinct failures get distinct codes:
///  - ParseError: not a snapshot, truncated, trailing garbage, or
///    checksum mismatch (i.e. corruption);
///  - FailedPrecondition: a well-formed snapshot of any version other
///    than kOnlineSnapshotVersion;
///  - InvalidArgument: a checksummed payload with inconsistent state
///    (via OnlineCorroborator::FromState).
[[nodiscard]] Result<OnlineCorroborator> ParseOnlineSnapshot(std::string_view bytes);

/// Atomically writes the snapshot of `online` to `path` (temp file +
/// fsync + rename), retrying transient I/O failures under `policy`.
/// A crash mid-save leaves any previous snapshot at `path` intact.
/// Fault-injection site: "online_checkpoint.save".
[[nodiscard]] Status SaveOnlineSnapshot(const std::string& path,
                          const OnlineCorroborator& online,
                          const RetryPolicy& policy = DefaultIoRetryPolicy());

/// Reads and decodes the snapshot at `path`. A missing file is
/// NotFound; decode failures are as in ParseOnlineSnapshot.
/// Fault-injection site: "online_checkpoint.load".
[[nodiscard]] Result<OnlineCorroborator> LoadOnlineSnapshot(const std::string& path);

/// Where an interrupted `corrob stream` run with no --checkpoint saves
/// its state: "<base>.interrupt-<hex8>.snap", where base is
/// `output_path` when non-empty (else `input_path`, else "stream") and
/// the hex suffix is a CRC-32 over both paths. Deterministic per
/// (input, output) pair — the matching --resume finds it again — but
/// distinct for concurrent streams that share an input or an output
/// directory, so one run's interrupt can never clobber another's
/// checkpoint.
std::string DeriveInterruptCheckpointPath(std::string_view input_path,
                                          std::string_view output_path);

}  // namespace corrob

#endif  // CORROB_CORE_ONLINE_CHECKPOINT_H_
