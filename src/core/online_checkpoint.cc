#include "core/online_checkpoint.h"

#include <cstdio>
#include <cstring>

#include "common/crc32.h"
#include "common/csv.h"
#include "common/failpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace corrob {

namespace {

constexpr char kMagic[8] = {'C', 'O', 'R', 'R', 'O', 'B', 'S', 'N'};
constexpr size_t kMagicSize = sizeof(kMagic);
// magic + version + payload_size.
constexpr size_t kHeaderSize = kMagicSize + 4 + 8;

void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

void AppendF64(std::string* out, double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  AppendU64(out, bits);
}

// Bounds check shared by every Reader::Read*; expands inside
// Result-returning member functions only.
#define CORROB_RETURN_IF_SHORT(n)                                     \
  do {                                                                \
    if (remaining() < (n))                                            \
      return Status::ParseError("snapshot payload truncated");        \
  } while (false)

/// Sequential little-endian reader over the payload; every read is
/// bounds-checked so truncation surfaces as ParseError, never UB.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  size_t remaining() const { return bytes_.size() - pos_; }

  Result<uint32_t> ReadU32() {
    CORROB_RETURN_IF_SHORT(4);
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(
                   static_cast<uint8_t>(bytes_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 4;
    return value;
  }

  Result<uint64_t> ReadU64() {
    CORROB_RETURN_IF_SHORT(8);
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(
                   static_cast<uint8_t>(bytes_[pos_ + i]))
               << (8 * i);
    }
    pos_ += 8;
    return value;
  }

  Result<double> ReadF64() {
    CORROB_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof(value));
    return value;
  }

  Result<std::string> ReadString(size_t length) {
    CORROB_RETURN_IF_SHORT(length);
    std::string value(bytes_.substr(pos_, length));
    pos_ += length;
    return value;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

#undef CORROB_RETURN_IF_SHORT

}  // namespace

std::string SerializeOnlineSnapshot(const OnlineCorroborator& online) {
  OnlineCorroboratorState state = online.ExportState();

  std::string payload;
  AppendF64(&payload, state.options.initial_trust);
  AppendF64(&payload, state.options.trust_prior_weight);
  AppendF64(&payload, state.options.tie_margin);
  AppendU64(&payload, static_cast<uint64_t>(state.facts_observed));
  AppendU32(&payload, static_cast<uint32_t>(state.source_names.size()));
  for (size_t s = 0; s < state.source_names.size(); ++s) {
    AppendU32(&payload,
              static_cast<uint32_t>(state.source_names[s].size()));
    payload += state.source_names[s];
    AppendF64(&payload, state.correct[s]);
    AppendF64(&payload, state.total[s]);
  }
  // v2 telemetry section.
  AppendU64(&payload, static_cast<uint64_t>(state.decisions_true));
  AppendU64(&payload, static_cast<uint64_t>(state.decisions_false));
  AppendU64(&payload, static_cast<uint64_t>(state.deferrals));

  std::string out;
  out.reserve(kHeaderSize + payload.size() + 4);
  out.append(kMagic, kMagicSize);
  AppendU32(&out, kOnlineSnapshotVersion);
  AppendU64(&out, payload.size());
  out += payload;
  AppendU32(&out, ComputeCrc32(payload));
  return out;
}

Result<OnlineCorroborator> ParseOnlineSnapshot(std::string_view bytes) {
  if (bytes.size() < kHeaderSize ||
      bytes.substr(0, kMagicSize) != std::string_view(kMagic, kMagicSize)) {
    return Status::ParseError(
        "not an online-corroborator snapshot (bad magic)");
  }
  Reader header(bytes.substr(kMagicSize));
  CORROB_ASSIGN_OR_RETURN(uint32_t version, header.ReadU32());
  if (version > kOnlineSnapshotVersion) {
    // A checkpoint from a future build: refuse loudly instead of
    // misreading fields this build does not know about.
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) +
        " is newer than this build supports (max version " +
        std::to_string(kOnlineSnapshotVersion) +
        "); load it with the corrob build that wrote it, or restart "
        "the stream without --resume");
  }
  if (version < kOnlineSnapshotVersion) {
    return Status::FailedPrecondition(
        "snapshot version " + std::to_string(version) +
        " is older than this build supports (version " +
        std::to_string(kOnlineSnapshotVersion) +
        " only); restart the stream without --resume");
  }
  CORROB_ASSIGN_OR_RETURN(uint64_t payload_size, header.ReadU64());
  if (bytes.size() != kHeaderSize + payload_size + 4) {
    return Status::ParseError(
        "snapshot truncated or oversized: header claims " +
        std::to_string(payload_size) + " payload bytes, file has " +
        std::to_string(bytes.size()) + " total");
  }
  std::string_view payload = bytes.substr(kHeaderSize, payload_size);
  Reader footer(bytes.substr(kHeaderSize + payload_size));
  CORROB_ASSIGN_OR_RETURN(uint32_t stored_crc, footer.ReadU32());
  uint32_t actual_crc = ComputeCrc32(payload);
  if (stored_crc != actual_crc) {
    return Status::ParseError("snapshot checksum mismatch: stored " +
                              std::to_string(stored_crc) + ", computed " +
                              std::to_string(actual_crc));
  }

  Reader reader(payload);
  OnlineCorroboratorState state;
  CORROB_ASSIGN_OR_RETURN(state.options.initial_trust, reader.ReadF64());
  CORROB_ASSIGN_OR_RETURN(state.options.trust_prior_weight,
                          reader.ReadF64());
  CORROB_ASSIGN_OR_RETURN(state.options.tie_margin, reader.ReadF64());
  CORROB_ASSIGN_OR_RETURN(uint64_t facts_observed, reader.ReadU64());
  state.facts_observed = static_cast<int64_t>(facts_observed);
  CORROB_ASSIGN_OR_RETURN(uint32_t num_sources, reader.ReadU32());
  state.source_names.reserve(num_sources);
  state.correct.reserve(num_sources);
  state.total.reserve(num_sources);
  for (uint32_t s = 0; s < num_sources; ++s) {
    CORROB_ASSIGN_OR_RETURN(uint32_t name_length, reader.ReadU32());
    CORROB_ASSIGN_OR_RETURN(std::string name,
                            reader.ReadString(name_length));
    state.source_names.push_back(std::move(name));
    CORROB_ASSIGN_OR_RETURN(double correct, reader.ReadF64());
    CORROB_ASSIGN_OR_RETURN(double total, reader.ReadF64());
    state.correct.push_back(correct);
    state.total.push_back(total);
  }
  CORROB_ASSIGN_OR_RETURN(uint64_t decisions_true, reader.ReadU64());
  CORROB_ASSIGN_OR_RETURN(uint64_t decisions_false, reader.ReadU64());
  CORROB_ASSIGN_OR_RETURN(uint64_t deferrals, reader.ReadU64());
  state.decisions_true = static_cast<int64_t>(decisions_true);
  state.decisions_false = static_cast<int64_t>(decisions_false);
  state.deferrals = static_cast<int64_t>(deferrals);
  if (reader.remaining() != 0) {
    return Status::ParseError("snapshot payload has " +
                              std::to_string(reader.remaining()) +
                              " trailing bytes");
  }
  return OnlineCorroborator::FromState(std::move(state));
}

Status SaveOnlineSnapshot(const std::string& path,
                          const OnlineCorroborator& online,
                          const RetryPolicy& policy) {
  CORROB_TRACE_SPAN("OnlineCheckpoint::Save");
  CORROB_FAILPOINT("online_checkpoint.save");
  std::string snapshot = SerializeOnlineSnapshot(online);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("corrob.checkpoint.saves")->Add(1);
  metrics.GetHistogram("corrob.checkpoint.snapshot_bytes")
      ->Record(static_cast<int64_t>(snapshot.size()));
  return Retry(policy, [&] { return WriteFileAtomic(path, snapshot); });
}

Result<OnlineCorroborator> LoadOnlineSnapshot(const std::string& path) {
  CORROB_TRACE_SPAN("OnlineCheckpoint::Load");
  CORROB_FAILPOINT("online_checkpoint.load");
  obs::MetricsRegistry::Global()
      .GetCounter("corrob.checkpoint.loads")
      ->Add(1);
  CORROB_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  auto parsed = ParseOnlineSnapshot(bytes);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  parsed.status().message() + " (in " + path + ")");
  }
  return parsed;
}

std::string DeriveInterruptCheckpointPath(std::string_view input_path,
                                          std::string_view output_path) {
  std::string_view base =
      !output_path.empty() ? output_path
                           : (!input_path.empty()
                                  ? input_path
                                  : std::string_view("stream"));
  // Hash both paths (with a separator no path can contain) so streams
  // that share an output stem but read different inputs — or vice
  // versa — still land on distinct checkpoint files.
  Crc32 crc;
  crc.Update(input_path);
  crc.Update(std::string_view("\n", 1));
  crc.Update(output_path);
  // ".interrupt-" (11) + 8 hex digits + ".snap" (5) + NUL = 25 bytes;
  // a 24-byte buffer silently dropped the trailing 'p'.
  char suffix[32];
  std::snprintf(suffix, sizeof(suffix), ".interrupt-%08x.snap",
                crc.Digest());
  return std::string(base) + suffix;
}

}  // namespace corrob
