#include "server/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"

namespace corrob {
namespace server {

namespace {

// ---------------------------------------------------------------
// Little-endian payload writer/reader with bounds-checked reads.
// ---------------------------------------------------------------

void PutU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

/// A fresh payload: the version byte every encoder starts with.
std::string NewPayload() {
  return std::string(1, static_cast<char>(kProtocolVersion));
}

void PutU32(std::string* out, uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void PutF64(std::string* out, double value) {
  const uint64_t bits = std::bit_cast<uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((bits >> shift) & 0xFF));
  }
}

void PutString(std::string* out, std::string_view text) {
  PutU32(out, static_cast<uint32_t>(text.size()));
  out->append(text);
}

void PutOptions(std::string* out, const OptionList& options) {
  // Encode in canonical (sorted) order regardless of the order the
  // caller assembled the list in: permuted but semantically identical
  // option maps must be byte-identical on the wire.
  OptionList sorted = options;
  std::sort(sorted.begin(), sorted.end());
  PutU32(out, static_cast<uint32_t>(sorted.size()));
  for (const auto& [key, value] : sorted) {
    PutString(out, key);
    PutString(out, value);
  }
}

class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : rest_(payload) {}

  [[nodiscard]] Status ReadU8(uint8_t* out) {
    CORROB_RETURN_NOT_OK(Need(1, "u8"));
    *out = static_cast<uint8_t>(rest_[0]);
    rest_.remove_prefix(1);
    return Status::OK();
  }

  /// Every decoder's first read: the payload must speak exactly
  /// kProtocolVersion.
  [[nodiscard]] Status ReadVersion() {
    uint8_t version = 0;
    CORROB_RETURN_NOT_OK(ReadU8(&version));
    if (version != kProtocolVersion) {
      return Status::FailedPrecondition(
          "payload codec version " + std::to_string(version) +
          " does not match this build's version " +
          std::to_string(kProtocolVersion));
    }
    return Status::OK();
  }

  [[nodiscard]] Status ReadPriority(Priority* out) {
    uint8_t priority = 0;
    CORROB_RETURN_NOT_OK(ReadU8(&priority));
    if (priority >= kNumPriorities) {
      return Status::InvalidArgument("unknown priority class " +
                                     std::to_string(priority));
    }
    *out = static_cast<Priority>(priority);
    return Status::OK();
  }

  [[nodiscard]] Status ReadU32(uint32_t* out) {
    CORROB_RETURN_NOT_OK(Need(4, "u32"));
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      value |= static_cast<uint32_t>(static_cast<uint8_t>(rest_[i]))
               << (8 * i);
    }
    rest_.remove_prefix(4);
    *out = value;
    return Status::OK();
  }

  [[nodiscard]] Status ReadU64(uint64_t* out) {
    CORROB_RETURN_NOT_OK(Need(8, "u64"));
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i) {
      value |= static_cast<uint64_t>(static_cast<uint8_t>(rest_[i]))
               << (8 * i);
    }
    rest_.remove_prefix(8);
    *out = value;
    return Status::OK();
  }

  [[nodiscard]] Status ReadF64(double* out) {
    CORROB_RETURN_NOT_OK(Need(8, "f64"));
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(static_cast<uint8_t>(rest_[i]))
              << (8 * i);
    }
    rest_.remove_prefix(8);
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  }

  [[nodiscard]] Status ReadString(std::string* out) {
    uint32_t length = 0;
    CORROB_RETURN_NOT_OK(ReadU32(&length));
    CORROB_RETURN_NOT_OK(Need(length, "string body"));
    out->assign(rest_.substr(0, length));
    rest_.remove_prefix(length);
    return Status::OK();
  }

  [[nodiscard]] Status ReadF64Vector(std::vector<double>* out) {
    uint32_t count = 0;
    CORROB_RETURN_NOT_OK(ReadU32(&count));
    CORROB_RETURN_NOT_OK(Need(static_cast<size_t>(count) * 8, "f64 array"));
    out->resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      CORROB_RETURN_NOT_OK(ReadF64(&(*out)[i]));
    }
    return Status::OK();
  }

  [[nodiscard]] Status ReadOptions(OptionList* out) {
    uint32_t count = 0;
    CORROB_RETURN_NOT_OK(ReadU32(&count));
    // Each entry needs at least its two length prefixes.
    CORROB_RETURN_NOT_OK(Need(static_cast<size_t>(count) * 8, "options"));
    out->clear();
    out->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string key;
      std::string value;
      CORROB_RETURN_NOT_OK(ReadString(&key));
      CORROB_RETURN_NOT_OK(ReadString(&value));
      out->emplace_back(std::move(key), std::move(value));
    }
    // Canonicalize here too: a hand-rolled client that encoded in a
    // different order still produces one cache key server-side.
    return NormalizeOptions(out);
  }

  /// Every decoder's final check: trailing bytes mean a version skew
  /// or a corrupted payload, both worth rejecting loudly.
  [[nodiscard]] Status ExpectEnd() const {
    if (!rest_.empty()) {
      return Status::ParseError("payload has " +
                                std::to_string(rest_.size()) +
                                " trailing bytes");
    }
    return Status::OK();
  }

 private:
  [[nodiscard]] Status Need(size_t bytes, const char* what) const {
    if (rest_.size() < bytes) {
      return Status::ParseError("payload truncated reading " +
                                std::string(what) + ": need " +
                                std::to_string(bytes) + " bytes, have " +
                                std::to_string(rest_.size()));
    }
    return Status::OK();
  }

  std::string_view rest_;
};

}  // namespace

std::string_view PriorityName(Priority priority) {
  switch (priority) {
    case Priority::kInteractive:
      return "interactive";
    case Priority::kBatch:
      return "batch";
    case Priority::kBestEffort:
      return "best_effort";
  }
  return "unknown";
}

Result<Priority> ParsePriority(std::string_view text) {
  const std::string lowered = ToLower(Trim(text));
  if (lowered == "interactive") return Priority::kInteractive;
  if (lowered == "batch") return Priority::kBatch;
  if (lowered == "best_effort" || lowered == "besteffort" ||
      lowered == "best-effort") {
    return Priority::kBestEffort;
  }
  return Status::InvalidArgument(
      "unknown priority '" + std::string(text) +
      "' (expected interactive|batch|best_effort)");
}

Status NormalizeOptions(OptionList* options) {
  std::sort(options->begin(), options->end());
  for (size_t i = 1; i < options->size(); ++i) {
    if ((*options)[i].first == (*options)[i - 1].first) {
      return Status::InvalidArgument("duplicate option key '" +
                                     (*options)[i].first + "'");
    }
  }
  return Status::OK();
}

std::string EncodeCorroborateRequest(const CorroborateRequest& request) {
  std::string out = NewPayload();
  PutU8(&out, static_cast<uint8_t>(request.priority));
  PutU32(&out, request.timeout_ms);
  PutU32(&out, request.max_rounds);
  PutString(&out, request.dataset);
  PutString(&out, request.algorithm);
  PutString(&out, request.tenant);
  PutOptions(&out, request.options);
  PutString(&out, request.request_id);
  return out;
}

Result<CorroborateRequest> DecodeCorroborateRequest(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  CorroborateRequest request;
  CORROB_RETURN_NOT_OK(reader.ReadPriority(&request.priority));
  CORROB_RETURN_NOT_OK(reader.ReadU32(&request.timeout_ms));
  CORROB_RETURN_NOT_OK(reader.ReadU32(&request.max_rounds));
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.dataset));
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.algorithm));
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.tenant));
  CORROB_RETURN_NOT_OK(reader.ReadOptions(&request.options));
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.request_id));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

std::string EncodeCorroborateResponse(
    const CorroborateResponse& response) {
  std::string out = NewPayload();
  out.reserve(32 + response.request_id.size() +
              8 * (response.fact_probability.size() +
                   response.source_trust.size()));
  PutString(&out, response.algorithm);
  PutU8(&out, response.termination);
  PutU32(&out, response.iterations);
  PutU32(&out, static_cast<uint32_t>(response.fact_probability.size()));
  for (const double p : response.fact_probability) PutF64(&out, p);
  PutU32(&out, static_cast<uint32_t>(response.source_trust.size()));
  for (const double t : response.source_trust) PutF64(&out, t);
  PutString(&out, response.request_id);
  return out;
}

Result<CorroborateResponse> DecodeCorroborateResponse(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  CorroborateResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.algorithm));
  CORROB_RETURN_NOT_OK(reader.ReadU8(&response.termination));
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.iterations));
  CORROB_RETURN_NOT_OK(reader.ReadF64Vector(&response.fact_probability));
  CORROB_RETURN_NOT_OK(reader.ReadF64Vector(&response.source_trust));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.request_id));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeErrorResponse(const ErrorResponse& response) {
  std::string out = NewPayload();
  PutU8(&out, response.code);
  PutString(&out, response.message);
  PutString(&out, response.request_id);
  return out;
}

Result<ErrorResponse> DecodeErrorResponse(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  ErrorResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadU8(&response.code));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.message));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.request_id));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeOverloadedResponse(const OverloadedResponse& response) {
  std::string out = NewPayload();
  PutU32(&out, response.retry_after_ms);
  PutU32(&out, response.queue_depth);
  PutString(&out, response.message);
  PutString(&out, response.request_id);
  return out;
}

Result<OverloadedResponse> DecodeOverloadedResponse(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  OverloadedResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.retry_after_ms));
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.queue_depth));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.message));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.request_id));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeQuotaExceededResponse(
    const QuotaExceededResponse& response) {
  std::string out = NewPayload();
  PutU32(&out, response.retry_after_ms);
  PutString(&out, response.tenant);
  PutString(&out, response.message);
  PutString(&out, response.request_id);
  return out;
}

Result<QuotaExceededResponse> DecodeQuotaExceededResponse(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  QuotaExceededResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.retry_after_ms));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.tenant));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.message));
  CORROB_RETURN_NOT_OK(reader.ReadString(&response.request_id));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

void AttachRequestId(std::string* payload, std::string_view request_id) {
  if (request_id.empty()) return;
  // The payload ends with the empty id's zero length prefix.
  CORROB_DCHECK(payload->size() > 4 &&
                payload->ends_with(std::string_view("\0\0\0\0", 4)));
  payload->resize(payload->size() - 4);
  PutString(payload, request_id);
}

std::string EncodeBatchRequest(const BatchRequest& request) {
  std::string out = NewPayload();
  PutU8(&out, static_cast<uint8_t>(request.priority));
  PutString(&out, request.tenant);
  PutU32(&out, static_cast<uint32_t>(request.items.size()));
  for (const BatchItem& item : request.items) {
    PutU32(&out, item.timeout_ms);
    PutU32(&out, item.max_rounds);
    PutString(&out, item.dataset);
    PutString(&out, item.algorithm);
    PutOptions(&out, item.options);
  }
  return out;
}

Result<BatchRequest> DecodeBatchRequest(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  BatchRequest request;
  CORROB_RETURN_NOT_OK(reader.ReadPriority(&request.priority));
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.tenant));
  uint32_t count = 0;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&count));
  if (count == 0) {
    return Status::InvalidArgument("batch request has no items");
  }
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(
        "batch request has " + std::to_string(count) +
        " items; the cap is " + std::to_string(kMaxBatchItems));
  }
  request.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchItem item;
    CORROB_RETURN_NOT_OK(reader.ReadU32(&item.timeout_ms));
    CORROB_RETURN_NOT_OK(reader.ReadU32(&item.max_rounds));
    CORROB_RETURN_NOT_OK(reader.ReadString(&item.dataset));
    CORROB_RETURN_NOT_OK(reader.ReadString(&item.algorithm));
    CORROB_RETURN_NOT_OK(reader.ReadOptions(&item.options));
    request.items.push_back(std::move(item));
  }
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

std::string EncodeBatchResponse(const BatchResponse& response) {
  std::string out = NewPayload();
  PutU32(&out, static_cast<uint32_t>(response.items.size()));
  for (const BatchItemResponse& item : response.items) {
    PutU8(&out, item.type);
    PutString(&out, item.payload);
  }
  return out;
}

Result<BatchResponse> DecodeBatchResponse(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  BatchResponse response;
  uint32_t count = 0;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&count));
  if (count > kMaxBatchItems) {
    return Status::InvalidArgument(
        "batch response has " + std::to_string(count) +
        " items; the cap is " + std::to_string(kMaxBatchItems));
  }
  response.items.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    BatchItemResponse item;
    CORROB_RETURN_NOT_OK(reader.ReadU8(&item.type));
    CORROB_RETURN_NOT_OK(reader.ReadString(&item.payload));
    response.items.push_back(std::move(item));
  }
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeReloadRequest(const ReloadRequest& request) {
  std::string out = NewPayload();
  PutString(&out, request.dataset);
  return out;
}

Result<ReloadRequest> DecodeReloadRequest(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  ReloadRequest request;
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.dataset));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

std::string EncodeReloadResponse(const ReloadResponse& response) {
  std::string out = NewPayload();
  PutU32(&out, response.datasets_reloaded);
  PutU64(&out, response.generation);
  return out;
}

Result<ReloadResponse> DecodeReloadResponse(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  ReloadResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.datasets_reloaded));
  CORROB_RETURN_NOT_OK(reader.ReadU64(&response.generation));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeApplyDeltaRequest(const ApplyDeltaRequest& request) {
  std::string out = NewPayload();
  PutString(&out, request.dataset);
  PutU32(&out, static_cast<uint32_t>(request.deltas.size()));
  for (const WalRecord& record : request.deltas) {
    PutU8(&out, static_cast<uint8_t>(record.type));
    PutString(&out, record.source);
    PutString(&out, record.fact);
    // The vote byte travels for every record type so the layout stays
    // fixed-shape; it is only meaningful for add-vote.
    PutU8(&out, static_cast<uint8_t>(VoteToChar(record.vote)));
  }
  return out;
}

Result<ApplyDeltaRequest> DecodeApplyDeltaRequest(std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  ApplyDeltaRequest request;
  CORROB_RETURN_NOT_OK(reader.ReadString(&request.dataset));
  uint32_t count = 0;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&count));
  if (count == 0) {
    return Status::InvalidArgument("apply-delta request has no deltas");
  }
  if (count > kMaxDeltaItems) {
    return Status::InvalidArgument(
        "apply-delta request has " + std::to_string(count) +
        " deltas; the cap is " + std::to_string(kMaxDeltaItems));
  }
  request.deltas.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WalRecord record;
    uint8_t type = 0;
    uint8_t vote_char = 0;
    CORROB_RETURN_NOT_OK(reader.ReadU8(&type));
    CORROB_RETURN_NOT_OK(reader.ReadString(&record.source));
    CORROB_RETURN_NOT_OK(reader.ReadString(&record.fact));
    CORROB_RETURN_NOT_OK(reader.ReadU8(&vote_char));
    switch (static_cast<WalRecordType>(type)) {
      case WalRecordType::kAddSource:
      case WalRecordType::kAddVote:
      case WalRecordType::kRetractVote:
        record.type = static_cast<WalRecordType>(type);
        break;
      case WalRecordType::kSnapshotMarker:
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": snapshot markers are log metadata, not mutations");
      default:
        return Status::InvalidArgument("delta " + std::to_string(i) +
                                       ": unknown record type " +
                                       std::to_string(type));
    }
    if (record.type == WalRecordType::kAddVote) {
      CORROB_ASSIGN_OR_RETURN(record.vote,
                              VoteFromChar(static_cast<char>(vote_char)));
      if (record.vote == Vote::kNone) {
        return Status::InvalidArgument(
            "delta " + std::to_string(i) +
            ": add-vote carries '-'; use retract-vote to erase");
      }
    }
    request.deltas.push_back(std::move(record));
  }
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

std::string EncodeApplyDeltaResponse(const ApplyDeltaResponse& response) {
  std::string out = NewPayload();
  PutU32(&out, response.applied);
  PutU64(&out, response.generation);
  return out;
}

Result<ApplyDeltaResponse> DecodeApplyDeltaResponse(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  ApplyDeltaResponse response;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&response.applied));
  CORROB_RETURN_NOT_OK(reader.ReadU64(&response.generation));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return response;
}

std::string EncodeIntrospectRequest(const IntrospectRequest& request) {
  std::string out = NewPayload();
  PutU32(&out, request.top_k);
  PutU32(&out, request.max_recent);
  return out;
}

Result<IntrospectRequest> DecodeIntrospectRequest(
    std::string_view payload) {
  PayloadReader reader(payload);
  CORROB_RETURN_NOT_OK(reader.ReadVersion());
  IntrospectRequest request;
  CORROB_RETURN_NOT_OK(reader.ReadU32(&request.top_k));
  CORROB_RETURN_NOT_OK(reader.ReadU32(&request.max_recent));
  CORROB_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

}  // namespace server
}  // namespace corrob
