#include "server/protocol.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/frame.h"

namespace corrob {
namespace server {
namespace {

TEST(ProtocolTest, PriorityNamesRoundTrip) {
  for (int cls = 0; cls < kNumPriorities; ++cls) {
    const Priority priority = static_cast<Priority>(cls);
    Result<Priority> parsed =
        ParsePriority(std::string(PriorityName(priority)));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.ValueOrDie(), priority);
  }
  EXPECT_EQ(ParsePriority("  Interactive ").ValueOrDie(),
            Priority::kInteractive);
  EXPECT_EQ(ParsePriority("best-effort").ValueOrDie(),
            Priority::kBestEffort);
  EXPECT_FALSE(ParsePriority("urgent").ok());
}

TEST(ProtocolTest, CorroborateRequestRoundTrip) {
  CorroborateRequest request;
  request.priority = Priority::kInteractive;
  request.dataset = "flights";
  request.algorithm = "TwoEstimate";
  request.timeout_ms = 1500;
  request.max_rounds = 7;
  Result<CorroborateRequest> decoded =
      DecodeCorroborateRequest(EncodeCorroborateRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().priority, request.priority);
  EXPECT_EQ(decoded.ValueOrDie().dataset, request.dataset);
  EXPECT_EQ(decoded.ValueOrDie().algorithm, request.algorithm);
  EXPECT_EQ(decoded.ValueOrDie().timeout_ms, request.timeout_ms);
  EXPECT_EQ(decoded.ValueOrDie().max_rounds, request.max_rounds);
}

TEST(ProtocolTest, CorroborateResponseBitExactDoubles) {
  CorroborateResponse response;
  response.algorithm = "IncEstHeu";
  response.termination = 2;
  response.iterations = 42;
  // Values chosen to catch any lossy round-trip: denormal, -0.0, NaN.
  response.fact_probability = {0.1, -0.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::quiet_NaN()};
  response.source_trust = {1.0 / 3.0, 0.9999999999999999};
  Result<CorroborateResponse> decoded =
      DecodeCorroborateResponse(EncodeCorroborateResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const CorroborateResponse& got = decoded.ValueOrDie();
  ASSERT_EQ(got.fact_probability.size(), response.fact_probability.size());
  for (size_t i = 0; i < response.fact_probability.size(); ++i) {
    // Bit-pattern comparison: NaN == NaN fails, memcmp does not.
    EXPECT_EQ(std::memcmp(&got.fact_probability[i],
                          &response.fact_probability[i], sizeof(double)),
              0)
        << "fact " << i;
  }
  EXPECT_EQ(got.source_trust, response.source_trust);
  EXPECT_EQ(got.termination, response.termination);
  EXPECT_EQ(got.iterations, response.iterations);
}

TEST(ProtocolTest, ErrorAndOverloadedRoundTrip) {
  ErrorResponse error;
  error.code = 10;
  error.message = "cancelled while queued";
  Result<ErrorResponse> decoded_error =
      DecodeErrorResponse(EncodeErrorResponse(error));
  ASSERT_TRUE(decoded_error.ok());
  EXPECT_EQ(decoded_error.ValueOrDie().code, error.code);
  EXPECT_EQ(decoded_error.ValueOrDie().message, error.message);

  OverloadedResponse overloaded;
  overloaded.retry_after_ms = 750;
  overloaded.queue_depth = 16;
  overloaded.message = "interactive queue full";
  Result<OverloadedResponse> decoded_overloaded =
      DecodeOverloadedResponse(EncodeOverloadedResponse(overloaded));
  ASSERT_TRUE(decoded_overloaded.ok());
  EXPECT_EQ(decoded_overloaded.ValueOrDie().retry_after_ms,
            overloaded.retry_after_ms);
  EXPECT_EQ(decoded_overloaded.ValueOrDie().queue_depth,
            overloaded.queue_depth);
}

TEST(ProtocolTest, TruncatedPayloadsAreParseErrors) {
  CorroborateRequest request;
  request.dataset = "flights";
  const std::string wire = EncodeCorroborateRequest(request);
  for (size_t length = 0; length < wire.size(); ++length) {
    Result<CorroborateRequest> decoded =
        DecodeCorroborateRequest(wire.substr(0, length));
    ASSERT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
        << "length " << length;
  }
}

TEST(ProtocolTest, TrailingBytesRejected) {
  const std::string wire =
      EncodeCorroborateRequest(CorroborateRequest{}) + "extra";
  Result<CorroborateRequest> decoded = DecodeCorroborateRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
  EXPECT_NE(decoded.status().message().find("trailing"), std::string::npos);
}

TEST(ProtocolTest, VersionSkewIsFailedPrecondition) {
  std::string wire = EncodeCorroborateRequest(CorroborateRequest{});
  wire[0] = static_cast<char>(kProtocolVersion + 1);
  Result<CorroborateRequest> decoded = DecodeCorroborateRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ProtocolTest, UnknownPriorityByteRejected) {
  CorroborateRequest request;
  std::string wire = EncodeCorroborateRequest(request);
  wire[1] = static_cast<char>(kNumPriorities);  // one past the last class
  Result<CorroborateRequest> decoded = DecodeCorroborateRequest(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, PermutedOptionsEncodeByteIdentically) {
  // The codec canonicalizes option order, so two requests that differ
  // only in assembly order are the same bytes on the wire — the
  // property that gives permuted requests one cache key.
  CorroborateRequest forward;
  forward.dataset = "flights";
  forward.tenant = "analytics";
  forward.options = {{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}};
  CorroborateRequest shuffled = forward;
  shuffled.options = {{"gamma", "3"}, {"alpha", "1"}, {"beta", "2"}};
  EXPECT_EQ(EncodeCorroborateRequest(forward),
            EncodeCorroborateRequest(shuffled));

  Result<CorroborateRequest> decoded =
      DecodeCorroborateRequest(EncodeCorroborateRequest(shuffled));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().tenant, "analytics");
  const OptionList sorted = {{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"}};
  EXPECT_EQ(decoded.ValueOrDie().options, sorted);
}

TEST(ProtocolTest, DuplicateOptionKeysRejected) {
  OptionList duplicated = {{"k", "a"}, {"k", "b"}};
  Status normalized = NormalizeOptions(&duplicated);
  ASSERT_FALSE(normalized.ok());
  EXPECT_EQ(normalized.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(normalized.message().find("duplicate"), std::string::npos);

  // The decoder applies the same rule to hostile payloads.
  CorroborateRequest request;
  request.dataset = "d";
  request.options = {{"k", "a"}, {"k", "b"}};
  Result<CorroborateRequest> decoded =
      DecodeCorroborateRequest(EncodeCorroborateRequest(request));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, QuotaExceededRoundTrip) {
  QuotaExceededResponse response;
  response.retry_after_ms = 1250;
  response.tenant = "analytics";
  response.message = "rate limit";
  Result<QuotaExceededResponse> decoded =
      DecodeQuotaExceededResponse(EncodeQuotaExceededResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().retry_after_ms, response.retry_after_ms);
  EXPECT_EQ(decoded.ValueOrDie().tenant, response.tenant);
  EXPECT_EQ(decoded.ValueOrDie().message, response.message);
}

TEST(ProtocolTest, BatchRequestRoundTrip) {
  BatchRequest request;
  request.priority = Priority::kInteractive;
  request.tenant = "analytics";
  request.items.resize(2);
  request.items[0].dataset = "flights";
  request.items[0].max_rounds = 9;
  request.items[1].dataset = "books";
  request.items[1].algorithm = "TwoEstimate";
  request.items[1].options = {{"k", "v"}};

  Result<BatchRequest> decoded =
      DecodeBatchRequest(EncodeBatchRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  const BatchRequest& got = decoded.ValueOrDie();
  EXPECT_EQ(got.priority, request.priority);
  EXPECT_EQ(got.tenant, request.tenant);
  ASSERT_EQ(got.items.size(), 2u);
  EXPECT_EQ(got.items[0].dataset, "flights");
  EXPECT_EQ(got.items[0].max_rounds, 9u);
  EXPECT_EQ(got.items[1].algorithm, "TwoEstimate");
  EXPECT_EQ(got.items[1].options, request.items[1].options);
}

TEST(ProtocolTest, BatchRequestBoundsEnforced) {
  BatchRequest empty;
  Result<BatchRequest> decoded_empty =
      DecodeBatchRequest(EncodeBatchRequest(empty));
  ASSERT_FALSE(decoded_empty.ok());
  EXPECT_EQ(decoded_empty.status().code(), StatusCode::kInvalidArgument);

  // A count beyond kMaxBatchItems is rejected from the header alone,
  // before any per-item allocation.
  BatchRequest one;
  one.items.resize(1);
  one.items[0].dataset = "d";
  std::string wire = EncodeBatchRequest(one);
  // Count sits after version + priority + tenant string.
  const size_t count_offset = 1 + 1 + 4 + one.tenant.size();
  const uint32_t huge = kMaxBatchItems + 1;
  std::memcpy(&wire[count_offset], &huge, sizeof(huge));
  Result<BatchRequest> decoded_huge = DecodeBatchRequest(wire);
  ASSERT_FALSE(decoded_huge.ok());
  EXPECT_EQ(decoded_huge.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded_huge.status().message().find("cap"), std::string::npos);
}

TEST(ProtocolTest, BatchResponseRoundTrip) {
  BatchResponse response;
  response.items.resize(2);
  response.items[0].type = 0x81;  // kResultResponse
  response.items[0].payload = "result bytes";
  response.items[1].type = 0x82;  // kErrorResponse
  response.items[1].payload = "error bytes";
  Result<BatchResponse> decoded =
      DecodeBatchResponse(EncodeBatchResponse(response));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded.ValueOrDie().items.size(), 2u);
  EXPECT_EQ(decoded.ValueOrDie().items[0].payload, "result bytes");
  EXPECT_EQ(decoded.ValueOrDie().items[1].type, 0x82);
}

TEST(ProtocolTest, ReloadRoundTripAndTruncation) {
  ReloadRequest request;
  request.dataset = "flights";
  Result<ReloadRequest> decoded_request =
      DecodeReloadRequest(EncodeReloadRequest(request));
  ASSERT_TRUE(decoded_request.ok());
  EXPECT_EQ(decoded_request.ValueOrDie().dataset, "flights");

  ReloadResponse response;
  response.datasets_reloaded = 3;
  response.generation = uint64_t{1} << 40;
  const std::string wire = EncodeReloadResponse(response);
  Result<ReloadResponse> decoded = DecodeReloadResponse(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.ValueOrDie().datasets_reloaded, 3u);
  EXPECT_EQ(decoded.ValueOrDie().generation, uint64_t{1} << 40);

  for (size_t length = 0; length < wire.size(); ++length) {
    Result<ReloadResponse> truncated =
        DecodeReloadResponse(wire.substr(0, length));
    ASSERT_FALSE(truncated.ok()) << "length " << length;
    EXPECT_EQ(truncated.status().code(), StatusCode::kParseError)
        << "length " << length;
  }
  Result<ReloadResponse> trailing = DecodeReloadResponse(wire + "x");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, BatchTruncationIsAlwaysAParseError) {
  BatchRequest request;
  request.tenant = "t";
  request.items.resize(1);
  request.items[0].dataset = "d";
  request.items[0].options = {{"k", "v"}};
  const std::string wire = EncodeBatchRequest(request);
  for (size_t length = 0; length < wire.size(); ++length) {
    Result<BatchRequest> decoded = DecodeBatchRequest(wire.substr(0, length));
    ASSERT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.status().code(), StatusCode::kParseError)
        << "length " << length;
  }
}

TEST(ProtocolTest, HugeVectorCountRejectedWithoutAllocation) {
  // An f64 vector claiming ~4 billion entries in a tiny payload must
  // fail the bounds check before any resize.
  CorroborateResponse response;
  response.algorithm = "x";
  std::string wire = EncodeCorroborateResponse(response);
  // Overwrite the fact_probability count (after version + algorithm +
  // termination + iterations) with 0xFFFFFFFF.
  const size_t count_offset = 1 + (4 + 1) + 1 + 4;
  for (int i = 0; i < 4; ++i) {
    wire[count_offset + i] = static_cast<char>(0xFF);
  }
  Result<CorroborateResponse> decoded = DecodeCorroborateResponse(wire);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, RequestIdRoundTrips) {
  CorroborateRequest request;
  request.dataset = "flights";
  request.tenant = "alpha";
  request.request_id = "client-42";
  Result<CorroborateRequest> decoded =
      DecodeCorroborateRequest(EncodeCorroborateRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().request_id, "client-42");
}

TEST(ProtocolTest, AttachRequestIdSplicesTrailingIdOntoEveryResponse) {
  CorroborateResponse response;
  response.algorithm = "IncEstHeu";
  response.fact_probability = {0.25, 0.75};
  const std::string canonical = EncodeCorroborateResponse(response);

  // An empty id must leave the canonical bytes untouched — cache
  // replays of id-less requests stay byte-identical to cold replies.
  std::string untouched = canonical;
  AttachRequestId(&untouched, "");
  EXPECT_EQ(untouched, canonical);

  // Splicing is exactly what the encoder writes for the same id.
  std::string spliced = canonical;
  AttachRequestId(&spliced, "client-42");
  CorroborateResponse with_id = response;
  with_id.request_id = "client-42";
  EXPECT_EQ(spliced, EncodeCorroborateResponse(with_id));
  Result<CorroborateResponse> decoded = DecodeCorroborateResponse(spliced);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().request_id, "client-42");
  EXPECT_EQ(decoded.ValueOrDie().fact_probability,
            response.fact_probability);

  ErrorResponse error;
  error.code = static_cast<uint8_t>(StatusCode::kNotFound);
  error.message = "no such dataset";
  std::string error_wire = EncodeErrorResponse(error);
  AttachRequestId(&error_wire, "client-43");
  Result<ErrorResponse> error_decoded = DecodeErrorResponse(error_wire);
  ASSERT_TRUE(error_decoded.ok());
  EXPECT_EQ(error_decoded.ValueOrDie().request_id, "client-43");
  EXPECT_EQ(error_decoded.ValueOrDie().message, "no such dataset");

  OverloadedResponse overloaded;
  overloaded.retry_after_ms = 25;
  std::string overloaded_wire = EncodeOverloadedResponse(overloaded);
  AttachRequestId(&overloaded_wire, "client-44");
  Result<OverloadedResponse> overloaded_decoded =
      DecodeOverloadedResponse(overloaded_wire);
  ASSERT_TRUE(overloaded_decoded.ok());
  EXPECT_EQ(overloaded_decoded.ValueOrDie().request_id, "client-44");
  EXPECT_EQ(overloaded_decoded.ValueOrDie().retry_after_ms, 25u);

  QuotaExceededResponse quota;
  quota.retry_after_ms = 50;
  std::string quota_wire = EncodeQuotaExceededResponse(quota);
  AttachRequestId(&quota_wire, "client-45");
  Result<QuotaExceededResponse> quota_decoded =
      DecodeQuotaExceededResponse(quota_wire);
  ASSERT_TRUE(quota_decoded.ok());
  EXPECT_EQ(quota_decoded.ValueOrDie().request_id, "client-45");
}

TEST(ProtocolTest, IntrospectRequestRoundTripAndBounds) {
  IntrospectRequest request;
  request.top_k = 7;
  request.max_recent = 42;
  Result<IntrospectRequest> decoded =
      DecodeIntrospectRequest(EncodeIntrospectRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.ValueOrDie().top_k, 7u);
  EXPECT_EQ(decoded.ValueOrDie().max_recent, 42u);

  // Truncation anywhere is a parse error.
  const std::string full = EncodeIntrospectRequest(request);
  for (size_t len = 0; len < full.size(); ++len) {
    EXPECT_EQ(
        DecodeIntrospectRequest(full.substr(0, len)).status().code(),
        StatusCode::kParseError)
        << "truncated at " << len;
  }
}

/// One payload codec under test: a valid encoding with every field
/// set (request ids included), and its decoder chained back into its
/// encoder, so Encode(Decode(wire)) == wire checks both directions.
struct PayloadCodec {
  std::string name;
  std::string wire;
  std::function<Result<std::string>(std::string_view)> reencode;
};

template <typename T>
PayloadCodec Codec(std::string name, const T& value,
                   std::string (*encode)(const T&),
                   Result<T> (*decode)(std::string_view)) {
  return {std::move(name), encode(value),
          [encode, decode](std::string_view wire) -> Result<std::string> {
            CORROB_ASSIGN_OR_RETURN(T decoded, decode(wire));
            return encode(decoded);
          }};
}

std::vector<PayloadCodec> AllPayloadCodecs() {
  CorroborateRequest request;
  request.priority = Priority::kInteractive;
  request.dataset = "flights";
  request.algorithm = "TwoEstimate";
  request.timeout_ms = 250;
  request.max_rounds = 9;
  request.tenant = "alpha";
  request.options = {{"k", "v"}};
  request.request_id = "req-1";

  CorroborateResponse result;
  result.algorithm = "IncEstHeu";
  result.termination = 1;
  result.iterations = 7;
  result.fact_probability = {0.25, 0.75};
  result.source_trust = {0.5};
  result.request_id = "req-2";

  ErrorResponse error;
  error.code = static_cast<uint8_t>(StatusCode::kNotFound);
  error.message = "no such dataset";
  error.request_id = "req-3";

  OverloadedResponse overloaded;
  overloaded.retry_after_ms = 25;
  overloaded.queue_depth = 4;
  overloaded.message = "queue full";
  overloaded.request_id = "req-4";

  QuotaExceededResponse quota;
  quota.retry_after_ms = 50;
  quota.tenant = "alpha";
  quota.message = "rate limit";
  quota.request_id = "req-5";

  BatchRequest batch;
  batch.priority = Priority::kBestEffort;
  batch.tenant = "alpha";
  batch.items.resize(2);
  batch.items[0].dataset = "flights";
  batch.items[1].dataset = "books";
  batch.items[1].options = {{"k", "v"}};

  BatchResponse batch_response;
  batch_response.items = {
      {static_cast<uint8_t>(FrameType::kResultResponse),
       EncodeCorroborateResponse(result)},
      {static_cast<uint8_t>(FrameType::kErrorResponse),
       EncodeErrorResponse(error)}};

  ReloadRequest reload;
  reload.dataset = "flights";
  ReloadResponse reload_response;
  reload_response.datasets_reloaded = 2;
  reload_response.generation = 9;

  ApplyDeltaRequest delta;
  delta.dataset = "flights";
  WalRecord add_source;
  add_source.type = WalRecordType::kAddSource;
  add_source.source = "s9";
  WalRecord add_vote;
  add_vote.type = WalRecordType::kAddVote;
  add_vote.source = "s9";
  add_vote.fact = "f1";
  add_vote.vote = Vote::kTrue;
  delta.deltas = {add_source, add_vote};
  ApplyDeltaResponse delta_response;
  delta_response.applied = 2;
  delta_response.generation = 3;

  IntrospectRequest introspect;
  introspect.top_k = 3;
  introspect.max_recent = 5;

  return {
      Codec("corroborate_request", request, &EncodeCorroborateRequest,
            &DecodeCorroborateRequest),
      Codec("corroborate_response", result, &EncodeCorroborateResponse,
            &DecodeCorroborateResponse),
      Codec("error_response", error, &EncodeErrorResponse,
            &DecodeErrorResponse),
      Codec("overloaded_response", overloaded, &EncodeOverloadedResponse,
            &DecodeOverloadedResponse),
      Codec("quota_exceeded_response", quota, &EncodeQuotaExceededResponse,
            &DecodeQuotaExceededResponse),
      Codec("batch_request", batch, &EncodeBatchRequest, &DecodeBatchRequest),
      Codec("batch_response", batch_response, &EncodeBatchResponse,
            &DecodeBatchResponse),
      Codec("reload_request", reload, &EncodeReloadRequest,
            &DecodeReloadRequest),
      Codec("reload_response", reload_response, &EncodeReloadResponse,
            &DecodeReloadResponse),
      Codec("apply_delta_request", delta, &EncodeApplyDeltaRequest,
            &DecodeApplyDeltaRequest),
      Codec("apply_delta_response", delta_response,
            &EncodeApplyDeltaResponse, &DecodeApplyDeltaResponse),
      Codec("introspect_request", introspect, &EncodeIntrospectRequest,
            &DecodeIntrospectRequest),
  };
}

TEST(ProtocolTest, EveryPayloadCodecSpeaksExactlyTheProtocolVersion) {
  for (const PayloadCodec& codec : AllPayloadCodecs()) {
    SCOPED_TRACE(codec.name);
    ASSERT_FALSE(codec.wire.empty());
    EXPECT_EQ(static_cast<uint8_t>(codec.wire[0]), kProtocolVersion);
    Result<std::string> again = codec.reencode(codec.wire);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ(again.ValueOrDie(), codec.wire);

    // Any other version byte is a typed skew, never a misparse.
    for (const int skew : {-1, 1}) {
      std::string skewed = codec.wire;
      skewed[0] = static_cast<char>(kProtocolVersion + skew);
      EXPECT_EQ(codec.reencode(skewed).status().code(),
                StatusCode::kFailedPrecondition)
          << "version " << kProtocolVersion + skew;
    }
  }
}

TEST(ProtocolTest, EveryPayloadCodecRejectsTruncationAndTrailingBytes) {
  for (const PayloadCodec& codec : AllPayloadCodecs()) {
    SCOPED_TRACE(codec.name);
    for (size_t length = 0; length < codec.wire.size(); ++length) {
      EXPECT_EQ(codec.reencode(codec.wire.substr(0, length)).status().code(),
                StatusCode::kParseError)
          << "truncated at " << length;
    }
    EXPECT_EQ(codec.reencode(codec.wire + "x").status().code(),
              StatusCode::kParseError);
  }
}

}  // namespace
}  // namespace server
}  // namespace corrob
