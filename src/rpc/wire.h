#ifndef FEDAQP_RPC_WIRE_H_
#define FEDAQP_RPC_WIRE_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "exec/endpoint.h"

namespace fedaqp {

/// --- Wire protocol of the remote ProviderEndpoint backend.
///
/// Every message travels as one frame:
///
///   +-------------+---------+----------+--------------+=============+
///   | magic (u32) | ver(u8) | meth(u8) | payload (u32)|   payload   |
///   +-------------+---------+----------+--------------+=============+
///   <------------- 10-byte header, little-endian ----->
///
/// Requests and replies share the frame format; a reply echoes the
/// request's method id, except errors, which arrive as kError frames
/// carrying a serialized Status. Payload codecs reuse ByteWriter /
/// ByteReader (the same primitives metadata persistence uses), so the
/// sizes charged to SimNetwork and the bytes moved by the TCP transport
/// agree by construction (see WireSize below).
///
/// Versioning: a peer speaking a different kWireVersion is rejected with
/// InvalidArgument at the frame layer — payload layouts may change
/// between versions, and silently misparsing a stale peer would corrupt
/// session state. Malformed input never crashes or over-reads: every
/// decoder returns OutOfRange (truncated) or InvalidArgument (corrupt).

/// Method selector of a frame.
enum class RpcMethod : uint8_t {
  /// Connection handshake: empty request, EndpointInfo reply.
  kInfo = 1,
  kCover = 2,
  kPublishSummary = 3,
  kApproximate = 4,
  kExactAnswer = 5,
  kExactFullScan = 6,
  kEndQuery = 7,
  /// Doorbell batch: the payload is a concatenation of complete standard
  /// frames (header + payload each), one per coalesced request. The reply
  /// is a kBatch frame whose payload concatenates the reply frames in
  /// request order (each either the echoed method or kError). Nesting is
  /// rejected — a sub-frame may carry any request method except kBatch.
  kBatch = 8,
  /// --- Shared-ledger service methods (serve/ledger_service.h). Each
  /// mutation carries a LedgerOpRequest — coordinator id + admission seq
  /// travel with every op so the service's merged BudgetAuditLog stays
  /// replayable and retries dedupe instead of double-charging. A
  /// successful mutation acks with an empty echo frame; a refusal (e.g.
  /// kBudgetExhausted) travels back as a kError frame. kLedgerQuery
  /// carries LedgerQueryRequest and replies with LedgerQueryReply.
  kLedgerRegister = 9,
  kLedgerCharge = 10,
  kLedgerRefund = 11,
  kLedgerSaving = 12,
  kLedgerQuery = 13,
  /// Reply-only: the payload is a serialized non-OK Status.
  kError = 15,
};

/// True for method ids a request frame may carry.
bool IsRequestMethod(uint8_t method);

/// One decoded frame: the method id and the raw payload bytes.
struct RpcFrame {
  RpcMethod method = RpcMethod::kError;
  std::vector<uint8_t> payload;
};

constexpr uint32_t kWireMagic = 0xfeda09c1u;
constexpr uint8_t kWireVersion = 3;
constexpr size_t kFrameHeaderBytes = 10;
/// Upper bound on a frame payload. Protocol messages are tiny (a query is
/// a handful of ranges); the cap exists so a corrupt or hostile length
/// field cannot make a peer allocate gigabytes before reading.
constexpr uint32_t kMaxFramePayloadBytes = 1u << 24;  // 16 MiB

struct FrameHeader {
  RpcMethod method = RpcMethod::kError;
  uint32_t payload_size = 0;
};

/// Appends the 10-byte header for a `payload_size`-byte frame.
void EncodeFrameHeader(RpcMethod method, uint32_t payload_size, ByteWriter* w);

/// Parses and validates a header: magic, version, known method id, and
/// payload_size <= kMaxFramePayloadBytes.
Result<FrameHeader> DecodeFrameHeader(ByteReader* r);

/// Builds a complete frame (header + payload bytes).
std::vector<uint8_t> EncodeFrame(RpcMethod method, const ByteWriter& payload);

/// Splits a kBatch payload back into its sub-frames. Validates every
/// sub-header (magic, version, method, size) against the bytes actually
/// present; rejects nested kBatch frames, kError sub-requests when
/// `requests_only`, and trailing garbage. An empty batch is
/// InvalidArgument — a doorbell with nothing behind it is a peer bug.
Result<std::vector<RpcFrame>> DecodeBatchPayload(
    const std::vector<uint8_t>& payload, bool requests_only);

/// --- Payload codecs, one Encode/Decode pair per protocol struct. Each
/// decoder consumes exactly its payload; frame dispatch rejects trailing
/// garbage via ExpectConsumed.

/// InvalidArgument unless `r` was fully consumed (detects frames whose
/// payload is longer than the message they claim to carry).
Status ExpectConsumed(const ByteReader& r);

void EncodeWorkStats(const ProviderWorkStats& v, ByteWriter* w);
Result<ProviderWorkStats> DecodeWorkStats(ByteReader* r);

void EncodeSchema(const Schema& v, ByteWriter* w);
Result<Schema> DecodeSchema(ByteReader* r);

void EncodeEndpointInfo(const EndpointInfo& v, ByteWriter* w);
Result<EndpointInfo> DecodeEndpointInfo(ByteReader* r);

void EncodeProviderSummary(const ProviderSummary& v, ByteWriter* w);
Result<ProviderSummary> DecodeProviderSummary(ByteReader* r);

void EncodeLocalEstimate(const LocalEstimate& v, ByteWriter* w);
Result<LocalEstimate> DecodeLocalEstimate(ByteReader* r);

void EncodeCoverRequest(const CoverRequest& v, ByteWriter* w);
Result<CoverRequest> DecodeCoverRequest(ByteReader* r);

void EncodeCoverReply(const CoverReply& v, ByteWriter* w);
Result<CoverReply> DecodeCoverReply(ByteReader* r);

void EncodeSummaryRequest(const SummaryRequest& v, ByteWriter* w);
Result<SummaryRequest> DecodeSummaryRequest(ByteReader* r);

void EncodeSummaryReply(const SummaryReply& v, ByteWriter* w);
Result<SummaryReply> DecodeSummaryReply(ByteReader* r);

void EncodeApproximateRequest(const ApproximateRequest& v, ByteWriter* w);
Result<ApproximateRequest> DecodeApproximateRequest(ByteReader* r);

void EncodeExactAnswerRequest(const ExactAnswerRequest& v, ByteWriter* w);
Result<ExactAnswerRequest> DecodeExactAnswerRequest(ByteReader* r);

void EncodeEstimateReply(const EstimateReply& v, ByteWriter* w);
Result<EstimateReply> DecodeEstimateReply(ByteReader* r);

void EncodeExactScanRequest(const ExactScanRequest& v, ByteWriter* w);
Result<ExactScanRequest> DecodeExactScanRequest(ByteReader* r);

void EncodeExactScanReply(const ExactScanReply& v, ByteWriter* w);
Result<ExactScanReply> DecodeExactScanReply(ByteReader* r);

/// Session-release request (ProviderEndpoint::EndQuery takes a bare id;
/// the wire needs a struct). The reply is an empty-payload kEndQuery ack.
struct EndQueryRequest {
  uint64_t query_id = 0;
};
void EncodeEndQueryRequest(const EndQueryRequest& v, ByteWriter* w);
Result<EndQueryRequest> DecodeEndQueryRequest(ByteReader* r);

/// One shared-ledger mutation (kLedgerRegister/Charge/Refund/Saving).
/// For kLedgerRegister (epsilon, delta) carry the (xi, psi) grant; for
/// the others they are the charged/refunded/saved amount. A nonzero
/// (coordinator, seq) pair keys the service's idempotency dedupe: a
/// reconnect-then-retry of the same op returns the recorded outcome
/// instead of applying it twice.
struct LedgerOpRequest {
  uint32_t coordinator = 0;
  uint64_t seq = 0;
  std::string analyst;
  double epsilon = 0.0;
  double delta = 0.0;
};
void EncodeLedgerOpRequest(const LedgerOpRequest& v, ByteWriter* w);
Result<LedgerOpRequest> DecodeLedgerOpRequest(ByteReader* r);

/// Read-only ledger lookup (kLedgerQuery).
struct LedgerQueryRequest {
  std::string analyst;
};
void EncodeLedgerQueryRequest(const LedgerQueryRequest& v, ByteWriter* w);
Result<LedgerQueryRequest> DecodeLedgerQueryRequest(ByteReader* r);

/// The service's view of one analyst. All budget fields are zero when
/// `registered` is 0 (the lookup itself never errors on an unknown
/// analyst — callers map that to NotFound as their interface requires).
struct LedgerQueryReply {
  uint8_t registered = 0;
  double remaining_epsilon = 0.0;
  double remaining_delta = 0.0;
  double spent_epsilon = 0.0;
  double spent_delta = 0.0;
  double saved_epsilon = 0.0;
  double saved_delta = 0.0;
};
void EncodeLedgerQueryReply(const LedgerQueryReply& v, ByteWriter* w);
Result<LedgerQueryReply> DecodeLedgerQueryReply(ByteReader* r);

/// Error payload: a non-OK Status (code + message). Decoding an OK code
/// is InvalidArgument — kError frames must carry an actual error. Out
/// parameter because Result<Status> cannot exist (its two constructors
/// would collide).
void EncodeStatusPayload(const Status& v, ByteWriter* w);
Status DecodeStatusPayload(ByteReader* r, Status* out);

/// --- Framed wire sizes, used by SimNetwork charging so simulated and
/// real byte counts agree by construction: each overload returns the
/// exact size of the frame (header + payload) the codec above emits for
/// that message. Implemented by encoding, so they cannot drift from the
/// codec; messages are small enough that this costs nanoseconds.

/// Size of a frame carrying `payload_bytes` of payload.
constexpr size_t FramedSize(size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

size_t WireSize(const CoverRequest& v);
size_t WireSize(const CoverReply& v);
size_t WireSize(const SummaryRequest& v);
size_t WireSize(const SummaryReply& v);
size_t WireSize(const ApproximateRequest& v);
size_t WireSize(const ExactAnswerRequest& v);
size_t WireSize(const EstimateReply& v);
size_t WireSize(const ExactScanRequest& v);
size_t WireSize(const ExactScanReply& v);
size_t WireSize(const EndQueryRequest& v);
/// The empty-payload EndQuery acknowledgement.
constexpr size_t kEndQueryAckWireSize = FramedSize(0);

}  // namespace fedaqp

#endif  // FEDAQP_RPC_WIRE_H_
