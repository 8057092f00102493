#include "rpc/wire.h"

#include <string>
#include <utility>

namespace fedaqp {

namespace {

/// Decodes a bool serialized as one byte; anything but 0/1 is corrupt.
Result<bool> DecodeBool(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint8_t b, r->GetU8());
  if (b > 1) {
    return Status::InvalidArgument("wire: bool byte must be 0 or 1");
  }
  return b != 0;
}

void EncodeBool(bool v, ByteWriter* w) { w->PutU8(v ? 1 : 0); }

/// Validates a decoded element count against the bytes actually present:
/// a hostile count field may promise billions of elements inside a
/// kilobyte payload, and reserving for it would allocate before any
/// bounds check fires.
Status CheckCount(uint64_t count, size_t min_bytes_each, const ByteReader& r) {
  if (min_bytes_each != 0 && count > r.remaining() / min_bytes_each) {
    return Status::OutOfRange("wire: element count exceeds payload");
  }
  return Status::OK();
}

}  // namespace

bool IsRequestMethod(uint8_t method) {
  // kInfo..kEndQuery, kBatch, and the kLedger* block are contiguous ids.
  return method >= static_cast<uint8_t>(RpcMethod::kInfo) &&
         method <= static_cast<uint8_t>(RpcMethod::kLedgerQuery);
}

void EncodeFrameHeader(RpcMethod method, uint32_t payload_size, ByteWriter* w) {
  w->PutU32(kWireMagic);
  w->PutU8(kWireVersion);
  w->PutU8(static_cast<uint8_t>(method));
  w->PutU32(payload_size);
}

Result<FrameHeader> DecodeFrameHeader(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t magic, r->GetU32());
  if (magic != kWireMagic) {
    return Status::InvalidArgument("wire: bad frame magic");
  }
  FEDAQP_ASSIGN_OR_RETURN(uint8_t version, r->GetU8());
  if (version != kWireVersion) {
    return Status::InvalidArgument("wire: unsupported protocol version " +
                                   std::to_string(version));
  }
  FEDAQP_ASSIGN_OR_RETURN(uint8_t method, r->GetU8());
  if (!IsRequestMethod(method) &&
      method != static_cast<uint8_t>(RpcMethod::kError)) {
    return Status::InvalidArgument("wire: unknown method id " +
                                   std::to_string(method));
  }
  FEDAQP_ASSIGN_OR_RETURN(uint32_t payload_size, r->GetU32());
  if (payload_size > kMaxFramePayloadBytes) {
    return Status::OutOfRange("wire: frame payload of " +
                              std::to_string(payload_size) +
                              " bytes exceeds the 16 MiB cap");
  }
  return FrameHeader{static_cast<RpcMethod>(method), payload_size};
}

std::vector<uint8_t> EncodeFrame(RpcMethod method, const ByteWriter& payload) {
  ByteWriter frame;
  EncodeFrameHeader(method, static_cast<uint32_t>(payload.size()), &frame);
  std::vector<uint8_t> bytes = frame.bytes();
  bytes.insert(bytes.end(), payload.bytes().begin(), payload.bytes().end());
  return bytes;
}

Result<std::vector<RpcFrame>> DecodeBatchPayload(
    const std::vector<uint8_t>& payload, bool requests_only) {
  ByteReader reader(payload);
  std::vector<RpcFrame> frames;
  while (!reader.AtEnd()) {
    // DecodeFrameHeader validates magic/version/method/size, so a corrupt
    // or hostile sub-header fails here instead of desyncing the split.
    FEDAQP_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(&reader));
    if (header.method == RpcMethod::kBatch) {
      return Status::InvalidArgument("wire: nested batch frame");
    }
    if (requests_only && header.method == RpcMethod::kError) {
      return Status::InvalidArgument(
          "wire: error frame inside a request batch");
    }
    if (header.payload_size > reader.remaining()) {
      return Status::OutOfRange("wire: batch sub-frame truncated");
    }
    RpcFrame frame;
    frame.method = header.method;
    FEDAQP_ASSIGN_OR_RETURN(frame.payload,
                            reader.GetBytes(header.payload_size));
    frames.push_back(std::move(frame));
  }
  if (frames.empty()) {
    return Status::InvalidArgument("wire: empty batch frame");
  }
  return frames;
}

Status ExpectConsumed(const ByteReader& r) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument("wire: " + std::to_string(r.remaining()) +
                                   " trailing payload bytes");
  }
  return Status::OK();
}

void EncodeWorkStats(const ProviderWorkStats& v, ByteWriter* w) {
  w->PutU64(v.clusters_scanned);
  w->PutU64(v.rows_scanned);
  w->PutDouble(v.compute_seconds);
}

Result<ProviderWorkStats> DecodeWorkStats(ByteReader* r) {
  ProviderWorkStats v;
  FEDAQP_ASSIGN_OR_RETURN(uint64_t clusters, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(uint64_t rows, r->GetU64());
  v.clusters_scanned = clusters;
  v.rows_scanned = rows;
  FEDAQP_ASSIGN_OR_RETURN(v.compute_seconds, r->GetDouble());
  return v;
}

void EncodeSchema(const Schema& v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.num_dims()));
  for (const Dimension& d : v.dims()) {
    w->PutString(d.name);
    w->PutI64(d.domain_size);
  }
}

Result<Schema> DecodeSchema(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  // Each dimension is at least a u32 name length + an i64 domain.
  FEDAQP_RETURN_IF_ERROR(CheckCount(n, 12, *r));
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    FEDAQP_ASSIGN_OR_RETURN(std::string name, r->GetString());
    FEDAQP_ASSIGN_OR_RETURN(int64_t domain, r->GetI64());
    // AddDimension re-validates (positive domain, unique name), so a
    // corrupt schema is rejected rather than constructed.
    FEDAQP_RETURN_IF_ERROR(schema.AddDimension(name, domain));
  }
  return schema;
}

void EncodeEndpointInfo(const EndpointInfo& v, ByteWriter* w) {
  w->PutString(v.name);
  EncodeSchema(v.schema, w);
  w->PutU64(v.cluster_capacity);
  w->PutU64(v.n_min);
}

Result<EndpointInfo> DecodeEndpointInfo(ByteReader* r) {
  EndpointInfo v;
  FEDAQP_ASSIGN_OR_RETURN(v.name, r->GetString());
  FEDAQP_ASSIGN_OR_RETURN(v.schema, DecodeSchema(r));
  FEDAQP_ASSIGN_OR_RETURN(uint64_t capacity, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(uint64_t n_min, r->GetU64());
  v.cluster_capacity = capacity;
  v.n_min = n_min;
  return v;
}

void EncodeProviderSummary(const ProviderSummary& v, ByteWriter* w) {
  w->PutDouble(v.noisy_avg_r);
  w->PutDouble(v.noisy_n_q);
  w->PutDouble(v.epsilon_spent);
  EncodeWorkStats(v.work, w);
}

Result<ProviderSummary> DecodeProviderSummary(ByteReader* r) {
  ProviderSummary v;
  FEDAQP_ASSIGN_OR_RETURN(v.noisy_avg_r, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.noisy_n_q, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.epsilon_spent, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.work, DecodeWorkStats(r));
  return v;
}

void EncodeLocalEstimate(const LocalEstimate& v, ByteWriter* w) {
  w->PutDouble(v.estimate);
  w->PutDouble(v.variance);
  w->PutDouble(v.sensitivity);
  EncodeBool(v.exact, w);
  EncodeBool(v.noised, w);
  w->PutDouble(v.spent.epsilon);
  w->PutDouble(v.spent.delta);
  EncodeWorkStats(v.work, w);
}

Result<LocalEstimate> DecodeLocalEstimate(ByteReader* r) {
  LocalEstimate v;
  FEDAQP_ASSIGN_OR_RETURN(v.estimate, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.variance, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.sensitivity, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.exact, DecodeBool(r));
  FEDAQP_ASSIGN_OR_RETURN(v.noised, DecodeBool(r));
  FEDAQP_ASSIGN_OR_RETURN(v.spent.epsilon, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.spent.delta, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.work, DecodeWorkStats(r));
  return v;
}

void EncodeCoverRequest(const CoverRequest& v, ByteWriter* w) {
  w->PutU64(v.query_id);
  w->PutU64(v.session_nonce);
  v.query.Serialize(w);
}

Result<CoverRequest> DecodeCoverRequest(ByteReader* r) {
  CoverRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query_id, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(v.session_nonce, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(v.query, RangeQuery::Deserialize(r));
  return v;
}

void EncodeCoverReply(const CoverReply& v, ByteWriter* w) {
  EncodeBool(v.should_approximate, w);
  EncodeWorkStats(v.work, w);
}

Result<CoverReply> DecodeCoverReply(ByteReader* r) {
  CoverReply v;
  FEDAQP_ASSIGN_OR_RETURN(v.should_approximate, DecodeBool(r));
  FEDAQP_ASSIGN_OR_RETURN(v.work, DecodeWorkStats(r));
  return v;
}

void EncodeSummaryRequest(const SummaryRequest& v, ByteWriter* w) {
  w->PutU64(v.query_id);
  w->PutDouble(v.eps_allocation);
}

Result<SummaryRequest> DecodeSummaryRequest(ByteReader* r) {
  SummaryRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query_id, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(v.eps_allocation, r->GetDouble());
  return v;
}

void EncodeSummaryReply(const SummaryReply& v, ByteWriter* w) {
  EncodeProviderSummary(v.summary, w);
}

Result<SummaryReply> DecodeSummaryReply(ByteReader* r) {
  SummaryReply v;
  FEDAQP_ASSIGN_OR_RETURN(v.summary, DecodeProviderSummary(r));
  return v;
}

void EncodeApproximateRequest(const ApproximateRequest& v, ByteWriter* w) {
  w->PutU64(v.query_id);
  w->PutU64(v.sample_size);
  w->PutDouble(v.eps_sampling);
  w->PutDouble(v.eps_estimate);
  w->PutDouble(v.delta);
  EncodeBool(v.add_noise, w);
}

Result<ApproximateRequest> DecodeApproximateRequest(ByteReader* r) {
  ApproximateRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query_id, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(uint64_t sample, r->GetU64());
  v.sample_size = sample;
  FEDAQP_ASSIGN_OR_RETURN(v.eps_sampling, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.eps_estimate, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.delta, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.add_noise, DecodeBool(r));
  return v;
}

void EncodeExactAnswerRequest(const ExactAnswerRequest& v, ByteWriter* w) {
  w->PutU64(v.query_id);
  w->PutDouble(v.eps_estimate);
  EncodeBool(v.add_noise, w);
}

Result<ExactAnswerRequest> DecodeExactAnswerRequest(ByteReader* r) {
  ExactAnswerRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query_id, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(v.eps_estimate, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.add_noise, DecodeBool(r));
  return v;
}

void EncodeEstimateReply(const EstimateReply& v, ByteWriter* w) {
  EncodeLocalEstimate(v.estimate, w);
}

Result<EstimateReply> DecodeEstimateReply(ByteReader* r) {
  EstimateReply v;
  FEDAQP_ASSIGN_OR_RETURN(v.estimate, DecodeLocalEstimate(r));
  return v;
}

void EncodeExactScanRequest(const ExactScanRequest& v, ByteWriter* w) {
  v.query.Serialize(w);
}

Result<ExactScanRequest> DecodeExactScanRequest(ByteReader* r) {
  ExactScanRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query, RangeQuery::Deserialize(r));
  return v;
}

void EncodeExactScanReply(const ExactScanReply& v, ByteWriter* w) {
  w->PutDouble(v.value);
  EncodeWorkStats(v.work, w);
}

Result<ExactScanReply> DecodeExactScanReply(ByteReader* r) {
  ExactScanReply v;
  FEDAQP_ASSIGN_OR_RETURN(v.value, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.work, DecodeWorkStats(r));
  return v;
}

void EncodeEndQueryRequest(const EndQueryRequest& v, ByteWriter* w) {
  w->PutU64(v.query_id);
}

Result<EndQueryRequest> DecodeEndQueryRequest(ByteReader* r) {
  EndQueryRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.query_id, r->GetU64());
  return v;
}

void EncodeLedgerOpRequest(const LedgerOpRequest& v, ByteWriter* w) {
  w->PutU32(v.coordinator);
  w->PutU64(v.seq);
  w->PutString(v.analyst);
  w->PutDouble(v.epsilon);
  w->PutDouble(v.delta);
}

Result<LedgerOpRequest> DecodeLedgerOpRequest(ByteReader* r) {
  LedgerOpRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.coordinator, r->GetU32());
  FEDAQP_ASSIGN_OR_RETURN(v.seq, r->GetU64());
  FEDAQP_ASSIGN_OR_RETURN(v.analyst, r->GetString());
  FEDAQP_ASSIGN_OR_RETURN(v.epsilon, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.delta, r->GetDouble());
  return v;
}

void EncodeLedgerQueryRequest(const LedgerQueryRequest& v, ByteWriter* w) {
  w->PutString(v.analyst);
}

Result<LedgerQueryRequest> DecodeLedgerQueryRequest(ByteReader* r) {
  LedgerQueryRequest v;
  FEDAQP_ASSIGN_OR_RETURN(v.analyst, r->GetString());
  return v;
}

void EncodeLedgerQueryReply(const LedgerQueryReply& v, ByteWriter* w) {
  w->PutU8(v.registered);
  w->PutDouble(v.remaining_epsilon);
  w->PutDouble(v.remaining_delta);
  w->PutDouble(v.spent_epsilon);
  w->PutDouble(v.spent_delta);
  w->PutDouble(v.saved_epsilon);
  w->PutDouble(v.saved_delta);
}

Result<LedgerQueryReply> DecodeLedgerQueryReply(ByteReader* r) {
  LedgerQueryReply v;
  FEDAQP_ASSIGN_OR_RETURN(v.registered, r->GetU8());
  if (v.registered > 1) {
    return Status::InvalidArgument("wire: bad registered flag in ledger reply");
  }
  FEDAQP_ASSIGN_OR_RETURN(v.remaining_epsilon, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.remaining_delta, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.spent_epsilon, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.spent_delta, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.saved_epsilon, r->GetDouble());
  FEDAQP_ASSIGN_OR_RETURN(v.saved_delta, r->GetDouble());
  return v;
}

void EncodeStatusPayload(const Status& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.code()));
  w->PutString(v.message());
}

Status DecodeStatusPayload(ByteReader* r, Status* out) {
  FEDAQP_ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  // The cap must track the last StatusCode enumerator, or the codec
  // rejects as corrupt a status it can itself encode.
  if (code == static_cast<uint8_t>(StatusCode::kOk) ||
      code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("wire: bad status code in error frame");
  }
  FEDAQP_ASSIGN_OR_RETURN(std::string message, r->GetString());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

namespace {

/// Framed size by actual encoding — cannot drift from the codec.
template <typename T, void (*Encode)(const T&, ByteWriter*)>
size_t EncodedWireSize(const T& v) {
  ByteWriter w;
  Encode(v, &w);
  return FramedSize(w.size());
}

}  // namespace

size_t WireSize(const CoverRequest& v) {
  return EncodedWireSize<CoverRequest, EncodeCoverRequest>(v);
}
size_t WireSize(const CoverReply& v) {
  return EncodedWireSize<CoverReply, EncodeCoverReply>(v);
}
size_t WireSize(const SummaryRequest& v) {
  return EncodedWireSize<SummaryRequest, EncodeSummaryRequest>(v);
}
size_t WireSize(const SummaryReply& v) {
  return EncodedWireSize<SummaryReply, EncodeSummaryReply>(v);
}
size_t WireSize(const ApproximateRequest& v) {
  return EncodedWireSize<ApproximateRequest, EncodeApproximateRequest>(v);
}
size_t WireSize(const ExactAnswerRequest& v) {
  return EncodedWireSize<ExactAnswerRequest, EncodeExactAnswerRequest>(v);
}
size_t WireSize(const EstimateReply& v) {
  return EncodedWireSize<EstimateReply, EncodeEstimateReply>(v);
}
size_t WireSize(const ExactScanRequest& v) {
  return EncodedWireSize<ExactScanRequest, EncodeExactScanRequest>(v);
}
size_t WireSize(const ExactScanReply& v) {
  return EncodedWireSize<ExactScanReply, EncodeExactScanReply>(v);
}
size_t WireSize(const EndQueryRequest& v) {
  return EncodedWireSize<EndQueryRequest, EncodeEndQueryRequest>(v);
}

}  // namespace fedaqp
