#include "rpc/wire.h"

#include <string>
#include <type_traits>
#include <utility>

namespace fedaqp {

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

void AppendFrame(RpcMethod method, const ByteWriter& payload, ByteWriter* out) {
  EncodeFrameHeader(method, static_cast<uint32_t>(payload.size()), out);
  out->PutRaw(payload.bytes().data(), payload.size());
}

std::vector<uint8_t> EncodeFrame(RpcMethod method, const ByteWriter& payload) {
  ByteWriter frame;
  AppendFrame(method, payload, &frame);
  return frame.bytes();
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

namespace wire_internal {

static_assert(std::is_same_v<size_t, uint64_t>,
              "size_t members travel as u64 through the uint64_t leaf");

void Put(const Schema& v, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(v.num_dims()));
  for (const Dimension& d : v.dims()) {
    w->PutString(d.name);
    w->PutI64(d.domain_size);
  }
}

void Put(const Status& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.code()));
  w->PutString(v.message());
}

Status Get(ByteReader* r, bool* v) {
  FEDAQP_ASSIGN_OR_RETURN(uint8_t byte, r->GetU8());
  if (byte > 1) {
    return Status::InvalidArgument("wire: bool byte must be 0 or 1");
  }
  *v = byte != 0;
  return Status::OK();
}

Status Get(ByteReader* r, Schema* v) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  // Each dimension is at least a u32 name length + an i64 domain. A
  // hostile count may promise billions of dimensions inside a kilobyte
  // payload; refuse it before reading any of them.
  if (n > r->remaining() / 12) {
    return Status::OutOfRange("wire: element count exceeds payload");
  }
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    FEDAQP_ASSIGN_OR_RETURN(std::string name, r->GetString());
    FEDAQP_ASSIGN_OR_RETURN(int64_t domain, r->GetI64());
    // AddDimension re-validates (positive domain, unique name), so a
    // corrupt schema is rejected rather than constructed.
    FEDAQP_RETURN_IF_ERROR(schema.AddDimension(name, domain));
  }
  *v = std::move(schema);
  return Status::OK();
}

Status Get(ByteReader* r, Status* v) {
  FEDAQP_ASSIGN_OR_RETURN(uint8_t code, r->GetU8());
  // The cap must track the last StatusCode enumerator, or the codec
  // rejects as corrupt a status it can itself encode.
  if (code == static_cast<uint8_t>(StatusCode::kOk) ||
      code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("wire: bad status code in error frame");
  }
  FEDAQP_ASSIGN_OR_RETURN(std::string message, r->GetString());
  *v = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

Status TrailingBytes(size_t count) {
  return Status::InvalidArgument("wire: " + std::to_string(count) +
                                 " trailing payload bytes");
}

}  // namespace wire_internal

const char* MethodName(RpcMethod method) {
  const char* name = method == RpcMethod::kBatch ? "batch" : "error";
  VisitRow(method, [&name](const auto& row) {
    name = row.name;
    return true;
  });
  return name;
}

Result<RpcFrame> UnwrapReply(RpcFrame frame, RpcMethod method, bool* broken) {
  if (frame.method == RpcMethod::kError) {
    Result<ErrorReply> error = Decode<ErrorReply>(frame.payload);
    if (error.ok()) return error->status;
    *broken = true;
    return Status::ProtocolError("rpc: undecodable error reply");
  }
  if (frame.method != method) {
    *broken = true;
    return Status::ProtocolError("rpc: reply method does not echo request");
  }
  return frame;
}

}  // namespace fedaqp
