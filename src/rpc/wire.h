#ifndef FEDAQP_RPC_WIRE_H_
#define FEDAQP_RPC_WIRE_H_

#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "exec/endpoint.h"

namespace fedaqp {

/// --- Wire protocol of the remote ProviderEndpoint backend and of the
/// shared-ledger service.
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
/// carrying an ErrorReply.
///
/// One schema describes every payload. Each message struct lists its
/// fields once, in wire order, in a `Fields(visitor, message)` entry
/// below, and one walker derives Encode, Decode and WireSize from those
/// lists, so the sizes charged to SimNetwork and the bytes the TCP
/// transport moves agree by construction. The method table (the `k*Rpc`
/// rows and kRpcMethods) writes each request method's id, trace name,
/// request type and reply type once; it drives both servers' dispatch
/// (ServeRequest) and both clients' typed calls. Declaring a message is
/// one struct, one Fields entry and, for a new method, one table row.
///
/// tests/wire_golden_test.cc holds the exact bytes of every payload and
/// frame kind. Any byte change is a kWireVersion bump plus a golden update
/// in the same change: a peer speaking a different kWireVersion is
/// rejected with InvalidArgument at the frame layer, because silently
/// misparsing a stale peer would corrupt session state.
///
/// Malformed input never crashes or over-reads: decoding fails with
/// OutOfRange when the input is truncated and with InvalidArgument when it
/// is corrupt (a bool byte other than 0/1, a bad schema or status code,
/// trailing bytes).

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
  /// kBudgetExhausted) travels back as a kError frame.
  kLedgerRegister = 9,
  kLedgerCharge = 10,
  kLedgerRefund = 11,
  kLedgerSaving = 12,
  kLedgerQuery = 13,
  /// Reply-only: the payload is an ErrorReply.
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
constexpr uint8_t kWireVersion = 4;
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

/// Appends one complete frame (header + payload bytes) to `out`.
void AppendFrame(RpcMethod method, const ByteWriter& payload, ByteWriter* out);

/// Builds a complete frame (header + payload bytes).
std::vector<uint8_t> EncodeFrame(RpcMethod method, const ByteWriter& payload);

/// Size of a frame carrying `payload_bytes` of payload.
constexpr size_t FramedSize(size_t payload_bytes) {
  return kFrameHeaderBytes + payload_bytes;
}

/// Splits a kBatch payload back into its sub-frames. Validates every
/// sub-header (magic, version, method, size) against the bytes actually
/// present; rejects nested kBatch frames, kError sub-requests when
/// `requests_only`, and trailing garbage. An empty batch is
/// InvalidArgument — a doorbell with nothing behind it is a peer bug.
Result<std::vector<RpcFrame>> DecodeBatchPayload(
    const std::vector<uint8_t>& payload, bool requests_only);

/// --- Messages the wire carries besides ProviderEndpoint's own
/// (exec/endpoint.h).

/// No fields: kInfo's request, and the acks of kEndQuery and of the
/// ledger mutations.
struct Empty {};

/// Session release (ProviderEndpoint::EndQuery takes a bare id; the wire
/// needs a struct).
struct EndQueryRequest {
  uint64_t query_id = 0;
};

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

/// Read-only ledger lookup (kLedgerQuery).
struct LedgerQueryRequest {
  std::string analyst;
};

/// The service's view of one analyst. All budgets are zero when the
/// analyst is not `registered` (the lookup itself never errors on an
/// unknown analyst — callers map that to NotFound as their interface
/// requires).
struct LedgerQueryReply {
  bool registered = false;
  PrivacyBudget remaining{0.0, 0.0};
  PrivacyBudget spent{0.0, 0.0};
  PrivacyBudget saved{0.0, 0.0};
};

/// The kError payload: a non-OK Status (code + message). Decoding an OK
/// code is InvalidArgument — kError frames must carry an actual error.
struct ErrorReply {
  Status status;
};

/// --- Field lists: every struct the codec carries names its members
/// once, in wire order. A member whose type is not a leaf (kIsWireLeaf
/// below) is a struct with its own list.

template <typename V>
void Fields(V&, Empty&) {}

template <typename V>
void Fields(V& v, ProviderWorkStats& m) {
  v("clusters_scanned", m.clusters_scanned);
  v("rows_scanned", m.rows_scanned);
  v("compute_seconds", m.compute_seconds);
}

template <typename V>
void Fields(V& v, PrivacyBudget& m) {
  v("epsilon", m.epsilon);
  v("delta", m.delta);
}

template <typename V>
void Fields(V& v, ProviderSummary& m) {
  v("noisy_avg_r", m.noisy_avg_r);
  v("noisy_n_q", m.noisy_n_q);
  v("epsilon_spent", m.epsilon_spent);
  v("work", m.work);
}

template <typename V>
void Fields(V& v, LocalEstimate& m) {
  v("estimate", m.estimate);
  v("variance", m.variance);
  v("sensitivity", m.sensitivity);
  v("exact", m.exact);
  v("noised", m.noised);
  v("spent", m.spent);
  v("work", m.work);
}

template <typename V>
void Fields(V& v, EndpointInfo& m) {
  v("name", m.name);
  v("schema", m.schema);
  v("cluster_capacity", m.cluster_capacity);
  v("n_min", m.n_min);
}

template <typename V>
void Fields(V& v, CoverRequest& m) {
  v("query_id", m.query_id);
  v("session_nonce", m.session_nonce);
  v("query", m.query);
}

template <typename V>
void Fields(V& v, CoverReply& m) {
  v("should_approximate", m.should_approximate);
  v("work", m.work);
}

template <typename V>
void Fields(V& v, SummaryRequest& m) {
  v("query_id", m.query_id);
  v("eps_allocation", m.eps_allocation);
}

template <typename V>
void Fields(V& v, SummaryReply& m) {
  v("summary", m.summary);
}

template <typename V>
void Fields(V& v, ApproximateRequest& m) {
  v("query_id", m.query_id);
  v("sample_size", m.sample_size);
  v("eps_sampling", m.eps_sampling);
  v("eps_estimate", m.eps_estimate);
  v("delta", m.delta);
  v("add_noise", m.add_noise);
  v("round", m.round);
  v("rounds", m.rounds);
}

template <typename V>
void Fields(V& v, ExactAnswerRequest& m) {
  v("query_id", m.query_id);
  v("eps_estimate", m.eps_estimate);
  v("add_noise", m.add_noise);
}

template <typename V>
void Fields(V& v, EstimateReply& m) {
  v("estimate", m.estimate);
}

template <typename V>
void Fields(V& v, ExactScanRequest& m) {
  v("query", m.query);
}

template <typename V>
void Fields(V& v, ExactScanReply& m) {
  v("value", m.value);
  v("work", m.work);
}

template <typename V>
void Fields(V& v, EndQueryRequest& m) {
  v("query_id", m.query_id);
}

template <typename V>
void Fields(V& v, LedgerOpRequest& m) {
  v("coordinator", m.coordinator);
  v("seq", m.seq);
  v("analyst", m.analyst);
  v("epsilon", m.epsilon);
  v("delta", m.delta);
}

template <typename V>
void Fields(V& v, LedgerQueryRequest& m) {
  v("analyst", m.analyst);
}

template <typename V>
void Fields(V& v, LedgerQueryReply& m) {
  v("registered", m.registered);
  v("remaining", m.remaining);
  v("spent", m.spent);
  v("saved", m.saved);
}

template <typename V>
void Fields(V& v, ErrorReply& m) {
  v("status", m.status);
}

/// --- The walker. Its leaf types, each with one Put/Get pair: bool (one
/// byte, 0 or 1), uint32_t, uint64_t (size_t travels as u64), double,
/// std::string, RangeQuery (its Serialize/Deserialize), and Schema and
/// Status (both validated on decode).
template <typename T>
constexpr bool kIsWireLeaf =
    std::is_same_v<T, bool> || std::is_same_v<T, uint32_t> ||
    std::is_same_v<T, uint64_t> || std::is_same_v<T, double> ||
    std::is_same_v<T, std::string> || std::is_same_v<T, RangeQuery> ||
    std::is_same_v<T, Schema> || std::is_same_v<T, Status>;

namespace wire_internal {

inline void Put(bool v, ByteWriter* w) { w->PutU8(v ? 1 : 0); }
inline void Put(uint32_t v, ByteWriter* w) { w->PutU32(v); }
inline void Put(uint64_t v, ByteWriter* w) { w->PutU64(v); }
inline void Put(double v, ByteWriter* w) { w->PutDouble(v); }
inline void Put(const std::string& v, ByteWriter* w) { w->PutString(v); }
inline void Put(const RangeQuery& v, ByteWriter* w) { v.Serialize(w); }
void Put(const Schema& v, ByteWriter* w);
void Put(const Status& v, ByteWriter* w);

/// Moves a read value into *v, or returns the read's error.
template <typename T, typename U>
Status Take(Result<U> got, T* v) {
  if (!got.ok()) return got.status();
  *v = std::move(got).value();
  return Status::OK();
}
Status Get(ByteReader* r, bool* v);
inline Status Get(ByteReader* r, uint32_t* v) { return Take(r->GetU32(), v); }
inline Status Get(ByteReader* r, uint64_t* v) { return Take(r->GetU64(), v); }
inline Status Get(ByteReader* r, double* v) { return Take(r->GetDouble(), v); }
inline Status Get(ByteReader* r, std::string* v) {
  return Take(r->GetString(), v);
}
inline Status Get(ByteReader* r, RangeQuery* v) {
  return Take(RangeQuery::Deserialize(r), v);
}
Status Get(ByteReader* r, Schema* v);
Status Get(ByteReader* r, Status* v);
Status TrailingBytes(size_t count);

/// Writes every field a list names.
class Writer {
 public:
  explicit Writer(ByteWriter* w) : w_(w) {}

  template <typename T>
  void operator()(const char* /*name*/, const T& v) {
    if constexpr (kIsWireLeaf<T>) {
      Put(v, w_);
    } else {
      // Lists take a mutable reference so that one list serves both
      // directions; writing only reads through it.
      Fields(*this, const_cast<T&>(v));
    }
  }

 private:
  ByteWriter* w_;
};

/// Reads the fields back in list order, stopping at the first error: no
/// field after a bad one is read.
class Reader {
 public:
  explicit Reader(ByteReader* r) : r_(r) {}

  const Status& status() const { return status_; }

  template <typename T>
  void operator()(const char* /*name*/, T& v) {
    if (!status_.ok()) return;
    if constexpr (kIsWireLeaf<T>) {
      status_ = Get(r_, &v);
    } else {
      Fields(*this, v);
    }
  }

 private:
  ByteReader* r_;
  Status status_;
};

}  // namespace wire_internal

/// Appends `message`'s payload (no frame header) to `w`.
template <typename T>
void Encode(const T& message, ByteWriter* w) {
  wire_internal::Writer writer(w);
  writer("", message);
}

/// Decodes a whole payload as a T; bytes left over are InvalidArgument.
template <typename T>
Result<T> Decode(const std::vector<uint8_t>& payload) {
  ByteReader r(payload);
  wire_internal::Reader reader(&r);
  T message;
  reader("", message);
  FEDAQP_RETURN_IF_ERROR(reader.status());
  if (!r.AtEnd()) return wire_internal::TrailingBytes(r.remaining());
  return message;
}

/// The exact size of the frame (header + payload) carrying `message`,
/// for SimNetwork charging. Computed by encoding, so it cannot drift from
/// the codec; messages are small enough that this costs nanoseconds.
template <typename T>
size_t WireSize(const T& message) {
  ByteWriter w;
  Encode(message, &w);
  return FramedSize(w.size());
}

/// --- The method table: one row per request method, naming its id, its
/// trace name (spans `rpc/<name>` client-side, `server/<name>`
/// server-side), and its request and reply types. kBatch (a container of
/// request frames) and kError (reply-only) are not rows.

template <typename Req, typename Rep>
struct RpcRow {
  using Request = Req;
  using Reply = Rep;
  RpcMethod id;
  const char* name;
};

inline constexpr RpcRow<Empty, EndpointInfo> kInfoRpc{RpcMethod::kInfo,
                                                      "info"};
inline constexpr RpcRow<CoverRequest, CoverReply> kCoverRpc{RpcMethod::kCover,
                                                            "cover"};
inline constexpr RpcRow<SummaryRequest, SummaryReply> kPublishSummaryRpc{
    RpcMethod::kPublishSummary, "publish_summary"};
inline constexpr RpcRow<ApproximateRequest, EstimateReply> kApproximateRpc{
    RpcMethod::kApproximate, "approximate"};
inline constexpr RpcRow<ExactAnswerRequest, EstimateReply> kExactAnswerRpc{
    RpcMethod::kExactAnswer, "exact_answer"};
inline constexpr RpcRow<ExactScanRequest, ExactScanReply> kExactFullScanRpc{
    RpcMethod::kExactFullScan, "exact_full_scan"};
inline constexpr RpcRow<EndQueryRequest, Empty> kEndQueryRpc{
    RpcMethod::kEndQuery, "end_query"};
inline constexpr RpcRow<LedgerOpRequest, Empty> kLedgerRegisterRpc{
    RpcMethod::kLedgerRegister, "ledger_register"};
inline constexpr RpcRow<LedgerOpRequest, Empty> kLedgerChargeRpc{
    RpcMethod::kLedgerCharge, "ledger_charge"};
inline constexpr RpcRow<LedgerOpRequest, Empty> kLedgerRefundRpc{
    RpcMethod::kLedgerRefund, "ledger_refund"};
inline constexpr RpcRow<LedgerOpRequest, Empty> kLedgerSavingRpc{
    RpcMethod::kLedgerSaving, "ledger_saving"};
inline constexpr RpcRow<LedgerQueryRequest, LedgerQueryReply> kLedgerQueryRpc{
    RpcMethod::kLedgerQuery, "ledger_query"};

/// Every row, for code that walks the whole table.
inline constexpr auto kRpcMethods = std::make_tuple(
    kInfoRpc, kCoverRpc, kPublishSummaryRpc, kApproximateRpc, kExactAnswerRpc,
    kExactFullScanRpc, kEndQueryRpc, kLedgerRegisterRpc, kLedgerChargeRpc,
    kLedgerRefundRpc, kLedgerSavingRpc, kLedgerQueryRpc);

/// Calls `fn(row)` (which returns bool) for the row whose id is `method`
/// and returns its result; false when no row has that id.
template <typename Fn>
bool VisitRow(RpcMethod method, Fn&& fn) {
  return std::apply(
      [&](const auto&... row) {
        return ((row.id == method && fn(row)) || ...);
      },
      kRpcMethods);
}

/// The trace name of `method`: its row's name, else "batch" or "error".
const char* MethodName(RpcMethod method);

/// --- Replies.

/// The one reply writer: appends to `out` the complete frame answering a
/// `method` request — `reply`'s value under `method`, or, when `reply`
/// holds an error, a kError frame carrying it.
template <typename Reply>
void AppendReply(RpcMethod method, const Result<Reply>& reply,
                 ByteWriter* out) {
  ByteWriter payload;
  if (reply.ok()) {
    Encode(*reply, &payload);
  } else {
    Encode(ErrorReply{reply.status()}, &payload);
    method = RpcMethod::kError;
  }
  AppendFrame(method, payload, out);
}

/// The one reply rule every client applies to a frame answering a
/// `method` request: a kError frame yields the refusal it carries; any
/// other frame must echo `method`, and is returned, its payload holding
/// that method's reply. A frame that breaks the rule (an undecodable
/// error, a wrong method) is ProtocolError and sets *broken, so the client
/// can poison its connection; a refusal leaves *broken alone.
Result<RpcFrame> UnwrapReply(RpcFrame frame, RpcMethod method, bool* broken);

/// The one request dispatcher both servers share. For the table row that
/// `frame` names, if `serve(RpcMethod, Row::Request&)` exists (returning
/// Result<Row::Reply>), decodes the request, calls it and appends its
/// reply frame to `out`. An undecodable request gets its decode error,
/// and every other method one shared InvalidArgument refusal (the caller
/// dialled the wrong kind of server); the stream stays in sync.
template <typename Serve>
void ServeRequest(const RpcFrame& frame, Serve&& serve, ByteWriter* out) {
  const bool served = VisitRow(frame.method, [&](const auto& row) {
    using Row = std::decay_t<decltype(row)>;
    using Request = typename Row::Request;
    if constexpr (std::is_invocable_v<Serve&, RpcMethod, Request&>) {
      Result<Request> request = Decode<Request>(frame.payload);
      if (request.ok()) {
        AppendReply<typename Row::Reply>(row.id, serve(row.id, *request), out);
      } else {
        AppendReply<typename Row::Reply>(row.id, request.status(), out);
      }
      return true;
    } else {
      return false;
    }
  });
  if (!served) {
    AppendReply<Empty>(frame.method,
                       Status::InvalidArgument(
                           std::string("rpc: method ") +
                           MethodName(frame.method) + " is not served here"),
                       out);
  }
}

}  // namespace fedaqp

#endif  // FEDAQP_RPC_WIRE_H_
