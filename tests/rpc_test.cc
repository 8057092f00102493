// Wire-codec robustness suite. The tests walk the schema (each method
// table row's request and reply, plus ErrorReply) instead of building
// messages by hand: seeded random round trips compared field by field, a
// check that every field list names every member, and seeded prefix and
// mutation fuzzing of every payload, frame header and kBatch payload,
// which must fail with a Status, never crash or over-read. Also the one
// reply writer, unwrapper and dispatcher, the regression pinning
// SimNetwork's charges to the codec's framed sizes, and the `host:port`
// parser every dialler shares. The exact bytes are in
// wire_golden_test.cc.

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <typeinfo>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "execute_query.h"
#include "federation/orchestrator.h"
#include "fixture.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace fedaqp {
namespace {

// ------------------------------------------------- the schema, walked --

/// Calls `fn(message)` once per message type the wire carries.
template <typename Fn>
void ForEachMessage(Fn&& fn) {
  std::apply(
      [&](const auto&... row) {
        (fn(typename std::decay_t<decltype(row)>::Request{}), ...);
        (fn(typename std::decay_t<decltype(row)>::Reply{}), ...);
      },
      kRpcMethods);
  fn(ErrorReply{});
}

/// Fills every field it visits with seeded random values.
class RandomFill {
 public:
  explicit RandomFill(Rng* rng) : rng_(rng) {}

  template <typename T>
  void operator()(const char* /*name*/, T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      v = rng_->Bernoulli(0.5);
    } else if constexpr (std::is_integral_v<T>) {
      v = static_cast<T>(rng_->NextU64());
    } else if constexpr (std::is_same_v<T, double>) {
      v = rng_->Normal() * 1e6;
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = Word();
    } else if constexpr (std::is_same_v<T, RangeQuery>) {
      std::vector<DimRange> ranges(rng_->UniformU64(4));
      for (DimRange& r : ranges) {
        r = DimRange{rng_->UniformU64(8), rng_->UniformInt(-1000, 1000),
                     rng_->UniformInt(-1000, 1000)};
      }
      v = RangeQuery(static_cast<Aggregation>(rng_->UniformU64(3)), ranges);
    } else if constexpr (std::is_same_v<T, Schema>) {
      v = Schema();
      for (uint64_t d = rng_->UniformU64(5); d > 0; --d) {
        ASSERT_TRUE(v.AddDimension(Word() + std::to_string(d),
                                   rng_->UniformInt(1, 1 << 20))
                        .ok());
      }
    } else if constexpr (std::is_same_v<T, Status>) {
      const uint64_t codes = static_cast<uint64_t>(StatusCode::kUnavailable);
      v = Status(static_cast<StatusCode>(1 + rng_->UniformU64(codes)), Word());
    } else {
      Fields(*this, v);
    }
  }

 private:
  std::string Word() {
    std::string s(rng_->UniformU64(12), 'a');
    for (char& c : s) c = static_cast<char>('a' + rng_->UniformU64(26));
    return s;
  }

  Rng* rng_;
};

template <typename T>
T RandomMessage(Rng* rng) {
  T message;
  RandomFill fill(rng);
  fill("", message);
  return message;
}

/// Lists every leaf field as "path=<its bytes>", so two messages compare
/// field by field and a mismatch names its field.
class Leaves {
 public:
  template <typename T>
  static std::vector<std::string> Of(const T& message) {
    Leaves leaves;
    leaves("", message);
    return leaves.out_;
  }

  template <typename T>
  void operator()(const char* name, const T& v) {
    const std::string path = prefix_ + name;
    if constexpr (kIsWireLeaf<T>) {
      ByteWriter w;
      Encode(v, &w);
      out_.push_back(path + "=" +
                     std::string(w.bytes().begin(), w.bytes().end()));
    } else {
      const std::string saved = prefix_;
      prefix_ = path.empty() ? path : path + ".";
      Fields(*this, const_cast<T&>(v));
      prefix_ = saved;
    }
  }

 private:
  std::string prefix_;
  std::vector<std::string> out_;
};

TEST(RpcWireTest, RandomizedMessagesRoundTripBitExact) {
  Rng rng(0xc0dec);
  ForEachMessage([&](auto proto) {
    using T = decltype(proto);
    for (int i = 0; i < 50; ++i) {
      const T message = RandomMessage<T>(&rng);
      ByteWriter w;
      Encode(message, &w);
      EXPECT_EQ(WireSize(message), FramedSize(w.size()));
      Result<T> decoded = Decode<T>(w.bytes());
      ASSERT_TRUE(decoded.ok())
          << typeid(T).name() << ": " << decoded.status().ToString();
      EXPECT_EQ(Leaves::Of(*decoded), Leaves::Of(message));
      // Re-encoding is bit-exact too (doubles included).
      ByteWriter again;
      Encode(*decoded, &again);
      EXPECT_EQ(again.bytes(), w.bytes()) << typeid(T).name();
    }
  });
}

TEST(RpcWireTest, EndpointInfoRoundTripsThroughSchemaValidation) {
  EndpointInfo info;
  info.name = "provider-7";
  ASSERT_TRUE(info.schema.AddDimension("age", 100).ok());
  ASSERT_TRUE(info.schema.AddDimension("income", 50).ok());
  info.cluster_capacity = 4096;
  info.n_min = 16;
  ByteWriter w;
  Encode(info, &w);
  Result<EndpointInfo> decoded = Decode<EndpointInfo>(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name, info.name);
  EXPECT_TRUE(decoded->schema == info.schema);
  EXPECT_EQ(decoded->cluster_capacity, info.cluster_capacity);
  EXPECT_EQ(decoded->n_min, info.n_min);
}

TEST(RpcWireTest, StatusPayloadRoundTrips) {
  ByteWriter w;
  Encode(ErrorReply{Status::BudgetExhausted("xi gone")}, &w);
  Result<ErrorReply> decoded = Decode<ErrorReply>(w.bytes());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(decoded->status.message(), "xi gone");
}

// --------------------------------------------- every member has an entry --

/// Stands in for any member type in a brace initializer.
struct AnyMember {
  template <typename T>
  operator T() const;  // Unevaluated use only.
};

template <typename T, typename... Members>
constexpr auto Initializable(int) -> decltype(T{Members{}...}, true) {
  return true;
}
template <typename T, typename... Members>
constexpr bool Initializable(...) {
  return false;
}

/// An aggregate's member count: the most AnyMember values a brace
/// initializer of T accepts.
template <typename T, typename... Members>
constexpr size_t MemberCount() {
  if constexpr (Initializable<T, Members..., AnyMember>(0)) {
    return MemberCount<T, Members..., AnyMember>();
  } else {
    return sizeof...(Members);
  }
}

/// Counts a list's entries and checks every nested struct's list too.
struct EntryCount {
  size_t entries = 0;

  template <typename T>
  static void Check(T& message, const std::string& what) {
    EntryCount count;
    Fields(count, message);
    EXPECT_EQ(count.entries, MemberCount<T>())
        << what << " (" << typeid(T).name()
        << "): its field list misses a member, so the wire drops it";
  }

  template <typename T>
  void operator()(const char* name, T& v) {
    ++entries;
    if constexpr (!kIsWireLeaf<T>) Check(v, name);
  }
};

/// Checks the counting itself on member types the schema uses.
struct CountProbe {
  bool flag;
  std::string name;
  Schema schema;
  RangeQuery query;
  PrivacyBudget budget;
};

TEST(RpcWireTest, EveryFieldListNamesEveryMember) {
  static_assert(MemberCount<Empty>() == 0);
  static_assert(MemberCount<CountProbe>() == 5);
  ForEachMessage([](auto message) {
    EntryCount::Check(message, typeid(message).name());
  });
}

// ------------------------------------------------------ adversarial input --

/// A valid frame around an arbitrary payload, for corrupting.
std::vector<uint8_t> ValidFrame() {
  ByteWriter payload;
  Encode(SummaryRequest{42, 0.5}, &payload);
  return EncodeFrame(RpcMethod::kPublishSummary, payload);
}

Result<FrameHeader> ParseHeader(const std::vector<uint8_t>& frame) {
  ByteReader r(frame.data(), std::min(frame.size(), kFrameHeaderBytes));
  return DecodeFrameHeader(&r);
}

TEST(RpcWireTest, BadMagicIsRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[0] ^= 0xff;
  Result<FrameHeader> header = ParseHeader(frame);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(RpcWireTest, WrongVersionIsRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  frame[4] = kWireVersion + 1;
  Result<FrameHeader> header = ParseHeader(frame);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(RpcWireTest, UnknownMethodIdIsRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  for (uint8_t bad : {uint8_t{0}, uint8_t{14}, uint8_t{0xff}}) {
    frame[5] = bad;
    Result<FrameHeader> header = ParseHeader(frame);
    ASSERT_FALSE(header.ok()) << "method id " << int(bad);
    EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  }
  // kError itself is a legal *frame* (reply-only; the server refuses it
  // at dispatch, not at the header).
  frame[5] = static_cast<uint8_t>(RpcMethod::kError);
  EXPECT_TRUE(ParseHeader(frame).ok());
  // So is kBatch (the doorbell container).
  frame[5] = static_cast<uint8_t>(RpcMethod::kBatch);
  EXPECT_TRUE(ParseHeader(frame).ok());
  // The ledger-service methods fill the former 9..13 gap.
  for (RpcMethod m : {RpcMethod::kLedgerRegister, RpcMethod::kLedgerCharge,
                      RpcMethod::kLedgerRefund, RpcMethod::kLedgerSaving,
                      RpcMethod::kLedgerQuery}) {
    frame[5] = static_cast<uint8_t>(m);
    EXPECT_TRUE(ParseHeader(frame).ok()) << "method id " << int(frame[5]);
  }
}

TEST(RpcWireTest, OversizedPayloadLengthIsRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  uint32_t huge = kMaxFramePayloadBytes + 1;
  std::memcpy(frame.data() + 6, &huge, sizeof(huge));
  Result<FrameHeader> header = ParseHeader(frame);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
}

TEST(RpcWireTest, TruncatedHeaderIsRejected) {
  std::vector<uint8_t> frame = ValidFrame();
  for (size_t len = 0; len < kFrameHeaderBytes; ++len) {
    ByteReader r(frame.data(), len);
    Result<FrameHeader> header = DecodeFrameHeader(&r);
    ASSERT_FALSE(header.ok()) << "header length " << len;
    EXPECT_EQ(header.status().code(), StatusCode::kOutOfRange);
  }
}

/// Hostile bytes may still decode (a flipped value is still a value), but
/// may fail only with a codec error.
void ExpectCleanOutcome(const Status& status, const std::string& what) {
  EXPECT_TRUE(status.ok() || status.code() == StatusCode::kOutOfRange ||
              status.code() == StatusCode::kInvalidArgument ||
              status.code() == StatusCode::kProtocolError)
      << what << ": " << status.ToString();
}

TEST(RpcWireTest, EveryPrefixAndSeededMutationFailsCleanly) {
  constexpr int kMutations = 300;
  Rng rng(0xf022);
  ForEachMessage([&](auto proto) {
    using T = decltype(proto);
    for (int i = 0; i < kMutations; ++i) {
      ByteWriter w;
      Encode(RandomMessage<T>(&rng), &w);
      // Every proper prefix of the first few is truncated input.
      for (size_t len = 0; i < 20 && len < w.size(); ++len) {
        const Status status =
            Decode<T>({w.bytes().begin(), w.bytes().begin() + len}).status();
        EXPECT_TRUE(status.code() == StatusCode::kOutOfRange ||
                    status.code() == StatusCode::kInvalidArgument)
            << typeid(T).name() << " prefix " << len << ": "
            << status.ToString();
      }
      std::vector<uint8_t> bytes = w.bytes();
      Mutate(&bytes, &rng);
      ExpectCleanOutcome(Decode<T>(bytes).status(), typeid(T).name());
    }
  });
  for (int i = 0; i < kMutations; ++i) {
    std::vector<uint8_t> frame = ValidFrame();
    Mutate(&frame, &rng);
    ExpectCleanOutcome(ParseHeader(frame).status(), "frame header");
  }
  // A kBatch payload of one to three random requests (kBatch itself
  // included, which nests), and each sub-frame it splits into decoded as
  // its method's request.
  for (int i = 0; i < kMutations; ++i) {
    ByteWriter batch;
    for (uint64_t n = 1 + rng.UniformU64(3); n > 0; --n) {
      const auto method = static_cast<RpcMethod>(1 + rng.UniformU64(13));
      ByteWriter payload;
      VisitRow(method, [&](const auto& row) {
        using Request = typename std::decay_t<decltype(row)>::Request;
        Encode(RandomMessage<Request>(&rng), &payload);
        return true;
      });
      AppendFrame(method, payload, &batch);
    }
    std::vector<uint8_t> bytes = batch.bytes();
    Mutate(&bytes, &rng);
    Result<std::vector<RpcFrame>> subs =
        DecodeBatchPayload(bytes, /*requests_only=*/true);
    ExpectCleanOutcome(subs.status(), "batch payload");
    for (const RpcFrame& sub : subs.ok() ? *subs : std::vector<RpcFrame>{}) {
      VisitRow(sub.method, [&](const auto& row) {
        using Request = typename std::decay_t<decltype(row)>::Request;
        ExpectCleanOutcome(Decode<Request>(sub.payload).status(), row.name);
        return true;
      });
    }
  }
}

TEST(RpcWireTest, TrailingPayloadBytesAreRejected) {
  ByteWriter w;
  Encode(SummaryRequest{7, 0.25}, &w);
  w.PutU8(0);  // one stray byte
  EXPECT_EQ(Decode<SummaryRequest>(w.bytes()).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RpcWireTest, HostileElementCountsDoNotAllocate) {
  // A query claiming 2^32-1 ranges inside a tiny payload must be refused
  // before any reserve() (this would previously try an ~80 GB reserve).
  ByteWriter w;
  w.PutU8(0);            // aggregation = count
  w.PutU32(0xffffffff);  // range count
  ByteReader r(w.bytes());
  Result<RangeQuery> q = RangeQuery::Deserialize(&r);
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kOutOfRange);

  // Same for a schema with a hostile dimension count.
  ByteWriter s;
  s.PutU32(0x7fffffff);
  EXPECT_FALSE(Decode<Schema>(s.bytes()).ok());
}

TEST(RpcWireTest, CorruptBoolAndStatusBytesAreRejected) {
  ByteWriter w;
  Encode(ExactAnswerRequest{1, 0.5, true}, &w);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.back() = 2;  // add_noise byte must be 0/1
  EXPECT_EQ(Decode<ExactAnswerRequest>(bytes).status().code(),
            StatusCode::kInvalidArgument);

  // The ledger's `registered` flag is a bool like any other.
  ByteWriter reply;
  Encode(LedgerQueryReply{}, &reply);
  std::vector<uint8_t> flag = reply.bytes();
  flag[0] = 2;
  EXPECT_EQ(Decode<LedgerQueryReply>(flag).status().code(),
            StatusCode::kInvalidArgument);

  ByteWriter sw;
  sw.PutU8(0);  // an error frame carrying "OK" is corrupt
  sw.PutString("fine");
  EXPECT_FALSE(Decode<ErrorReply>(sw.bytes()).ok());
}

TEST(RpcWireTest, CorruptSchemaIsRejectedNotConstructed) {
  ByteWriter w;
  w.PutU32(2);
  w.PutString("age");
  w.PutI64(0);  // non-positive domain
  w.PutString("age");
  w.PutI64(5);
  EXPECT_FALSE(Decode<Schema>(w.bytes()).ok());
}

// ------------------------------------ one writer, one unwrapper, one table --

/// Serves kCover only, echoing the query id as rows scanned.
struct CoverOnly {
  int calls = 0;
  Result<CoverReply> operator()(RpcMethod, CoverRequest& request) {
    ++calls;
    CoverReply reply;
    reply.work.rows_scanned = request.query_id;
    return reply;
  }
};

/// Serves `request` through `serve`, then unwraps the one reply frame the
/// way a client answering `request.method` does.
Result<RpcFrame> ServeAndUnwrap(const RpcFrame& request, CoverOnly& serve,
                                bool* broken) {
  ByteWriter out;
  ServeRequest(request, serve, &out);
  ByteReader r(out.bytes());
  Result<FrameHeader> header = DecodeFrameHeader(&r);
  EXPECT_TRUE(header.ok());
  EXPECT_EQ(header->payload_size + kFrameHeaderBytes, out.size());
  return UnwrapReply(RpcFrame{header->method,
                              {out.bytes().begin() + kFrameHeaderBytes,
                               out.bytes().end()}},
                     request.method, broken);
}

TEST(RpcWireTest, OneDispatcherOneReplyWriterOneUnwrapper) {
  CoverOnly serve;
  bool broken = false;
  ByteWriter request;
  Encode(CoverRequest{77, 1, RangeQuery()}, &request);
  Result<RpcFrame> served = ServeAndUnwrap(
      RpcFrame{RpcMethod::kCover, request.bytes()}, serve, &broken);
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(Decode<CoverReply>(served->payload)->work.rows_scanned, 77u);

  // A row without an overload, kBatch and kError all get the shared
  // refusal, and an undecodable request its decode error: each arrives as
  // itself with the stream intact. The handler never runs for them.
  for (RpcMethod method : {RpcMethod::kInfo, RpcMethod::kLedgerCharge,
                           RpcMethod::kBatch, RpcMethod::kError}) {
    EXPECT_EQ(ServeAndUnwrap(RpcFrame{method, {}}, serve, &broken)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << MethodName(method);
  }
  EXPECT_EQ(ServeAndUnwrap(RpcFrame{RpcMethod::kCover, {1, 2, 3}}, serve,
                           &broken)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(serve.calls, 1);
  EXPECT_FALSE(broken);

  // A wrong method and an undecodable error break the protocol.
  EXPECT_EQ(UnwrapReply(*served, RpcMethod::kInfo, &broken).status().code(),
            StatusCode::kProtocolError);
  EXPECT_TRUE(broken);
  broken = false;
  EXPECT_EQ(UnwrapReply(RpcFrame{RpcMethod::kError, {0x05, 0x01}},
                        RpcMethod::kCover, &broken)
                .status()
                .code(),
            StatusCode::kProtocolError);
  EXPECT_TRUE(broken);
  EXPECT_STREQ(MethodName(RpcMethod::kExactFullScan), "exact_full_scan");
}

TEST(RpcWireTest, HostPortParsesOnlyValidPorts) {
  // The last ':' splits, so the port is always the final field.
  for (const auto& [text, host, port] :
       {std::tuple<std::string, std::string, uint16_t>{"127.0.0.1:4464",
                                                       "127.0.0.1", 4464},
        {"a:b:65535", "a:b", 65535}, {"h:1", "h", 1}}) {
    Result<HostPort> parsed = ParseHostPort(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->host, host);
    EXPECT_EQ(parsed->port, port);
  }
  // 70000 must not wrap to 70000 mod 65536 = 4464.
  for (const char* bad :
       {"127.0.0.1:70000", "127.0.0.1:65536", "127.0.0.1:0", "127.0.0.1:-1",
        "127.0.0.1:+80", "127.0.0.1: 80", "127.0.0.1:80x", "127.0.0.1:080000",
        "127.0.0.1:99999999999999999999", "127.0.0.1:", ":80", "localhost",
        ""}) {
    EXPECT_EQ(ParseHostPort(bad).status().code(), StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
}

// ------------------------------------------- charged sizes == codec sizes --

TEST(RpcWireTest, WireSizeMatchesEncodedFrameForEveryMessageType) {
  // The round trip above checks WireSize against every message's framed
  // payload. Sizes must also be value-independent where the orchestrator
  // charges a default-constructed instance.
  Rng rng(0x512e);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(WireSize(RandomMessage<CoverReply>(&rng)),
              WireSize(CoverReply{}));
    EXPECT_EQ(WireSize(RandomMessage<EstimateReply>(&rng)),
              WireSize(EstimateReply{}));
    EXPECT_EQ(WireSize(RandomMessage<SummaryReply>(&rng)),
              WireSize(SummaryReply{}));
    EXPECT_EQ(WireSize(RandomMessage<ApproximateRequest>(&rng)),
              WireSize(ApproximateRequest{}));
  }
  EXPECT_EQ(WireSize(Empty{}), kFrameHeaderBytes);  // The EndQuery ack.
}

TEST(RpcWireTest, OrchestratorChargesExactlyTheCodecSizes) {
  // Regression for the unified accounting: SimNetwork's per-query byte
  // count must equal the sum of the framed protocol messages, computed
  // from the codec — for both the approximate and the exact-bypass path.
  std::unique_ptr<DataProvider> a = MakeProvider(20000, 7);
  std::unique_ptr<DataProvider> b = MakeProvider(20000, 9);
  FederationConfig config;
  config.sampling_rate = 0.3;
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({a.get(), b.get()}, config);
  ASSERT_TRUE(orch.ok());

  const size_t n = 2;
  for (const RangeQuery& q :
       {RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build(),
        RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 6).Build()}) {
    std::vector<size_t> phase2(2);
    {
      ProviderWorkStats work;
      phase2[0] = a->ShouldApproximate(a->Cover(q, &work))
                      ? WireSize(ApproximateRequest{})
                      : WireSize(ExactAnswerRequest{});
      phase2[1] = b->ShouldApproximate(b->Cover(q, &work))
                      ? WireSize(ApproximateRequest{})
                      : WireSize(ExactAnswerRequest{});
    }
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    uint64_t expected =
        n * (WireSize(CoverRequest{1, 1, q}) + WireSize(CoverReply{}) +
             WireSize(SummaryRequest{}) + WireSize(SummaryReply{}) +
             WireSize(EstimateReply{}) + WireSize(EndQueryRequest{}) +
             WireSize(Empty{})) +
        phase2[0] + phase2[1];
    EXPECT_EQ(resp->breakdown.network_bytes, expected)
        << q.ToString(orch->schema());
    EXPECT_EQ(resp->breakdown.network_messages, 8 * n);
  }

  Result<QueryResponse> exact = orch->ExecuteExact(
      RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build());
  ASSERT_TRUE(exact.ok());
  uint64_t expected_exact =
      n * (WireSize(ExactScanRequest{
               RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build()}) +
           WireSize(ExactScanReply{}));
  EXPECT_EQ(exact->breakdown.network_bytes, expected_exact);
}

}  // namespace
}  // namespace fedaqp
