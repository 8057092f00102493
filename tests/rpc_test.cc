// Wire-codec robustness suite: round-trip property tests over randomized
// protocol messages, adversarial frames (truncated, corrupt, hostile
// lengths) that must fail with Status instead of crashing or
// over-reading, and the regression pinning SimNetwork's charged sizes to
// the codec's framed sizes. Also the `host:port` parser every dialler
// (RemoteEndpoint::ConnectAll, the shell's `ledger connect`) shares.

#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "federation/orchestrator.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "workload/datagen.h"
#include "execute_query.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------------ round trips --

RangeQuery RandomQuery(Rng* rng) {
  std::vector<DimRange> ranges;
  size_t n = rng->UniformU64(4);
  for (size_t i = 0; i < n; ++i) {
    DimRange r;
    r.dim_index = rng->UniformU64(8);
    r.lo = rng->UniformInt(-1000, 1000);
    r.hi = rng->UniformInt(-1000, 1000);
    ranges.push_back(r);
  }
  return RangeQuery(
      static_cast<Aggregation>(rng->UniformU64(3)), std::move(ranges));
}

ProviderWorkStats RandomWork(Rng* rng) {
  ProviderWorkStats w;
  w.clusters_scanned = rng->NextU64() >> 16;
  w.rows_scanned = rng->NextU64() >> 16;
  w.compute_seconds = rng->UniformDouble() * 1e3;
  return w;
}

LocalEstimate RandomEstimate(Rng* rng) {
  LocalEstimate e;
  e.estimate = rng->Normal() * 1e6;
  e.variance = rng->UniformDouble() * 1e9;
  e.sensitivity = rng->UniformDouble() * 1e4;
  e.exact = rng->Bernoulli(0.5);
  e.noised = rng->Bernoulli(0.5);
  e.spent = PrivacyBudget{rng->UniformDouble(), rng->UniformDouble() * 1e-3};
  e.work = RandomWork(rng);
  return e;
}

/// Bit-exact round-trip check: decode(encode(v)) re-encodes to the same
/// bytes (catches every field drop/reorder and any lossy conversion,
/// doubles included, without needing operator== on the structs).
template <typename T>
void ExpectRoundTrip(const T& v, void (*encode)(const T&, ByteWriter*),
                     Result<T> (*decode)(ByteReader*)) {
  ByteWriter w;
  encode(v, &w);
  ByteReader r(w.bytes());
  Result<T> decoded = decode(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  ByteWriter w2;
  encode(*decoded, &w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
}

TEST(RpcWireTest, RandomizedMessagesRoundTripBitExact) {
  Rng rng(0xc0dec);
  for (int i = 0; i < 200; ++i) {
    CoverRequest cover_req;
    cover_req.query_id = rng.NextU64();
    cover_req.session_nonce = rng.NextU64();
    cover_req.query = RandomQuery(&rng);
    ExpectRoundTrip(cover_req, EncodeCoverRequest, DecodeCoverRequest);

    CoverReply cover_reply;
    cover_reply.should_approximate = rng.Bernoulli(0.5);
    cover_reply.work = RandomWork(&rng);
    ExpectRoundTrip(cover_reply, EncodeCoverReply, DecodeCoverReply);

    SummaryRequest sum_req{rng.NextU64(), rng.UniformDouble()};
    ExpectRoundTrip(sum_req, EncodeSummaryRequest, DecodeSummaryRequest);

    SummaryReply sum_reply;
    sum_reply.summary.noisy_avg_r = rng.Normal() * 100;
    sum_reply.summary.noisy_n_q = rng.Normal() * 1000;
    sum_reply.summary.epsilon_spent = rng.UniformDouble();
    sum_reply.summary.work = RandomWork(&rng);
    ExpectRoundTrip(sum_reply, EncodeSummaryReply, DecodeSummaryReply);

    ApproximateRequest approx_req;
    approx_req.query_id = rng.NextU64();
    approx_req.sample_size = rng.NextU64() >> 32;
    approx_req.eps_sampling = rng.UniformDouble();
    approx_req.eps_estimate = rng.UniformDouble();
    approx_req.delta = rng.UniformDouble() * 1e-3;
    approx_req.add_noise = rng.Bernoulli(0.5);
    ExpectRoundTrip(approx_req, EncodeApproximateRequest,
                    DecodeApproximateRequest);

    ExactAnswerRequest exact_req;
    exact_req.query_id = rng.NextU64();
    exact_req.eps_estimate = rng.UniformDouble();
    exact_req.add_noise = rng.Bernoulli(0.5);
    ExpectRoundTrip(exact_req, EncodeExactAnswerRequest,
                    DecodeExactAnswerRequest);

    EstimateReply est_reply{RandomEstimate(&rng)};
    ExpectRoundTrip(est_reply, EncodeEstimateReply, DecodeEstimateReply);

    ExactScanRequest scan_req{RandomQuery(&rng)};
    ExpectRoundTrip(scan_req, EncodeExactScanRequest, DecodeExactScanRequest);

    ExactScanReply scan_reply;
    scan_reply.value = rng.Normal() * 1e7;
    scan_reply.work = RandomWork(&rng);
    ExpectRoundTrip(scan_reply, EncodeExactScanReply, DecodeExactScanReply);

    ExpectRoundTrip(EndQueryRequest{rng.NextU64()}, EncodeEndQueryRequest,
                    DecodeEndQueryRequest);
  }
}

TEST(RpcWireTest, EndpointInfoRoundTripsThroughSchemaValidation) {
  EndpointInfo info;
  info.name = "provider-7";
  ASSERT_TRUE(info.schema.AddDimension("age", 100).ok());
  ASSERT_TRUE(info.schema.AddDimension("income", 50).ok());
  info.cluster_capacity = 4096;
  info.n_min = 16;
  ByteWriter w;
  EncodeEndpointInfo(info, &w);
  ByteReader r(w.bytes());
  Result<EndpointInfo> decoded = DecodeEndpointInfo(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->name, info.name);
  EXPECT_TRUE(decoded->schema == info.schema);
  EXPECT_EQ(decoded->cluster_capacity, info.cluster_capacity);
  EXPECT_EQ(decoded->n_min, info.n_min);
}

TEST(RpcWireTest, StatusPayloadRoundTrips) {
  ByteWriter w;
  EncodeStatusPayload(Status::BudgetExhausted("xi gone"), &w);
  ByteReader r(w.bytes());
  Status decoded = Status::OK();
  ASSERT_TRUE(DecodeStatusPayload(&r, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(decoded.message(), "xi gone");
}

// ------------------------------------------------------ adversarial input --

/// A valid frame around an arbitrary payload, for corrupting.
std::vector<uint8_t> ValidFrame() {
  ByteWriter payload;
  EncodeSummaryRequest(SummaryRequest{42, 0.5}, &payload);
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

TEST(RpcWireTest, TruncatedPayloadsNeverCrashOrOverRead) {
  // Every proper prefix of every message must decode to an error.
  Rng rng(0xbad);
  for (int i = 0; i < 50; ++i) {
    ByteWriter w;
    CoverRequest req;
    req.query_id = rng.NextU64();
    req.session_nonce = rng.NextU64();
    req.query = RandomQuery(&rng);
    EncodeCoverRequest(req, &w);
    for (size_t len = 0; len < w.size(); ++len) {
      ByteReader r(w.bytes().data(), len);
      Result<CoverRequest> decoded = DecodeCoverRequest(&r);
      // Prefixes that happen to decode fewer ranges are caught by the
      // frame layer's ExpectConsumed; all others must error here.
      if (decoded.ok()) continue;
      EXPECT_TRUE(decoded.status().code() == StatusCode::kOutOfRange ||
                  decoded.status().code() == StatusCode::kInvalidArgument ||
                  decoded.status().code() == StatusCode::kProtocolError)
          << decoded.status().ToString();
    }
  }
  ByteWriter w;
  EncodeEstimateReply(EstimateReply{RandomEstimate(&rng)}, &w);
  for (size_t len = 0; len < w.size(); ++len) {
    ByteReader r(w.bytes().data(), len);
    EXPECT_FALSE(DecodeEstimateReply(&r).ok());
  }
}

TEST(RpcWireTest, TrailingPayloadBytesAreRejected) {
  ByteWriter w;
  EncodeSummaryRequest(SummaryRequest{7, 0.25}, &w);
  w.PutU8(0);  // one stray byte
  ByteReader r(w.bytes());
  Result<SummaryRequest> decoded = DecodeSummaryRequest(&r);
  ASSERT_TRUE(decoded.ok());
  Status consumed = ExpectConsumed(r);
  EXPECT_EQ(consumed.code(), StatusCode::kInvalidArgument);
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
  ByteReader sr(s.bytes());
  EXPECT_FALSE(DecodeSchema(&sr).ok());
}

TEST(RpcWireTest, CorruptBoolAndStatusBytesAreRejected) {
  ByteWriter w;
  EncodeExactAnswerRequest(ExactAnswerRequest{1, 0.5, true}, &w);
  std::vector<uint8_t> bytes = w.bytes();
  bytes.back() = 2;  // add_noise byte must be 0/1
  ByteReader r(bytes.data(), bytes.size());
  Result<ExactAnswerRequest> decoded = DecodeExactAnswerRequest(&r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);

  ByteWriter sw;
  sw.PutU8(0);  // an error frame carrying "OK" is corrupt
  sw.PutString("fine");
  ByteReader sr(sw.bytes());
  Status out = Status::OK();
  EXPECT_FALSE(DecodeStatusPayload(&sr, &out).ok());
}

TEST(RpcWireTest, CorruptSchemaIsRejectedNotConstructed) {
  ByteWriter w;
  w.PutU32(2);
  w.PutString("age");
  w.PutI64(0);  // non-positive domain
  w.PutString("age");
  w.PutI64(5);
  ByteReader r(w.bytes());
  EXPECT_FALSE(DecodeSchema(&r).ok());
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
  Rng rng(0x512e);
  for (int i = 0; i < 20; ++i) {
    CoverRequest cover_req;
    cover_req.query_id = rng.NextU64();
    cover_req.session_nonce = rng.NextU64();
    cover_req.query = RandomQuery(&rng);
    {
      ByteWriter w;
      EncodeCoverRequest(cover_req, &w);
      EXPECT_EQ(WireSize(cover_req),
                EncodeFrame(RpcMethod::kCover, w).size());
    }
    {
      CoverReply v;
      v.work = RandomWork(&rng);
      ByteWriter w;
      EncodeCoverReply(v, &w);
      EXPECT_EQ(WireSize(v), EncodeFrame(RpcMethod::kCover, w).size());
      // Size must be value-independent (the orchestrator charges a
      // default-constructed instance).
      EXPECT_EQ(WireSize(v), WireSize(CoverReply{}));
    }
    {
      EstimateReply v{RandomEstimate(&rng)};
      ByteWriter w;
      EncodeEstimateReply(v, &w);
      EXPECT_EQ(WireSize(v), EncodeFrame(RpcMethod::kApproximate, w).size());
      EXPECT_EQ(WireSize(v), WireSize(EstimateReply{}));
    }
    {
      SummaryReply v;
      v.summary.work = RandomWork(&rng);
      EXPECT_EQ(WireSize(v), WireSize(SummaryReply{}));
    }
    {
      ApproximateRequest v;
      v.sample_size = rng.NextU64();
      EXPECT_EQ(WireSize(v), WireSize(ApproximateRequest{}));
    }
  }
  ByteWriter empty;
  EXPECT_EQ(kEndQueryAckWireSize,
            EncodeFrame(RpcMethod::kEndQuery, empty).size());
}

std::unique_ptr<DataProvider> MakeProvider(size_t rows, uint64_t seed,
                                           size_t n_min = 4) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 128;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.storage.shuffle_seed = seed;
  popts.n_min = n_min;
  popts.seed = seed * 3 + 1;
  Result<std::unique_ptr<DataProvider>> p = DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(RpcWireTest, OrchestratorChargesExactlyTheCodecSizes) {
  // Regression for the unified accounting: SimNetwork's per-query byte
  // count must equal the sum of the framed protocol messages, computed
  // from the codec — for both the approximate and the exact-bypass path.
  std::unique_ptr<DataProvider> a = MakeProvider(20000, 7);
  std::unique_ptr<DataProvider> b = MakeProvider(20000, 9);
  FederationConfig config;
  config.sampling_rate = 0.3;
  config.total_xi = 1e6;
  config.total_psi = 1e3;
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
             kEndQueryAckWireSize) +
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
