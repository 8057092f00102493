// Doorbell batching and epoll server tests: coalesced calls must be
// invisible except in the byte odometers — answers bit-identical to the
// unbatched protocol, real wire bytes equal to SimNetwork's charges plus
// exactly the counted outer-header overhead — and one epoll server must
// multiplex many concurrent connections, slow readers and pipelining
// peers included, on a handful of threads.

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "federation/provider.h"
#include "fixture.h"
#include "registry_delta.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "storage/range_query.h"

namespace fedaqp {
namespace {

RangeQuery ScanQuery(uint32_t lo, uint32_t hi) {
  return RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
}

/// One provider behind one server; tests connect as many clients as they
/// need. Few workers on purpose: multiplexing, not worker-per-connection,
/// must carry the load.
class RpcBatchTest : public ::testing::Test {
 protected:
  void SetUp() override { StartServer({}); }

  void StartServer(RpcServerOptions options, size_t num_workers = 2) {
    servers_.clear();
    provider_ = MakeProvider(20000, 3);
    options.num_workers = num_workers;
    Result<std::unique_ptr<RpcProviderServer>> server =
        RpcProviderServer::Start(provider_.get(), options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    servers_.push_back(std::move(server).value());
  }

  uint16_t port() const { return servers_[0]->port(); }

  Result<std::shared_ptr<RemoteEndpoint>> Connect() {
    return RemoteEndpoint::Connect("127.0.0.1", port());
  }

  std::unique_ptr<DataProvider> provider_;
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
};

// Concurrent calls through one endpoint must coalesce into kBatch
// exchanges, and every coalesced answer must be bit-identical to the
// same call made sequentially (ExactFullScan is a pure function of the
// store, so the comparison is exact).
TEST_F(RpcBatchTest, CoalescedCallsMatchSequentialAnswers) {
  Result<std::shared_ptr<RemoteEndpoint>> endpoint = Connect();
  ASSERT_TRUE(endpoint.ok()) << endpoint.status().ToString();
  const RegistryDelta delta;

  // Sequential reference, unbatched by construction (one caller).
  std::vector<RangeQuery> queries;
  std::vector<double> reference;
  for (uint32_t i = 0; i < 24; ++i) {
    queries.push_back(ScanQuery(i, 100 + i));
    Result<ExactScanReply> reply =
        (*endpoint)->ExactFullScan(ExactScanRequest{queries.back()});
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    reference.push_back(reply->value);
  }
  EXPECT_EQ(delta("rpc.doorbell_batches"), 0u)
      << "a sequential caller must never pay for batching";

  // The same scans from 8 threads: calls park, coalesce, and must come
  // back identical. Repeat a few rounds to make coalescing overwhelmingly
  // likely on any scheduler.
  std::vector<double> answers(queries.size());
  std::atomic<int> failures{0};
  for (int round = 0; round < 4; ++round) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 8; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = t; i < queries.size(); i += 8) {
          Result<ExactScanReply> reply =
              (*endpoint)->ExactFullScan(ExactScanRequest{queries[i]});
          if (!reply.ok()) {
            failures.fetch_add(1);
            return;
          }
          answers[i] = reply->value;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_EQ(failures.load(), 0);
    EXPECT_EQ(answers, reference);
  }
  EXPECT_GT(delta("rpc.doorbell_batches"), 0u)
      << "8 threads x 4 rounds should have coalesced at least once";
  // Every batch coalesces 2+ calls (so the largest one did too).
  EXPECT_GE(delta("rpc.coalesced_calls"), 2 * delta("rpc.doorbell_batches"));
}

// The byte-accounting invariant under coalescing: real bytes moved ==
// per-message protocol charges (what SimNetwork bills, unchanged by
// batching) + exactly one outer frame header per batched send and per
// batched reply (what batch_overhead_bytes counts).
TEST_F(RpcBatchTest, CoalescedBytesEqualChargesPlusCountedOverhead) {
  Result<std::shared_ptr<RemoteEndpoint>> endpoint = Connect();
  ASSERT_TRUE(endpoint.ok());
  const RegistryDelta delta;

  const uint64_t base =
      (*endpoint)->bytes_sent() + (*endpoint)->bytes_received();
  std::vector<RangeQuery> queries;
  for (uint32_t i = 0; i < 16; ++i) queries.push_back(ScanQuery(i, 120));

  // What the per-message protocol charges: request + reply wire size of
  // every call, batched or not.
  std::atomic<uint64_t> charged{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < queries.size(); i += 8) {
        ExactScanRequest request{queries[i]};
        Result<ExactScanReply> reply = (*endpoint)->ExactFullScan(request);
        if (!reply.ok()) {
          failures.fetch_add(1);
          return;
        }
        charged.fetch_add(WireSize(request) + WireSize(*reply));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  const uint64_t moved =
      (*endpoint)->bytes_sent() + (*endpoint)->bytes_received() - base;
  EXPECT_EQ(moved, charged.load() + (*endpoint)->batch_overhead_bytes());
  EXPECT_EQ((*endpoint)->batch_overhead_bytes(),
            2 * kFrameHeaderBytes * delta("rpc.doorbell_batches"));
}

// A raw-wire kBatch exchange: sub-replies arrive in request order inside
// one kBatch reply, mixing methods (kInfo + scans + kEndQuery ack).
TEST_F(RpcBatchTest, WireBatchRepliesArriveInRequestOrder) {
  Result<TcpConnection> conn = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());

  ByteWriter batch;
  {
    EncodeFrameHeader(RpcMethod::kInfo, 0, &batch);  // Empty payload.
    ByteWriter scan;
    Encode(ExactScanRequest{ScanQuery(10, 150)}, &scan);
    AppendFrame(RpcMethod::kExactFullScan, scan, &batch);
    ByteWriter end;
    Encode(EndQueryRequest{42}, &end);
    AppendFrame(RpcMethod::kEndQuery, end, &batch);
  }
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, batch).ok());
  Result<RpcFrame> reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->method, RpcMethod::kBatch);
  Result<std::vector<RpcFrame>> subs =
      DecodeBatchPayload(reply->payload, /*requests_only=*/false);
  ASSERT_TRUE(subs.ok()) << subs.status().ToString();
  ASSERT_EQ(subs->size(), 3u);
  EXPECT_EQ((*subs)[0].method, RpcMethod::kInfo);
  EXPECT_EQ((*subs)[1].method, RpcMethod::kExactFullScan);
  EXPECT_EQ((*subs)[2].method, RpcMethod::kEndQuery);
  Result<EndpointInfo> info = Decode<EndpointInfo>((*subs)[0].payload);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, provider_->name());
}

// Malformed batches must be rejected without desynchronizing the stream:
// the connection keeps serving after each kError reply.
TEST_F(RpcBatchTest, MalformedBatchesAreRejectedAndRecoverable) {
  Result<TcpConnection> conn = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(conn.ok());

  // Empty batch.
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, ByteWriter()).ok());
  Result<RpcFrame> reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Nested batch.
  ByteWriter nested;
  {
    ByteWriter inner;
    EncodeFrameHeader(RpcMethod::kInfo, 0, &inner);
    AppendFrame(RpcMethod::kBatch, inner, &nested);
  }
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, nested).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Truncated sub-frame (header promises more payload than present).
  ByteWriter truncated;
  EncodeFrameHeader(RpcMethod::kEndQuery, 100, &truncated);
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kBatch, truncated).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kError);

  // Still in sync: a well-formed request gets a real answer.
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->method, RpcMethod::kInfo);
}

// 64+ concurrent connections against one server of 2 threads: every
// connection handshakes and gets correct scan answers, and the server
// leaks no sessions.
TEST_F(RpcBatchTest, SixtyFourConnectionSoak) {
  constexpr size_t kConnections = 64;
  const double expected = [&] {
    Result<std::shared_ptr<RemoteEndpoint>> e = Connect();
    EXPECT_TRUE(e.ok());
    Result<ExactScanReply> r =
        (*e)->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
    EXPECT_TRUE(r.ok());
    return r->value;
  }();

  std::vector<std::shared_ptr<RemoteEndpoint>> endpoints(kConnections);
  std::atomic<int> failures{0};
  {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < kConnections; ++i) {
      threads.emplace_back([&, i] {
        Result<std::shared_ptr<RemoteEndpoint>> e = Connect();
        if (!e.ok()) {
          failures.fetch_add(1);
          return;
        }
        endpoints[i] = std::move(e).value();
        Result<ExactScanReply> r =
            endpoints[i]->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
        if (!r.ok() || r->value != expected) failures.fetch_add(1);
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  endpoints.clear();  // Disconnect everything.
  // The server processes the disconnects asynchronously; sessions (all
  // scan-only here, so none were ever open) must read zero.
  EXPECT_EQ(servers_[0]->num_open_sessions(), 0u);
}

// A peer that stops reading must not stall anyone else: with a tiny
// kernel send buffer, pipelined replies to the slow reader queue in the
// server's per-connection write buffer (partial writes, EPOLLOUT) while
// a second connection is served promptly; the slow reader then drains
// everything, intact and in order.
TEST_F(RpcBatchTest, SlowPeerPartialWritesDoNotBlockOthers) {
  RpcServerOptions options;
  options.send_buffer_bytes = 1024;
  StartServer(options);

  Result<TcpConnection> slow = TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(slow.ok());
  // Pipeline enough kInfo requests that the replies (schema-bearing,
  // hundreds of bytes each) overflow the shrunken send buffer many
  // times over — without reading a single reply yet.
  constexpr int kPipelined = 200;
  for (int i = 0; i < kPipelined; ++i) {
    ASSERT_TRUE(slow->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  }

  // Meanwhile a well-behaved connection must be served immediately.
  Result<std::shared_ptr<RemoteEndpoint>> fast = Connect();
  ASSERT_TRUE(fast.ok());
  Result<ExactScanReply> fast_reply =
      (*fast)->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
  ASSERT_TRUE(fast_reply.ok()) << fast_reply.status().ToString();

  // Now drain the slow connection: all replies, in order, undamaged.
  for (int i = 0; i < kPipelined; ++i) {
    Result<RpcFrame> reply = slow->ReceiveFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_EQ(reply->method, RpcMethod::kInfo) << "reply " << i;
    Result<EndpointInfo> info = Decode<EndpointInfo>(reply->payload);
    ASSERT_TRUE(info.ok()) << "reply " << i;
    EXPECT_EQ(info->name, provider_->name());
  }
}

/// The request stream of the pipelining test: for sessions 1..200, Cover
/// then PublishSummary, and EndQuery for the first 100 only, so the
/// other 100 are still open when the peer disconnects. 500 plain frames.
std::vector<std::pair<RpcMethod, ByteWriter>> SessionStream() {
  std::vector<std::pair<RpcMethod, ByteWriter>> stream;
  for (uint64_t s = 1; s <= 200; ++s) {
    ByteWriter cover;
    Encode(CoverRequest{s, s * 7 + 3,
                        ScanQuery(static_cast<uint32_t>(s % 50),
                                  static_cast<uint32_t>(120 + s % 60))},
           &cover);
    stream.emplace_back(RpcMethod::kCover, std::move(cover));
    ByteWriter summary;
    Encode(SummaryRequest{s, 0.5}, &summary);
    stream.emplace_back(RpcMethod::kPublishSummary, std::move(summary));
    if (s <= 100) {
      ByteWriter end;
      Encode(EndQueryRequest{s}, &end);
      stream.emplace_back(RpcMethod::kEndQuery, std::move(end));
    }
  }
  return stream;
}

/// The timing-free content of a reply: compute_seconds varies from run to
/// run, everything else is a function of the request stream.
std::vector<double> ReplyContent(const RpcFrame& frame) {
  if (frame.method == RpcMethod::kCover) {
    Result<CoverReply> r = Decode<CoverReply>(frame.payload);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return {};
    return {r->should_approximate ? 1.0 : 0.0,
            static_cast<double>(r->work.clusters_scanned),
            static_cast<double>(r->work.rows_scanned)};
  }
  if (frame.method == RpcMethod::kPublishSummary) {
    Result<SummaryReply> r = Decode<SummaryReply>(frame.payload);
    EXPECT_TRUE(r.ok());
    if (!r.ok()) return {};
    return {r->summary.noisy_avg_r, r->summary.noisy_n_q,
            r->summary.epsilon_spent};
  }
  return {static_cast<double>(frame.payload.size())};
}

// One thread owns a ready connection at a time, so 500 pipelined plain
// frames come back in request order even with four server threads: the
// replies equal the same stream sent one request at a time (noise is
// keyed by session nonce, not by connection or timing). While
// those replies sit unread another connection is served, and the
// sessions the pipelining peer left open are released when it leaves.
TEST_F(RpcBatchTest, PipelinedFramesOnOneConnectionAnswerInOrder) {
  StartServer({}, /*num_workers=*/4);
  const std::vector<std::pair<RpcMethod, ByteWriter>> stream = SessionStream();
  ASSERT_EQ(stream.size(), 500u);

  std::vector<RpcFrame> reference;
  {
    Result<TcpConnection> serial = TcpConnection::Connect("127.0.0.1", port());
    ASSERT_TRUE(serial.ok());
    for (const auto& request : stream) {
      ASSERT_TRUE(serial->SendFrame(request.first, request.second).ok());
      Result<RpcFrame> reply = serial->ReceiveFrame();
      ASSERT_TRUE(reply.ok()) << reply.status().ToString();
      reference.push_back(std::move(reply).value());
    }
  }
  EXPECT_EQ(reference[0].method, RpcMethod::kCover);
  EXPECT_EQ(reference[1].method, RpcMethod::kPublishSummary);
  EXPECT_EQ(reference[2].method, RpcMethod::kEndQuery);

  Result<TcpConnection> pipelined =
      TcpConnection::Connect("127.0.0.1", port());
  ASSERT_TRUE(pipelined.ok());
  for (const auto& request : stream) {
    ASSERT_TRUE(pipelined->SendFrame(request.first, request.second).ok());
  }
  {
    Result<std::shared_ptr<RemoteEndpoint>> other = Connect();
    ASSERT_TRUE(other.ok());
    Result<ExactScanReply> scan =
        (*other)->ExactFullScan(ExactScanRequest{ScanQuery(10, 150)});
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  }
  for (size_t i = 0; i < stream.size(); ++i) {
    Result<RpcFrame> reply = pipelined->ReceiveFrame();
    ASSERT_TRUE(reply.ok()) << "reply " << i << ": "
                            << reply.status().ToString();
    ASSERT_EQ(reply->method, reference[i].method) << "reply " << i;
    ASSERT_EQ(ReplyContent(*reply), ReplyContent(reference[i]))
        << "reply " << i;
  }

  pipelined->Close();
  // A server thread releases the sessions once it sees the close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (servers_[0]->num_open_sessions() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(servers_[0]->num_open_sessions(), 0u);
}

// Fault-injected pin for mid-batch transport failure: when the peer dies
// while calls are parked and coalescing, EVERY caller — the combiner, the
// slots in its swapped batch, and slots parked after the swap — must
// resolve with the poisoned transport status. Nobody may hang on a parked
// slot (a hang here stalls the whole suite, which is the point of the
// pin), and the endpoint must fail fast afterwards instead of blocking.
TEST_F(RpcBatchTest, MidBatchTransportFailureFailsAllCoalescedCallers) {
  Result<std::shared_ptr<RemoteEndpoint>> endpoint = Connect();
  ASSERT_TRUE(endpoint.ok());
  // Prove liveness before the kill.
  Result<CoverReply> warm =
      (*endpoint)->Cover(CoverRequest{1, 7, ScanQuery(10, 150)});
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();

  constexpr size_t kThreads = 12;
  constexpr int kCallsPerThread = 200;
  std::atomic<uint64_t> resolved{0};
  std::atomic<uint64_t> succeeded{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < kCallsPerThread; ++j) {
        // Sessionful calls ride the doorbell with no auto-retry: a
        // transport error must surface directly.
        const uint64_t id = 100 + t * kCallsPerThread + j;
        Result<CoverReply> reply =
            (*endpoint)->Cover(CoverRequest{id, id * 31 + 1, ScanQuery(5, 180)});
        if (reply.ok()) succeeded.fetch_add(1);
        resolved.fetch_add(1);
      }
    });
  }
  // Kill the server while the batch machinery is saturated: in-flight
  // exchanges die mid-read, parked slots inherit the poison.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  servers_.clear();
  for (std::thread& t : threads) t.join();

  // Every single call resolved — none hung on an unfilled slot.
  EXPECT_EQ(resolved.load(), kThreads * kCallsPerThread);
  // The kill landed mid-run: some calls made it, the rest were failed.
  EXPECT_LT(succeeded.load(), kThreads * kCallsPerThread);

  // Fail-fast post-mortem: new calls on the poisoned connection resolve
  // immediately with an error (no blocking on a dead wire).
  Result<SummaryReply> post =
      (*endpoint)->PublishSummary(SummaryRequest{});
  EXPECT_FALSE(post.ok());
  Result<CoverReply> post_cover =
      (*endpoint)->Cover(CoverRequest{999999, 3, ScanQuery(0, 10)});
  EXPECT_FALSE(post_cover.ok());
}

// DecodeBatchPayload unit coverage: request-side restrictions.
TEST(BatchCodecTest, RequestsOnlyRejectsErrorSubFrames) {
  ByteWriter batch;
  ByteWriter status;
  Encode(ErrorReply{Status::Internal("boom")}, &status);
  AppendFrame(RpcMethod::kError, status, &batch);
  EXPECT_FALSE(DecodeBatchPayload(batch.bytes(), true).ok());
  // The same payload is legal on the reply side (a failed sub-call).
  EXPECT_TRUE(DecodeBatchPayload(batch.bytes(), false).ok());
}

TEST(BatchCodecTest, TrailingGarbageIsRejected) {
  ByteWriter batch;
  EncodeFrameHeader(RpcMethod::kInfo, 0, &batch);
  std::vector<uint8_t> bytes = batch.bytes();
  bytes.push_back(0x7f);  // One stray byte after a complete sub-frame.
  EXPECT_FALSE(DecodeBatchPayload(bytes, true).ok());
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
