// End-to-end loopback federation tests: providers hosted by
// RpcProviderServer on 127.0.0.1, coordinated through RemoteEndpoint —
// real wire bytes must equal SimNetwork's charges, stateless retries must
// be invisible, and errors, hostile requests included, must travel as
// Status, never as crashes. Loopback answers equal in-process ones bit
// for bit in tests/determinism_matrix_test.cc.

#include <chrono>
#include <memory>
#include <utility>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/federation_client.h"
#include "execute_query.h"
#include "federation/orchestrator.h"
#include "fixture.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/wire.h"

namespace fedaqp {
namespace {

/// Two providers behind loopback servers.
class RpcLoopbackTest : public ::testing::Test {
 protected:
  std::vector<RangeQuery> Workload() const {
    return {
        RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build(),
        RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 150).Build(),
        RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 6).Build(),
        RangeQueryBuilder(Aggregation::kSumSquares)
            .Where(0, 0, 199)
            .Where(1, 10, 90)
            .Build(),
    };
  }

  std::vector<std::unique_ptr<DataProvider>> providers_ = [] {
    std::vector<std::unique_ptr<DataProvider>> two;
    two.push_back(MakeProvider(20000, 3));
    two.push_back(MakeProvider(30000, 5));
    return two;
  }();
  LoopbackServers servers_{Ptrs(providers_)};
};

TEST_F(RpcLoopbackTest, HandshakePublishesEndpointInfo) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  for (size_t i = 0; i < remote->size(); ++i) {
    const EndpointInfo& info = (*remote)[i]->info();
    EXPECT_EQ(info.name, providers_[i]->name());
    EXPECT_TRUE(info.schema == providers_[i]->store().schema());
    EXPECT_EQ(info.cluster_capacity,
              providers_[i]->options().storage.cluster_capacity);
    EXPECT_EQ(info.n_min, providers_[i]->options().n_min);
  }
}

TEST_F(RpcLoopbackTest, RealWireBytesEqualSimNetworkCharges) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  std::vector<RemoteEndpoint*> raw;
  for (auto& e : *remote) {
    raw.push_back(static_cast<RemoteEndpoint*>(e.get()));
  }
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::CreateFromEndpoints(std::move(remote).value(),
                                             TestConfig(77));
  ASSERT_TRUE(orch.ok());

  // Baseline after the connect-time kInfo handshake (which SimNetwork,
  // modeling only the per-query protocol, deliberately does not charge).
  uint64_t base = 0;
  for (auto* e : raw) base += e->bytes_sent() + e->bytes_received();

  uint64_t charged = 0;
  for (const RangeQuery& q : Workload()) {
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    charged += resp->breakdown.network_bytes;
  }
  uint64_t moved = 0;
  uint64_t overhead = 0;
  for (auto* e : raw) {
    moved += e->bytes_sent() + e->bytes_received();
    overhead += e->batch_overhead_bytes();
  }
  // Sequential one-query batches never coalesce, so the overhead term is
  // expected to be zero here — asserting it keeps the stronger claim
  // that a lone call's wire traffic is byte-identical to the unbatched
  // protocol.
  EXPECT_EQ(overhead, 0u);
  EXPECT_EQ(moved - base, charged + overhead);
}

TEST_F(RpcLoopbackTest, ExactFullScanIsIdempotentAndDrawsNoProviderRng) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  ProviderEndpoint* endpoint = (*remote)[0].get();

  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  // Snapshot the provider's persistent stream: a stateless scan must not
  // advance it (Rng is a value type; the copy is an independent replica).
  Rng replica = *providers_[0]->rng();

  Result<ExactScanReply> first = endpoint->ExactFullScan(ExactScanRequest{q});
  Result<ExactScanReply> retry = endpoint->ExactFullScan(ExactScanRequest{q});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(first->value, retry->value);
  EXPECT_EQ(first->work.rows_scanned, retry->work.rows_scanned);
  EXPECT_EQ(first->value,
            static_cast<double>(providers_[0]->store().EvaluateExact(q)));

  // The provider's next private draw is unchanged by the two scans, so a
  // coordinator retrying ExactFullScan after a transport error cannot
  // skew any later query's noise.
  EXPECT_EQ(replica.NextU64(), providers_[0]->rng()->NextU64());
}

TEST_F(RpcLoopbackTest, SessionErrorsTravelAsStatusAndConnectionSurvives) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  ProviderEndpoint* endpoint = (*remote)[0].get();

  // PublishSummary without a Cover session: refused provider-side, the
  // refusal crosses the wire as a Status, and the connection stays usable.
  SummaryRequest req;
  req.query_id = 424242;
  req.eps_allocation = 0.1;
  Result<SummaryReply> summary = endpoint->PublishSummary(req);
  ASSERT_FALSE(summary.ok());
  EXPECT_EQ(summary.status().code(), StatusCode::kFailedPrecondition);

  // An invalid query is validated server-side (raw wire clients bypass
  // the coordinator's validation).
  RangeQuery bad = RangeQueryBuilder(Aggregation::kCount)
                       .Where(99, 0, 1)
                       .Build();
  Result<ExactScanReply> scan = endpoint->ExactFullScan(ExactScanRequest{bad});
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kOutOfRange);

  CoverRequest cover;
  cover.query_id = 1;
  cover.session_nonce = 9;
  cover.query = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  Result<CoverReply> reply = endpoint->Cover(cover);
  EXPECT_TRUE(reply.ok()) << reply.status().ToString();
  endpoint->EndQuery(1);
}

// A peer asking for a sample no session can need (2^62 draws) is refused
// before anything is allocated; one whose own tiny eps_allocation let an
// absurd sample through gets an error reply for that frame. Either way
// the server keeps serving: it then answers a well-formed query.
TEST_F(RpcLoopbackTest, HostileSampleSizeIsRefusedAndTheServerSurvives) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  ProviderEndpoint* endpoint = (*remote)[0].get();
  CoverRequest cover;
  cover.query_id = 31;
  cover.session_nonce = 5;
  cover.query = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  ASSERT_TRUE(endpoint->Cover(cover).ok());
  ASSERT_TRUE(endpoint->PublishSummary(SummaryRequest{31, 0.2}).ok());
  ApproximateRequest hostile;
  hostile.query_id = 31;
  hostile.sample_size = size_t{1} << 62;
  hostile.eps_sampling = 0.1;
  hostile.eps_estimate = 0.5;
  hostile.delta = 1e-3;
  Result<EstimateReply> refused = endpoint->Approximate(hostile);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  // Rounds out of range or out of order are refused the same way.
  ApproximateRequest bad_round = hostile;
  bad_round.sample_size = 1;
  for (auto [round, rounds] :
       {std::pair<uint32_t, uint32_t>{1, 0}, {1, 1001}, {2, 4}, {3, 2}}) {
    bad_round.round = round;
    bad_round.rounds = rounds;
    Result<EstimateReply> r = endpoint->Approximate(bad_round);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  endpoint->EndQuery(31);

  // The peer also picks eps_allocation. At 1e-300 the published ~N^Q is
  // noise of order 1e300, so a sample of 2^61 draws passes the size check
  // and the sampler's reserve throws: the server answers that frame with
  // an error instead of dying.
  uint64_t session = 32;
  for (; session < 64; ++session) {
    cover.query_id = session;
    ASSERT_TRUE(endpoint->Cover(cover).ok());
    Result<SummaryReply> summary =
        endpoint->PublishSummary(SummaryRequest{session, 1e-300});
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    if (summary->summary.noisy_n_q > 1e19) break;
    endpoint->EndQuery(session);
  }
  ASSERT_LT(session, 64u);
  ApproximateRequest huge = hostile;
  huge.query_id = session;
  huge.sample_size = size_t{1} << 61;
  Result<EstimateReply> thrown = endpoint->Approximate(huge);
  ASSERT_FALSE(thrown.ok());
  EXPECT_EQ(thrown.status().code(), StatusCode::kInternal);
  endpoint->EndQuery(session);

  FederationClient::Options options;
  options.protocol = TestConfig(77);
  options.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(*remote, options);
  ASSERT_TRUE(client.ok());
  Result<QueryResponse> answer =
      (*client)->Submit(QuerySpec{"alice", Workload()[0]}).Wait();
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
}

TEST_F(RpcLoopbackTest, IndependentCoordinatorsDoNotCollideOnSessionIds) {
  // Every coordinator numbers its queries from 1; the server must
  // namespace sessions per connection so two coordinators using the
  // same raw query_id get independent sessions with their own noise
  // streams.
  Result<std::shared_ptr<RemoteEndpoint>> c1 =
      RemoteEndpoint::Connect("127.0.0.1", servers_[0]->port());
  Result<std::shared_ptr<RemoteEndpoint>> c2 =
      RemoteEndpoint::Connect("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());

  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  CoverRequest cover;
  cover.query_id = 1;
  cover.query = q;
  cover.session_nonce = 1111;
  ASSERT_TRUE((*c1)->Cover(cover).ok());
  cover.session_nonce = 2222;  // Same raw id, different coordinator seed.
  ASSERT_TRUE((*c2)->Cover(cover).ok());

  // If c2's Cover had overwritten c1's session, c1's summary would draw
  // from c2's nonce stream; both must succeed and differ (distinct
  // Laplace draws on the same underlying statistics).
  SummaryRequest sreq;
  sreq.query_id = 1;
  sreq.eps_allocation = 0.1;
  Result<SummaryReply> s1 = (*c1)->PublishSummary(sreq);
  Result<SummaryReply> s2 = (*c2)->PublishSummary(sreq);
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  ASSERT_TRUE(s2.ok()) << s2.status().ToString();
  EXPECT_NE(s1->summary.noisy_avg_r, s2->summary.noisy_avg_r);

  // c2 releasing ITS query 1 must not touch c1's session.
  (*c2)->EndQuery(1);
  Result<SummaryReply> again = (*c1)->PublishSummary(sreq);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
  (*c1)->EndQuery(1);
}

TEST_F(RpcLoopbackTest, SessionsAreReleasedWhenTheConnectionDies) {
  {
    Result<std::shared_ptr<RemoteEndpoint>> client =
        RemoteEndpoint::Connect("127.0.0.1", servers_[0]->port());
    ASSERT_TRUE(client.ok());
    CoverRequest cover;
    cover.query_id = 7;
    cover.session_nonce = 42;
    cover.query =
        RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
    ASSERT_TRUE((*client)->Cover(cover).ok());
    EXPECT_EQ(servers_[0]->num_open_sessions(), 1u);
    // The coordinator "crashes": connection drops without EndQuery.
  }
  // The handler notices the close asynchronously; poll briefly.
  for (int i = 0; i < 200 && servers_[0]->num_open_sessions() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(servers_[0]->num_open_sessions(), 0u);
}

TEST(RpcSessionCapTest, RunawayCoverWithoutEndQueryIsRefusedAtTheCap) {
  std::unique_ptr<DataProvider> provider = MakeProvider(20000, 3);
  RpcServerOptions opts;
  opts.max_sessions_per_connection = 4;
  Result<std::unique_ptr<RpcProviderServer>> server =
      RpcProviderServer::Start(provider.get(), opts);
  ASSERT_TRUE(server.ok());
  Result<std::shared_ptr<RemoteEndpoint>> client =
      RemoteEndpoint::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  CoverRequest cover;
  cover.session_nonce = 5;
  cover.query = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  for (uint64_t id = 1; id <= 4; ++id) {
    cover.query_id = id;
    ASSERT_TRUE((*client)->Cover(cover).ok()) << "id " << id;
  }
  cover.query_id = 5;
  Result<CoverReply> refused = (*client)->Cover(cover);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // Ending one frees a slot; the connection is still healthy.
  (*client)->EndQuery(1);
  EXPECT_TRUE((*client)->Cover(cover).ok());
}

TEST_F(RpcLoopbackTest, MalformedFramesGetErrorRepliesNotCrashes) {
  // A raw client speaking the frame layer directly.
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", servers_[0]->port());
  ASSERT_TRUE(conn.ok());

  // Well-formed frame, truncated payload: the decoder must reject it and
  // the server must answer with an error frame on a still-healthy stream.
  ByteWriter truncated;
  truncated.PutU64(123);  // half a SummaryRequest
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kPublishSummary, truncated).ok());
  Result<RpcFrame> reply = conn->ReceiveFrame();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->method, RpcMethod::kError);
  Result<ErrorReply> remote = Decode<ErrorReply>(reply->payload);
  ASSERT_TRUE(remote.ok());
  EXPECT_FALSE(remote->status.ok());

  // The same connection still serves well-formed requests afterwards.
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  Result<RpcFrame> info = conn->ReceiveFrame();
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->method, RpcMethod::kInfo);

  // A client-sent error frame is a protocol breach: the server reports
  // and drops the connection.
  ByteWriter err;
  Encode(ErrorReply{Status::Internal("q")}, &err);
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kError, err).ok());
  Result<RpcFrame> breach = conn->ReceiveFrame();
  if (breach.ok()) {
    EXPECT_EQ(breach->method, RpcMethod::kError);
    // ...and then the stream ends.
    EXPECT_FALSE(conn->ReceiveFrame().ok());
  }
}

TEST_F(RpcLoopbackTest, StoppedServerPoisonsClientWithStatusNotCrash) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  ProviderEndpoint* endpoint = (*remote)[0].get();

  servers_[0]->Stop();
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  // ExactFullScan is the one auto-retrying call: it notices the break,
  // attempts its single reconnect (refused: nothing listens), and
  // surfaces the transport Status — never a crash, never a silent hang.
  Result<ExactScanReply> scan = endpoint->ExactFullScan(ExactScanRequest{q});
  EXPECT_FALSE(scan.ok());
  Result<ExactScanReply> again = endpoint->ExactFullScan(ExactScanRequest{q});
  EXPECT_FALSE(again.ok());

  // Sessionful calls must fail fast on the poisoned connection — they
  // are never auto-retried (replaying Cover would re-key the session's
  // noise stream).
  CoverRequest cover;
  cover.query_id = 1;
  cover.session_nonce = 9;
  cover.query = q;
  Result<CoverReply> refused = endpoint->Cover(cover);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(RpcLoopbackTest, ExactFullScanReconnectsAcrossServerRestart) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers_.Connect();
  ASSERT_TRUE(remote.ok());
  ProviderEndpoint* endpoint = (*remote)[0].get();

  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  Result<ExactScanReply> before = endpoint->ExactFullScan(ExactScanRequest{q});
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // The provider restarts on the same port (a deploy, a crash+respawn).
  const uint16_t port = servers_[0]->port();
  servers_[0]->Stop();
  RpcServerOptions opts;
  opts.port = port;
  Result<std::unique_ptr<RpcProviderServer>> fresh =
      RpcProviderServer::Start(providers_[0].get(), opts);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  servers_[0] = std::move(fresh).value();

  // The idempotent scan heals transparently: discover the break,
  // reconnect once, retry — same answer, no caller involvement.
  Result<ExactScanReply> after = endpoint->ExactFullScan(ExactScanRequest{q});
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->value, before->value);
  EXPECT_EQ(after->work.rows_scanned, before->work.rows_scanned);

  // A successful reconnect heals the endpoint for sessionful traffic too
  // (fresh sessions on the new connection).
  CoverRequest cover;
  cover.query_id = 11;
  cover.session_nonce = 13;
  cover.query = q;
  Result<CoverReply> session = endpoint->Cover(cover);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  endpoint->EndQuery(11);
}

TEST(RpcIdleTimeoutTest, IdleConnectionsAreDisconnectedNotLeftPinningWorkers) {
  std::unique_ptr<DataProvider> provider = MakeProvider(20000, 3);
  RpcServerOptions opts;
  opts.idle_timeout_seconds = 0.2;
  Result<std::unique_ptr<RpcProviderServer>> server =
      RpcProviderServer::Start(provider.get(), opts);
  ASSERT_TRUE(server.ok());
  Result<TcpConnection> conn =
      TcpConnection::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());

  // Live traffic is served normally...
  ASSERT_TRUE(conn->SendFrame(RpcMethod::kInfo, ByteWriter()).ok());
  ASSERT_TRUE(conn->ReceiveFrame().ok());

  // ...but a silent peer is dropped once the idle timeout expires: we
  // either see the server's timeout error frame followed by EOF, or the
  // bare close.
  Result<RpcFrame> dropped = conn->ReceiveFrame();
  if (dropped.ok()) {
    EXPECT_EQ(dropped->method, RpcMethod::kError);
    EXPECT_FALSE(conn->ReceiveFrame().ok());
  }
}

TEST(RpcConnectTest, ConnectAllRejectsMalformedAddresses) {
  for (const std::string& bad :
       {std::string("localhost"), std::string(":80"), std::string("h:"),
        std::string("h:0"), std::string("h:70000"), std::string("h:12x")}) {
    Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
        RemoteEndpoint::ConnectAll({bad});
    EXPECT_FALSE(endpoints.ok()) << bad;
  }
}

TEST(RpcConnectTest, ConnectToDeadPortFailsWithStatus) {
  // Bind-then-close to obtain a port nothing listens on.
  Result<TcpListener> listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  uint16_t port = listener->port();
  listener->Shutdown();
  Result<std::shared_ptr<RemoteEndpoint>> endpoint =
      RemoteEndpoint::Connect("127.0.0.1", port);
  EXPECT_FALSE(endpoint.ok());
}

}  // namespace
}  // namespace fedaqp
