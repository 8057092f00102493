// End-to-end loopback federation tests: providers hosted by
// RpcProviderServer on 127.0.0.1, coordinated through RemoteEndpoint —
// answers must be bit-identical to the in-process engine, real wire
// bytes must equal SimNetwork's charges, stateless retries must be
// invisible, and errors must travel as Status, never as crashes.

#include <chrono>
#include <memory>
#include <utility>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "federation/orchestrator.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "rpc/wire.h"
#include "workload/datagen.h"
#include "execute_query.h"

namespace fedaqp {
namespace {

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

FederationConfig BaseConfig() {
  FederationConfig config;
  config.per_query_budget = {1.0, 1e-3};
  config.sampling_rate = 0.3;
  config.seed = 77;
  return config;
}

/// Two providers, their loopback servers, and remote endpoints to them.
/// The same provider instances back both the in-process and the remote
/// path: all per-query randomness is keyed by (provider seed, session
/// nonce), so runs do not perturb each other.
class RpcLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    providers_.push_back(MakeProvider(20000, 3));
    providers_.push_back(MakeProvider(30000, 5));
    for (auto& p : providers_) {
      Result<std::unique_ptr<RpcProviderServer>> server =
          RpcProviderServer::Start(p.get());
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      servers_.push_back(std::move(server).value());
    }
  }

  std::vector<DataProvider*> Ptrs() {
    std::vector<DataProvider*> out;
    for (auto& p : providers_) out.push_back(p.get());
    return out;
  }

  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> ConnectRemote() {
    std::vector<std::string> host_ports;
    for (auto& s : servers_) {
      host_ports.push_back("127.0.0.1:" + std::to_string(s->port()));
    }
    return RemoteEndpoint::ConnectAll(host_ports);
  }

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

  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
};

TEST_F(RpcLoopbackTest, HandshakePublishesEndpointInfo) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
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

TEST_F(RpcLoopbackTest, LoopbackFederationIsBitIdenticalToInProcess) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  Result<QueryOrchestrator> local =
      QueryOrchestrator::Create(Ptrs(), BaseConfig());
  Result<QueryOrchestrator> over_wire =
      QueryOrchestrator::CreateFromEndpoints(std::move(remote).value(),
                                             BaseConfig());
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(over_wire.ok()) << over_wire.status().ToString();

  for (const RangeQuery& q : Workload()) {
    Result<QueryResponse> a = ExecuteQuery(*local, q);
    Result<QueryResponse> b = ExecuteQuery(*over_wire, q);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    // Bit-identical, not approximately equal: the wire codec moves raw
    // double bits and the noise streams are keyed identically.
    EXPECT_EQ(a->estimate, b->estimate) << q.ToString(local->schema());
    EXPECT_EQ(a->stderr_estimate, b->stderr_estimate);
    EXPECT_EQ(a->approximated, b->approximated);
    EXPECT_EQ(a->allocation, b->allocation);
    EXPECT_EQ(a->spent.epsilon, b->spent.epsilon);
    EXPECT_EQ(a->spent.delta, b->spent.delta);
    // Deterministic work counters and the simulated network agree;
    // compute_seconds is wall time and naturally differs.
    EXPECT_EQ(a->breakdown.clusters_scanned, b->breakdown.clusters_scanned);
    EXPECT_EQ(a->breakdown.rows_scanned, b->breakdown.rows_scanned);
    EXPECT_EQ(a->breakdown.network_bytes, b->breakdown.network_bytes);
    EXPECT_EQ(a->breakdown.network_messages, b->breakdown.network_messages);

    Result<QueryResponse> ea = local->ExecuteExact(q);
    Result<QueryResponse> eb = over_wire->ExecuteExact(q);
    ASSERT_TRUE(ea.ok());
    ASSERT_TRUE(eb.ok());
    EXPECT_EQ(ea->estimate, eb->estimate);
  }
}

// Progressive rounds cross the wire like one-shot estimates: a client over
// loopback endpoints releases the in-process client's rounds bit for bit,
// exact-path providers included.
TEST_F(RpcLoopbackTest, ProgressiveRoundsAreBitIdenticalOverLoopback) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> local =
      MakeInProcessEndpoints(Ptrs());
  ASSERT_TRUE(local.ok());
  FederationClient::Options options;
  options.protocol = BaseConfig();
  options.analysts = {{"alice", 1e6, 1e3}};
  std::vector<std::vector<double>> bits;
  for (auto* endpoints : {&*local, &*remote}) {
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(*endpoints, options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    bits.emplace_back();
    for (const RangeQuery& q : Workload()) {
      QuerySpec spec{"alice", q};
      spec.kind = QueryKind::kProgressive;
      spec.progressive_rounds = 3;
      QueryTicket ticket = (*client)->Submit(std::move(spec));
      Result<QueryResponse> resp = ticket.Wait();
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      ASSERT_EQ(ticket.Refinements().size(), 3u);
      for (const ProgressiveRound& r : ticket.Refinements()) {
        bits.back().push_back(r.estimate);
        bits.back().push_back(r.stderr_estimate);
        bits.back().push_back(r.spent.epsilon);
        bits.back().push_back(static_cast<double>(r.clusters_scanned));
      }
      bits.back().push_back(static_cast<double>(resp->breakdown.network_bytes));
    }
  }
  EXPECT_EQ(bits[0], bits[1]);
}

TEST_F(RpcLoopbackTest, BatchedEnginePathIsBitIdenticalOverLoopback) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
  ASSERT_TRUE(remote.ok());

  FederationClient::Options opts;
  opts.protocol = BaseConfig();
  opts.protocol.num_threads = 4;  // Pool pipelining must survive the wire.
  opts.analysts = {{"ana", 50.0, 0.5}, {"bob", 2.5, 0.1}};

  Result<std::unique_ptr<FederationClient>> local_client =
      FederationClient::Create(Ptrs(), opts);
  Result<std::unique_ptr<FederationClient>> wire_client =
      FederationClient::Create(std::move(remote).value(), opts);
  ASSERT_TRUE(local_client.ok());
  ASSERT_TRUE(wire_client.ok()) << wire_client.status().ToString();

  std::vector<QuerySpec> batch;
  for (const RangeQuery& q : Workload()) {
    batch.push_back({"ana", q});
    batch.push_back({"bob", q});
  }
  batch.push_back({"mallory", Workload()[0]});  // unknown analyst

  std::vector<QueryTicket> a = (*local_client)->SubmitAll(batch);
  std::vector<QueryTicket> b = (*wire_client)->SubmitAll(batch);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    Result<QueryResponse> ra = a[i].Wait();
    Result<QueryResponse> rb = b[i].Wait();
    EXPECT_EQ(ra.status().code(), rb.status().code()) << "entry " << i;
    if (ra.ok() && rb.ok()) {
      EXPECT_EQ(ra->estimate, rb->estimate) << "entry " << i;
      EXPECT_EQ(ra->allocation, rb->allocation);
    }
  }
  for (const char* analyst : {"ana", "bob"}) {
    Result<PrivacyBudget> sa = (*local_client)->ledger().Spent(analyst);
    Result<PrivacyBudget> sb = (*wire_client)->ledger().Spent(analyst);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(sa->epsilon, sb->epsilon);
    EXPECT_EQ(sa->delta, sb->delta);
  }
}

TEST_F(RpcLoopbackTest, RealWireBytesEqualSimNetworkCharges) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
  ASSERT_TRUE(remote.ok());
  std::vector<RemoteEndpoint*> raw;
  for (auto& e : *remote) {
    raw.push_back(static_cast<RemoteEndpoint*>(e.get()));
  }
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::CreateFromEndpoints(std::move(remote).value(),
                                             BaseConfig());
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
      ConnectRemote();
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
      ConnectRemote();
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
// before anything is allocated, and the server keeps serving: the same
// server then answers a well-formed query.
TEST_F(RpcLoopbackTest, HostileSampleSizeIsRefusedAndTheServerSurvives) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
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

  FederationClient::Options options;
  options.protocol = BaseConfig();
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
      ConnectRemote();
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
      ConnectRemote();
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
