// Tests for the execution layer: thread pool, provider endpoints, the
// orchestrator's cost aggregation and per-coordinator noise, and the
// multi-analyst FederationClient session layer driven synchronously.
// Answers across pool sizes, shard counts and batch splits are pinned by
// tests/determinism_matrix_test.cc.

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/federation.h"
#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "exec/thread_pool.h"
#include "federation/orchestrator.h"
#include "storage/sharded_scan_executor.h"
#include "workload/datagen.h"
#include "execute_query.h"
#include "fixture.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

// --------------------------------------------------------------- ThreadPool --

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  ParallelFor(&pool, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForRunsInlineWithoutPool) {
  std::vector<int> hits(64, 0);  // unsynchronized: must run on this thread
  const std::thread::id self = std::this_thread::get_id();
  ParallelFor(nullptr, hits.size(), [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), self);
    hits[i] += 1;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForUsesWorkerThreads) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  ParallelFor(&pool, 64, [&](size_t) {
    // Enough work per index that helpers get a chance to claim some.
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPoolTest, SubmitExecutesTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(done.load(), 10);
}

// Stress for the pool-sharing design: shard tasks submit nested
// ParallelFor work onto the SAME bounded pool the outer orchestrator
// phases occupy. The dispenser design must complete every index without
// deadlock — the nested caller drains its own range even when every
// worker is busy — including with extra unrelated tasks in flight.
TEST(ThreadPoolTest, NestedSubmissionFromShardTasksDoesNotDeadlock) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::atomic<int> background{0};
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  {
    ThreadPool pool(2);  // deliberately smaller than the outer fan-out
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&background] { background.fetch_add(1); });
    }
    ParallelFor(&pool, kOuter, [&](size_t o) {
      // Each "endpoint phase" fans its own shard work out on the shared
      // pool, exactly how sharded provider scans nest under orchestration.
      ShardedScanExecutor exec(4, &pool);
      exec.ForEachShard(kInner, [&](size_t, ShardRange range) {
        for (size_t i = range.begin; i < range.end; ++i) {
          hits[o * kInner + i].fetch_add(1);
        }
      });
    });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Destructor drains the unrelated queued tasks before joining.
  }
  EXPECT_EQ(background.load(), 16);
}

// ------------------------------------------------------ ShardedScanExecutor --

// A throwing shard must not leak into the pool (whose tasks must not
// throw) nor be swallowed: the first exception in shard order reaches the
// caller after every shard completed.
TEST(ShardedScanExecutorTest, ShardExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  ShardedScanExecutor exec(4, &pool);
  std::atomic<int> completed{0};
  try {
    exec.ForEachShard(16, [&](size_t shard, ShardRange) {
      if (shard == 2 || shard == 1) {
        throw std::runtime_error("shard " + std::to_string(shard) + " failed");
      }
      completed.fetch_add(1);
    });
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    // Shard order, not completion order: shard 1 wins over shard 2.
    EXPECT_STREQ(e.what(), "shard 1 failed");
  }
  // The healthy shards all ran to completion before the rethrow.
  EXPECT_EQ(completed.load(), 2);
}

TEST(ShardedScanExecutorTest, InlineWithoutPoolAndEmptyDomain) {
  ShardedScanExecutor exec(5, nullptr);
  int calls = 0;
  std::vector<double> seconds =
      exec.ForEachShard(0, [&](size_t, ShardRange) { ++calls; });
  EXPECT_TRUE(seconds.empty());
  EXPECT_EQ(calls, 0);
  seconds = exec.ForEachShard(3, [&](size_t, ShardRange r) {
    calls += static_cast<int>(r.size());
  });
  EXPECT_EQ(seconds.size(), 3u);  // never more shards than items
  EXPECT_EQ(calls, 3);
}

// The merge rule for per-shard wall times is max (shards run in parallel
// in the deployment), never sum — the intra-provider analogue of the
// documented max-across-providers breakdown semantics.
TEST(ShardedScanExecutorTest, ShardSecondsMergeAsMaxNotSum) {
  ShardedScanExecutor exec(3, nullptr);  // inline: per-shard times still real
  std::vector<double> seconds =
      exec.ForEachShard(3, [&](size_t shard, ShardRange) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5 * (shard + 1)));
      });
  ASSERT_EQ(seconds.size(), 3u);
  double total = seconds[0] + seconds[1] + seconds[2];
  double merged = ShardedScanExecutor::MaxSeconds(seconds);
  EXPECT_GE(merged, seconds[2] * 0.5);  // tracks the slowest shard
  EXPECT_LT(merged, total);             // and is strictly below the sum
  EXPECT_EQ(merged, *std::max_element(seconds.begin(), seconds.end()));
}

// ------------------------------------------------------------ AnalystLedger --

TEST(AnalystLedgerTest, RegisterChargeAndExhaust) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("alice", 2.5, 1.0).ok());
  PrivacyBudget query{1.0, 0.25};
  EXPECT_TRUE(ledger.Charge("alice", query).ok());
  EXPECT_TRUE(ledger.Charge("alice", query).ok());
  Status third = ledger.Charge("alice", query);
  EXPECT_EQ(third.code(), StatusCode::kBudgetExhausted);
  Result<PrivacyBudget> spent = ledger.Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_DOUBLE_EQ(spent->epsilon, 2.0);
  EXPECT_DOUBLE_EQ(spent->delta, 0.5);
}

TEST(AnalystLedgerTest, IndependentGrants) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("alice", 1.0, 1.0).ok());
  ASSERT_TRUE(ledger.Register("bob", 10.0, 1.0).ok());
  PrivacyBudget query{1.0, 0.0};
  EXPECT_TRUE(ledger.Charge("alice", query).ok());
  EXPECT_FALSE(ledger.Charge("alice", query).ok());
  // Alice's exhaustion must not affect Bob.
  EXPECT_TRUE(ledger.Charge("bob", query).ok());
  Result<PrivacyBudget> remaining = ledger.Remaining("bob");
  ASSERT_TRUE(remaining.ok());
  EXPECT_DOUBLE_EQ(remaining->epsilon, 9.0);
}

TEST(AnalystLedgerTest, RejectsDuplicatesAndUnknowns) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("alice", 1.0, 1.0).ok());
  EXPECT_FALSE(ledger.Register("alice", 5.0, 1.0).ok());
  EXPECT_FALSE(ledger.Register("", 1.0, 1.0).ok());
  EXPECT_FALSE(ledger.Register("eve", 0.0, 1.0).ok());
  EXPECT_EQ(ledger.Charge("mallory", {0.1, 0.0}).code(), StatusCode::kNotFound);
  EXPECT_FALSE(ledger.Remaining("mallory").ok());
  EXPECT_TRUE(ledger.Knows("alice"));
  EXPECT_FALSE(ledger.Knows("mallory"));
  EXPECT_EQ(ledger.Analysts(), std::vector<std::string>{"alice"});
}

// ----------------------------------------------------------------- Fixtures --

RangeQuery WideQuery() {
  return RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
}

/// Submits `specs` as one contiguous slice of the client's admission
/// sequence and waits for every ticket; outcomes align with `specs`.
std::vector<BatchOutcome> SubmitAndWait(FederationClient* client,
                                        std::vector<QuerySpec> specs) {
  std::vector<QueryTicket> tickets = client->SubmitAll(std::move(specs));
  std::vector<BatchOutcome> outcomes(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    Result<QueryResponse> result = tickets[i].Wait();
    if (result.ok()) {
      outcomes[i].response = std::move(result).value();
    } else {
      outcomes[i].status = result.status();
    }
  }
  return outcomes;
}

// --------------------------------------------------------- InProcessEndpoint --

TEST(InProcessEndpointTest, InfoMirrorsProvider) {
  std::unique_ptr<DataProvider> p = MakeProvider(3000, 7);
  InProcessEndpoint endpoint(p.get());
  EXPECT_EQ(endpoint.info().name, p->name());
  EXPECT_EQ(endpoint.info().cluster_capacity, 128u);
  EXPECT_EQ(endpoint.info().n_min, 4u);
  EXPECT_TRUE(endpoint.info().schema == p->store().schema());
}

TEST(InProcessEndpointTest, SessionLifecycle) {
  std::unique_ptr<DataProvider> p = MakeProvider(3000, 7);
  InProcessEndpoint endpoint(p.get());
  RangeQuery q = WideQuery();

  // Phase calls without a session are refused.
  SummaryRequest summary_req;
  summary_req.query_id = 9;
  summary_req.eps_allocation = 0.3;
  EXPECT_EQ(endpoint.PublishSummary(summary_req).status().code(),
            StatusCode::kFailedPrecondition);

  Result<CoverReply> cover = endpoint.Cover(CoverRequest{9, 77, q});
  ASSERT_TRUE(cover.ok());
  EXPECT_TRUE(cover->should_approximate);
  EXPECT_TRUE(endpoint.PublishSummary(summary_req).ok());

  ApproximateRequest approx_req;
  approx_req.query_id = 9;
  approx_req.sample_size = 3;
  approx_req.eps_sampling = 0.2;
  approx_req.eps_estimate = 0.5;
  approx_req.delta = 1e-3;
  approx_req.add_noise = true;
  EXPECT_TRUE(endpoint.Approximate(approx_req).ok());

  // Ending the session invalidates further phase calls for that id.
  endpoint.EndQuery(9);
  EXPECT_EQ(endpoint.Approximate(approx_req).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(InProcessEndpointTest, ExactFullScanMatchesProvider) {
  std::unique_ptr<DataProvider> p = MakeProvider(3000, 7);
  InProcessEndpoint endpoint(p.get());
  RangeQuery q = WideQuery();
  Result<ExactScanReply> scan = endpoint.ExactFullScan(ExactScanRequest{q});
  ASSERT_TRUE(scan.ok());
  EXPECT_DOUBLE_EQ(scan->value,
                   static_cast<double>(p->store().EvaluateExact(q)));
  EXPECT_GT(scan->work.rows_scanned, 0u);
}

// Endpoints are shared_ptrs a caller may keep past the orchestrator that
// lent them its scan pool; teardown must detach the pool (shards fall
// back inline) instead of leaving the endpoints scanning through a dead
// pointer.
TEST(InProcessEndpointTest, EndpointSurvivesOrchestratorTeardown) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(endpoints.ok());
  double pooled_value = 0.0;
  {
    FederationConfig config = TestConfig(4242, /*num_threads=*/4);
    config.num_scan_shards = 4;
    Result<QueryOrchestrator> orch =
        QueryOrchestrator::CreateFromEndpoints(*endpoints, config);
    ASSERT_TRUE(orch.ok());
    Result<QueryResponse> resp = orch->ExecuteExact(WideQuery());
    ASSERT_TRUE(resp.ok());
    pooled_value = resp->estimate;
  }  // orchestrator (and its pool) destroyed here
  Result<ExactScanReply> scan =
      (*endpoints)[0]->ExactFullScan(ExactScanRequest{WideQuery()});
  ASSERT_TRUE(scan.ok());
  Result<ExactScanReply> other =
      (*endpoints)[1]->ExactFullScan(ExactScanRequest{WideQuery()});
  ASSERT_TRUE(other.ok());
  EXPECT_DOUBLE_EQ(scan->value + other->value, pooled_value);
}

// The reverse teardown order: providers may die before the orchestrator
// (the shell's `open` replaces the federation first, the orchestrator
// second). The orchestrator's destructor detaches endpoint scan pools and
// must not reach into the dead providers while doing so — with the
// default num_scan_shards=0 config, the detach's 0-fallback has to reuse
// the endpoint's cached shard count, not re-resolve provider options.
TEST(InProcessEndpointTest, OrchestratorOutlivingProvidersTearsDownSafely) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  // Shards stay 0.
  FederationConfig config = TestConfig(4242, /*num_threads=*/2);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create(Ptrs(providers), config);
  ASSERT_TRUE(orch.ok());
  ASSERT_TRUE(ExecuteQuery(*orch, WideQuery()).ok());
  providers.clear();  // providers die first; `orch` is destroyed after
}

// ------------------------------------------------- Cost-aggregation (fakes) --

// A scripted endpoint: deterministic protocol messages with configurable
// per-phase compute charges. Exercises the orchestrator through the pure
// message interface, the way a remote backend would.
class FakeEndpoint : public ProviderEndpoint {
 public:
  FakeEndpoint(const std::string& name, const Schema& schema,
               double phase1_seconds, double phase2_seconds, double estimate)
      : phase1_seconds_(phase1_seconds),
        phase2_seconds_(phase2_seconds),
        estimate_(estimate) {
    info_.name = name;
    info_.schema = schema;
    info_.cluster_capacity = 64;
    info_.n_min = 4;
  }

  const EndpointInfo& info() const override { return info_; }

  Result<CoverReply> Cover(const CoverRequest&) override {
    CoverReply reply;
    reply.should_approximate = true;
    // The cover half of phase 1; the summary half below adds the rest.
    reply.work.compute_seconds = phase1_seconds_ / 2.0;
    return reply;
  }

  Result<SummaryReply> PublishSummary(const SummaryRequest&) override {
    SummaryReply reply;
    reply.summary.noisy_avg_r = 0.5;
    reply.summary.noisy_n_q = 10.0;
    reply.summary.work.compute_seconds = phase1_seconds_ / 2.0;
    return reply;
  }

  Result<EstimateReply> Approximate(const ApproximateRequest&) override {
    EstimateReply reply;
    reply.estimate.estimate = estimate_;
    reply.estimate.variance = 1.0;
    reply.estimate.sensitivity = 1.0;
    reply.estimate.noised = true;
    reply.estimate.work.compute_seconds = phase2_seconds_;
    return reply;
  }

  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest&) override {
    EstimateReply reply;
    reply.estimate.estimate = estimate_;
    reply.estimate.exact = true;
    reply.estimate.work.compute_seconds = phase2_seconds_;
    return reply;
  }

  Result<ExactScanReply> ExactFullScan(const ExactScanRequest&) override {
    ExactScanReply reply;
    reply.value = estimate_;
    reply.work.compute_seconds = phase2_seconds_;
    return reply;
  }

  void EndQuery(uint64_t) override {}

 private:
  EndpointInfo info_;
  double phase1_seconds_;
  double phase2_seconds_;
  double estimate_;
};

Schema FakeSchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddDimension("a", 100).ok());
  return schema;
}

// Regression for the documented "max over providers (they work in
// parallel)" semantics: the breakdown must take the per-phase maximum, not
// the sum across providers.
TEST(OrchestratorCostTest, ProviderSecondsAreMaxedNotSummed) {
  Schema schema = FakeSchema();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
      std::make_shared<FakeEndpoint>("fast", schema, /*phase1=*/1.0,
                                     /*phase2=*/2.0, /*estimate=*/10.0),
      std::make_shared<FakeEndpoint>("slow", schema, /*phase1=*/3.0,
                                     /*phase2=*/0.5, /*estimate=*/20.0),
  };
  FederationConfig config = TestConfig(4242, /*num_threads=*/1);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::CreateFromEndpoints(endpoints, config);
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 50).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  // Phase maxima: summary max(1, 3) = 3, estimate max(2, 0.5) = 2. A
  // summing implementation would report 6.5.
  EXPECT_NEAR(resp->breakdown.provider_compute_seconds, 5.0, 1e-9);
  // The sum of scripted estimates survives combination.
  EXPECT_DOUBLE_EQ(resp->estimate, 30.0);

  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->breakdown.provider_compute_seconds, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(exact->estimate, 30.0);
}

// A phase body that throws on a pool worker (e.g. a sharded scan
// rethrowing a shard failure) must surface as a per-query Status, never
// escape into the ThreadPool (whose tasks must not throw) and terminate.
class ThrowingEndpoint : public FakeEndpoint {
 public:
  ThrowingEndpoint(const std::string& name, const Schema& schema)
      : FakeEndpoint(name, schema, 0.0, 0.0, 1.0) {}
  Result<CoverReply> Cover(const CoverRequest&) override {
    throw std::runtime_error("shard 0 failed");
  }
};

TEST(OrchestratorCostTest, ThrowingEndpointBecomesStatusNotTerminate) {
  Schema schema = FakeSchema();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
      std::make_shared<FakeEndpoint>("ok", schema, 0.0, 0.0, 1.0),
      std::make_shared<ThrowingEndpoint>("boom", schema),
  };
  FederationConfig config = TestConfig(4242, /*num_threads=*/4);
  config.num_scan_shards = 2;
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::CreateFromEndpoints(endpoints, config);
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 50).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInternal);
  EXPECT_NE(resp.status().ToString().find("shard 0 failed"), std::string::npos);
}

// Two coordinators over the same providers must not replay each other's
// noise: identical query ids with different orchestrator seeds have to
// yield different draws, else an analyst could difference the releases
// and cancel the DP noise.
TEST(ParallelDeterminismTest, DistinctOrchestratorSeedsDrawDistinctNoise) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  FederationConfig c1 = TestConfig(4242, 1);
  FederationConfig c2 = TestConfig(4242, 1);
  c2.seed = c1.seed + 1;
  Result<QueryOrchestrator> o1 = QueryOrchestrator::Create(Ptrs(providers), c1);
  Result<QueryOrchestrator> o2 = QueryOrchestrator::Create(Ptrs(providers), c2);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  Result<QueryResponse> r1 = ExecuteQuery(*o1, WideQuery());
  Result<QueryResponse> r2 = ExecuteQuery(*o2, WideQuery());
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1->estimate, r2->estimate);
}

// The shard count must never change how provider_compute_seconds is
// aggregated: per phase it is the max across providers (summed across the
// two barrier-separated phases), and enabling sharding only substitutes
// the per-provider term with its own max-over-shards — it must not flip
// any max into a sum. The scripted endpoints report fixed per-phase costs,
// so the breakdown is exact and shard-count-invariant.
TEST(OrchestratorCostTest, ShardCountDoesNotChangeProviderSecondsSemantics) {
  Schema schema = FakeSchema();
  for (size_t shards : {1u, 2u, 7u}) {
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
        std::make_shared<FakeEndpoint>("fast", schema, /*phase1=*/1.0,
                                       /*phase2=*/2.0, /*estimate=*/10.0),
        std::make_shared<FakeEndpoint>("slow", schema, /*phase1=*/3.0,
                                       /*phase2=*/0.5, /*estimate=*/20.0),
    };
    FederationConfig config = TestConfig(4242, /*num_threads=*/2);
    config.num_scan_shards = shards;
    Result<QueryOrchestrator> orch =
        QueryOrchestrator::CreateFromEndpoints(endpoints, config);
    ASSERT_TRUE(orch.ok());
    RangeQuery q =
        RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 50).Build();
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    // max(1,3) + max(2,0.5) = 5 for every shard count; a summing
    // implementation would drift with shards.
    EXPECT_NEAR(resp->breakdown.provider_compute_seconds, 5.0, 1e-9)
        << "shards=" << shards;
  }
}

// ------------------------------------------------ FederationClient sessions --

TEST(ClientSessionTest, UnknownAnalystIsRefusedWithoutProviderWork) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  FederationClient::Options opts;
  opts.protocol = TestConfig(4242, 1);
  opts.analysts = {{"alice", 10.0, 1.0}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), opts);
  ASSERT_TRUE(client.ok());
  Result<QueryResponse> resp =
      (*client)->Submit({"mallory", WideQuery()}).Wait();
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
}

TEST(ClientSessionTest, InvalidQuerySpendsNoBudget) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  FederationClient::Options opts;
  opts.protocol = TestConfig(4242, 1);
  opts.analysts = {{"alice", 10.0, 1.0}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), opts);
  ASSERT_TRUE(client.ok());
  RangeQuery bad = RangeQueryBuilder(Aggregation::kCount).Where(99, 0, 1).Build();
  EXPECT_FALSE((*client)->Submit({"alice", bad}).Wait().ok());
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_DOUBLE_EQ(spent->epsilon, 0.0);
}

TEST(ClientSessionTest, PerAnalystBudgetsEnforcedWithinOneBatch) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  FederationClient::Options opts;
  opts.protocol = TestConfig(4242, 2);
  opts.analysts = {{"alice", 1.5, 1.0}, {"bob", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), opts);
  ASSERT_TRUE(client.ok());

  std::vector<QuerySpec> batch = {
      {"alice", WideQuery()},  // admitted (1.0 of 1.5)
      {"bob", WideQuery()},    // admitted
      {"alice", WideQuery()},  // refused: would exceed alice's xi
      {"bob", WideQuery()},    // admitted: bob unaffected
  };
  std::vector<BatchOutcome> outcomes = SubmitAndWait(client->get(), batch);
  ASSERT_EQ(outcomes.size(), 4u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[2].status.code(), StatusCode::kBudgetExhausted);
  EXPECT_TRUE(outcomes[3].ok());

  Result<PrivacyBudget> alice = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(alice.ok());
  EXPECT_DOUBLE_EQ(alice->epsilon, 1.0);
  Result<PrivacyBudget> bob = (*client)->ledger().Spent("bob");
  ASSERT_TRUE(bob.ok());
  EXPECT_DOUBLE_EQ(bob->epsilon, 2.0);
}

TEST(ClientSessionTest, LateRegistrationAdmitsNewAnalyst) {
  auto providers = MakeProviders(2, 6000, 101, 13);
  FederationClient::Options opts;
  opts.protocol = TestConfig(4242, 1);
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), opts);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE((*client)->Submit({"carol", WideQuery()}).Wait().ok());
  ASSERT_TRUE((*client)->RegisterAnalyst("carol", 10.0, 1.0).ok());
  EXPECT_TRUE((*client)->Submit({"carol", WideQuery()}).Wait().ok());
}

TEST(ClientSessionTest, BatchResponsesCarryBreakdowns) {
  auto providers = MakeProviders(3, 6000, 101, 13);
  FederationClient::Options opts;
  opts.protocol = TestConfig(4242, 2);
  opts.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), opts);
  ASSERT_TRUE(client.ok());
  std::vector<BatchOutcome> outcomes = SubmitAndWait(
      client->get(), {{"alice", WideQuery()}, {"alice", WideQuery()}});
  for (const auto& out : outcomes) {
    ASSERT_TRUE(out.ok());
    EXPECT_GT(out.response.breakdown.network_messages, 0u);
    EXPECT_GT(out.response.breakdown.rows_scanned, 0u);
    EXPECT_EQ(out.response.allocation.size(), 3u);
    EXPECT_TRUE(std::isfinite(out.response.estimate));
  }
}

// ------------------------------------------------------ Federation batching --

TEST(FederationBatchTest, QueryBatchChargesSharedAccountant) {
  SyntheticConfig cfg;
  cfg.rows = 8000;
  cfg.seed = 5;
  cfg.dims = {{"a", 60, DistributionKind::kNormal, 0.4},
              {"b", 40, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts = GenerateFederatedTensors(cfg, {0, 1}, 2);
  ASSERT_TRUE(parts.ok());
  FederationOptions fopts;
  fopts.cluster_capacity = 128;
  fopts.protocol.per_query_budget = {1.0, 1e-3};
  fopts.protocol.total_xi = 2.5;  // admits exactly two queries
  fopts.protocol.total_psi = 1.0;
  fopts.protocol.sampling_rate = 0.3;
  fopts.protocol.num_threads = 2;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), fopts);
  ASSERT_TRUE(fed.ok());

  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 5, 55)
                     .Where(1, 0, 30)
                     .Build();
  RegistryDelta delta;
  std::vector<BatchOutcome> outcomes = (*fed)->QueryBatch({q, q, q});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_TRUE(outcomes[1].ok());
  EXPECT_EQ(outcomes[2].status.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(delta("accountant.charges"), 2u);
  EXPECT_EQ(
      (*fed)->client().ledger().Spent(Federation::kAnalyst)->epsilon, 2.0);
}

}  // namespace
}  // namespace fedaqp
