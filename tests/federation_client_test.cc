// Tests for the async submission API: the thread-safe FederationClient
// (Submit/QueryTicket/Cancel), its determinism contract — concurrent
// submitters produce answers and ledgers bit-identical to a synchronous
// replay of the same admission sequence, in-process and over loopback RPC
// — cancellation refunds under the paper's composition accounting,
// priority/deadline-aware scheduling, exact queries on the shared
// scheduler, pipelined session release, and progressive tickets. The
// whole file runs in the CI ThreadSanitizer job: the multi-threaded
// submitter stress and the concurrent ticket hammering double as the
// TSan surface for the client's locking.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "exec/task_graph.h"
#include "exec/thread_pool.h"
#include "federation/orchestrator.h"
#include "execute_query.h"
#include "fixture.h"
#include "gate_endpoint.h"

namespace fedaqp {
namespace {

RangeQuery WideQuery(int shift = 0) {
  return RangeQueryBuilder(Aggregation::kCount)
      .Where(0, 10 + shift, 170)
      .Build();
}

// ------------------------------------------------- determinism vs sync path --

/// One concurrently submitted workload, replayed synchronously in the
/// admission order the client actually chose: answers, statuses, and
/// per-analyst ledgers must match bit-for-bit.
void RunSubmitterStress(size_t pool_threads, BatchScheduler scheduler,
                        bool loopback) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 3;

  auto providers = MakeProviders(3, 4000, 901, 13);
  LoopbackServers servers(loopback ? Ptrs(providers)
                                   : std::vector<DataProvider*>{});
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, pool_threads, scheduler);
  for (size_t s = 0; s < kSubmitters; ++s) {
    copts.analysts.push_back({"a" + std::to_string(s), 1e6, 1e3});
  }
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
      loopback ? servers.Connect() : MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(endpoints.ok()) << endpoints.status().ToString();
  Result<std::unique_ptr<FederationClient>> made =
      FederationClient::Create(*endpoints, copts);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  FederationClient* client = made->get();

  // Concurrent submitters, plus a reader hammering ticket accessors while
  // queries execute (the TSan surface for the handle's locking).
  std::mutex collect_mutex;
  std::vector<QueryTicket> tickets;
  std::atomic<bool> reading{true};
  std::vector<std::thread> threads;
  threads.reserve(kSubmitters + 1);
  for (size_t s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        QuerySpec spec;
        spec.analyst = "a" + std::to_string(s);
        spec.query = WideQuery(static_cast<int>(s * kPerSubmitter + i));
        spec.priority = i % 2 == 0 ? QueryPriority::kHigh : QueryPriority::kLow;
        QueryTicket ticket = client->Submit(std::move(spec));
        std::lock_guard<std::mutex> lock(collect_mutex);
        tickets.push_back(std::move(ticket));
      }
    });
  }
  threads.emplace_back([&] {
    while (reading.load()) {
      std::lock_guard<std::mutex> lock(collect_mutex);
      for (QueryTicket& t : tickets) {
        t.Done();
        t.TryGet();
        t.Stats();
      }
    }
  });
  for (size_t s = 0; s < kSubmitters; ++s) threads[s].join();
  client->WaitIdle();
  reading.store(false);
  threads.back().join();

  // The admission sequence the client actually used.
  std::sort(tickets.begin(), tickets.end(),
            [](const QueryTicket& a, const QueryTicket& b) {
              return a.id() < b.id();
            });
  std::vector<QuerySpec> sequence;
  std::vector<double> async_estimates;
  for (QueryTicket& ticket : tickets) {
    Result<QueryResponse> resp = ticket.Wait();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    sequence.push_back({ticket.spec().analyst, ticket.spec().query});
    async_estimates.push_back(resp->estimate);
  }

  // Synchronous replay of that sequence on an identical federation: one
  // SubmitAll on a single-threaded phase-barrier client.
  auto replay_providers = MakeProviders(3, 4000, 901, 13);
  FederationClient::Options ropts;
  ropts.protocol = TestConfig(626, 1, BatchScheduler::kPhaseBarrier);
  ropts.analysts = copts.analysts;
  Result<std::unique_ptr<FederationClient>> replay =
      FederationClient::Create(Ptrs(replay_providers), ropts);
  ASSERT_TRUE(replay.ok());
  std::vector<QueryTicket> replayed = (*replay)->SubmitAll(std::move(sequence));
  ASSERT_EQ(replayed.size(), async_estimates.size());
  for (size_t i = 0; i < replayed.size(); ++i) {
    Result<QueryResponse> resp = replayed[i].Wait();
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->estimate, async_estimates[i])
        << "admission position " << i;
  }
  for (size_t s = 0; s < kSubmitters; ++s) {
    const std::string analyst = "a" + std::to_string(s);
    Result<PrivacyBudget> async_spent = client->ledger().Spent(analyst);
    Result<PrivacyBudget> replay_spent = (*replay)->ledger().Spent(analyst);
    ASSERT_TRUE(async_spent.ok());
    ASSERT_TRUE(replay_spent.ok());
    EXPECT_EQ(async_spent->epsilon, replay_spent->epsilon) << analyst;
    EXPECT_EQ(async_spent->delta, replay_spent->delta) << analyst;
  }
}

TEST(FederationClientStressTest, ConcurrentSubmittersMatchSequentialReplay) {
  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("graph pool=" + std::to_string(threads));
    RunSubmitterStress(threads, BatchScheduler::kTaskGraph, /*loopback=*/false);
  }
  for (size_t threads : {1u, 8u}) {
    SCOPED_TRACE("barrier pool=" + std::to_string(threads));
    RunSubmitterStress(threads, BatchScheduler::kPhaseBarrier,
                       /*loopback=*/false);
  }
}

TEST(FederationClientStressTest, LoopbackSubmittersMatchSequentialReplay) {
  RunSubmitterStress(2, BatchScheduler::kTaskGraph, /*loopback=*/true);
}

// Regression: TicketStats' admission-round fields (batch wall, critical
// path) used to be written after delivery, so Wait() then Stats() could
// read zeros — or race the admission thread outright. They now publish
// atomically with the seal: the instant Wait() returns, Stats() must show
// the final, non-zero round stats. Hammered from many threads under TSan.
TEST(FederationClientStressTest, WaitThenStatsSeesSealedBatchStats) {
  constexpr size_t kSubmitters = 4;
  constexpr size_t kPerSubmitter = 4;
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 4);
  for (size_t s = 0; s < kSubmitters; ++s) {
    copts.analysts.push_back({"a" + std::to_string(s), 1e6, 1e3});
  }
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());

  std::vector<std::thread> threads;
  threads.reserve(kSubmitters);
  for (size_t s = 0; s < kSubmitters; ++s) {
    threads.emplace_back([&, s] {
      for (size_t i = 0; i < kPerSubmitter; ++i) {
        QuerySpec spec;
        spec.analyst = "a" + std::to_string(s);
        spec.query = WideQuery(static_cast<int>(s * kPerSubmitter + i));
        QueryTicket ticket = (*client)->Submit(std::move(spec));
        EXPECT_TRUE(ticket.Wait().ok());
        // The very next read — no WaitIdle, no sleep — sees the sealed
        // round stats: a batch that executed work took nonzero wall time.
        const TicketStats stats = ticket.Stats();
        EXPECT_GT(stats.batch_wall_seconds, 0.0);
        EXPECT_GT(stats.critical_path_seconds, 0.0);
        EXPECT_GE(stats.wall_seconds, 0.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

// ----------------------------------------------------------- cancellation --

// Cancellation stops stage *advancement* but never revokes a stage some
// provider already reached: its budget share is spent once per query
// (parallel composition), so peers must be allowed to finish it — this
// is what keeps Cancel()'s "too late, the result stands" promise true
// when the estimate stage was already claimed.
TEST(QueryCancelTokenTest, CancelDoesNotRevokeAGrantedStage) {
  QueryCancelToken released;
  EXPECT_TRUE(released.Claim(QueryStage::kEstimateReleased));
  EXPECT_EQ(released.Cancel(), QueryStage::kEstimateReleased);
  // A peer provider's claim of the already-granted stage still succeeds.
  EXPECT_TRUE(released.Claim(QueryStage::kEstimateReleased));
  EXPECT_TRUE(released.Claim(QueryStage::kSummaryPublished));

  QueryCancelToken summarized;
  EXPECT_TRUE(summarized.Claim(QueryStage::kSummaryPublished));
  EXPECT_EQ(summarized.Cancel(), QueryStage::kSummaryPublished);
  EXPECT_TRUE(summarized.Claim(QueryStage::kSummaryPublished));
  // ...but advancing to a new stage stays blocked.
  EXPECT_FALSE(summarized.Claim(QueryStage::kEstimateReleased));
  EXPECT_EQ(summarized.stage(), QueryStage::kSummaryPublished);
}

TEST(FederationClientCancelTest, CancelBeforeExecutionRefusesAndChargesNothing) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  EXPECT_TRUE(ticket.Cancel());
  (*client)->Resume();
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCancelled);
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_EQ(spent->epsilon, 0.0);
  EXPECT_EQ(spent->delta, 0.0);
  // Nothing was charged, so nothing was refunded.
  EXPECT_EQ(ticket.Stats().refunded.epsilon, 0.0);
}

TEST(FederationClientCancelTest, CancelAfterCompletionIsANoop) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  ASSERT_TRUE(ticket.Wait().ok());
  EXPECT_FALSE(ticket.Cancel());
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_EQ(spent->epsilon, 1.0);  // the full per-query eps stays spent
}

// A query cancelled after its summary phase began (eps_O spent) but
// before any estimate release gets the sampling + estimate shares — and
// the full delta — refunded: the paper's composition accounting, stage
// by stage.
TEST(FederationClientCancelTest, MidQueryCancelRefundsUnexercisedShares) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(inner.ok());
  // Every Cover on provider 0 waits until the gate is released.
  auto gate = std::make_shared<CallGate>();
  gate->Close();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
      std::make_shared<GatedEndpoint>((*inner)[0], gate), (*inner)[1]};
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(endpoints, copts);
  ASSERT_TRUE(client.ok());

  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  // The summary stage is claimed before Cover is called, so once the
  // gate reports entry the query is at kSummaryPublished.
  gate->WaitEntered();
  EXPECT_TRUE(ticket.Cancel());
  gate->Release();

  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCancelled);
  (*client)->WaitIdle();

  const FederationConfig& config = copts.protocol;
  const double expected_spent =
      config.split.hp_allocation * config.per_query_budget.epsilon;
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_NEAR(spent->epsilon, expected_spent, 1e-12);
  EXPECT_NEAR(spent->delta, 0.0, 1e-15);  // delta is an estimate-stage cost
  const TicketStats stats = ticket.Stats();
  EXPECT_NEAR(stats.refunded.epsilon,
              config.per_query_budget.epsilon - expected_spent, 1e-12);
  EXPECT_NEAR(stats.refunded.delta, config.per_query_budget.delta, 1e-15);
}

// A workload cancelled before execution never reaches the remote
// endpoints' async issue path: the scheduler runs the self-skipping
// stubs inline, so no per-connection dispatch thread is ever started
// (and no no-op closures queue behind live traffic).
TEST(FederationClientCancelTest, CancelledQueriesBypassRemoteDispatch) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  LoopbackServers servers(Ptrs(providers));
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      servers.Connect();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(*remote, copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  EXPECT_TRUE(ticket.Cancel());
  (*client)->Resume();
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kCancelled);
  (*client)->WaitIdle();
  for (const auto& endpoint : *remote) {
    auto* remote_endpoint = static_cast<RemoteEndpoint*>(endpoint.get());
    EXPECT_FALSE(remote_endpoint->dispatch_started());
  }
}

// --------------------------------------------------- priority and deadline --

TEST(TaskGraphPriorityTest, ReadyQueueDrainsByPriorityDeadlineThenKey) {
  // A null pool drains inline in deterministic urgency order. One dummy
  // root gates everything so all contested nodes are ready simultaneously.
  TaskGraph graph(nullptr);
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    order.push_back(name);
    return Status::OK();
  };
  TaskGraph::TaskId root = graph.Add(TaskKey{0, TaskPhase::kGeneric},
                                     [] { return Status::OK(); });
  TaskOptions low;
  low.priority = 2;
  TaskOptions normal;  // priority 1
  TaskOptions high;
  high.priority = 0;
  TaskOptions high_soon = high;
  high_soon.deadline = 1.0;
  TaskOptions high_later = high;
  high_later.deadline = 5.0;
  graph.Add(TaskKey{1, TaskPhase::kGeneric}, [&] { return record("low"); },
            {root}, nullptr, low);
  graph.Add(TaskKey{2, TaskPhase::kGeneric}, [&] { return record("normal"); },
            {root}, nullptr, normal);
  graph.Add(TaskKey{3, TaskPhase::kGeneric},
            [&] { return record("high_later"); }, {root}, nullptr, high_later);
  graph.Add(TaskKey{4, TaskPhase::kGeneric},
            [&] { return record("high_soon"); }, {root}, nullptr, high_soon);
  graph.Add(TaskKey{5, TaskPhase::kGeneric},
            [&] { return record("high_nodeadline"); }, {root}, nullptr, high);
  graph.Run();
  const std::vector<std::string> expected = {
      "high_soon", "high_later", "high_nodeadline", "normal", "low"};
  EXPECT_EQ(order, expected);
}

TEST(FederationClientPriorityTest, HighPriorityCompletesBeforeLowInOneRound) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec low;
  low.analyst = "alice";
  low.query = WideQuery(0);
  low.priority = QueryPriority::kLow;
  QuerySpec high;
  high.analyst = "alice";
  high.query = WideQuery(1);
  high.priority = QueryPriority::kHigh;
  // Low submitted FIRST: under FIFO it would also complete first.
  QueryTicket low_ticket = (*client)->Submit(std::move(low));
  QueryTicket high_ticket = (*client)->Submit(std::move(high));
  (*client)->Resume();
  ASSERT_TRUE(low_ticket.Wait().ok());
  ASSERT_TRUE(high_ticket.Wait().ok());
  (*client)->WaitIdle();
  // Same admission round, one worker: the high-priority query's nodes —
  // and therefore its delivery — run first, even though it arrived last.
  // Its measured wall is strictly smaller although it was submitted
  // later (delivery order is deterministic on a single-thread pool).
  EXPECT_LT(high_ticket.Stats().wall_seconds,
            low_ticket.Stats().wall_seconds);
}

TEST(FederationClientDeadlineTest, ExpiredDeadlineIsRefusedBeforeCharging) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  spec.deadline_seconds = 1e-9;
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  (*client)->Resume();
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_EQ(spent->epsilon, 0.0);
}

// ------------------------------------------------ exact on one scheduler --

TEST(FederationClientExactTest, ExactSpecsMatchTheExactBaseline) {
  auto providers = MakeProviders(3, 4000, 901, 13);
  const RangeQuery q = WideQuery();
  double expected = 0.0;
  for (DataProvider* p : Ptrs(providers)) {
    expected += static_cast<double>(p->store().EvaluateExact(q));
  }
  for (BatchScheduler scheduler :
       {BatchScheduler::kTaskGraph, BatchScheduler::kPhaseBarrier}) {
    FederationClient::Options copts;
    copts.protocol = TestConfig(626, 2, scheduler);
    copts.analysts = {{"alice", 1e6, 1e3}};
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(providers), copts);
    ASSERT_TRUE(client.ok());
    // Mixed kinds in one submission stream: the exact query shares the
    // scheduler with a private one.
    QuerySpec approx;
    approx.analyst = "alice";
    approx.query = q;
    QuerySpec exact;
    exact.query = q;
    exact.kind = QueryKind::kExact;
    QueryTicket approx_ticket = (*client)->Submit(std::move(approx));
    QueryTicket exact_ticket = (*client)->Submit(std::move(exact));
    Result<QueryResponse> exact_resp = exact_ticket.Wait();
    ASSERT_TRUE(exact_resp.ok()) << exact_resp.status().ToString();
    EXPECT_EQ(exact_resp->estimate, expected);
    EXPECT_FALSE(exact_resp->approximated);
    EXPECT_EQ(exact_resp->spent.epsilon, 0.0);  // no budget for exact
    ASSERT_TRUE(approx_ticket.Wait().ok());
  }
  // ExecuteExact (the orchestrator surface) runs on the graph too and
  // must agree.
  Result<QueryOrchestrator> orch = QueryOrchestrator::Create(
      Ptrs(providers), TestConfig(626, 2));
  ASSERT_TRUE(orch.ok());
  Result<QueryResponse> direct = orch->ExecuteExact(q);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->estimate, expected);
}

// ------------------------------------------------- pipelined session release --

// EndQuery rides the task graph as kRelease nodes; every session must
// still be closed by the time the batch returns.
TEST(FederationClientReleaseTest, GraphBatchReleasesEverySession) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(endpoints.ok());
  Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
      *endpoints, TestConfig(626, 4));
  ASSERT_TRUE(orch.ok());
  std::vector<RangeQuery> queries = {WideQuery(0), WideQuery(1), WideQuery(2)};
  std::vector<BatchOutcome> outcomes = ExecuteQueries(*orch, queries);
  for (const BatchOutcome& out : outcomes) EXPECT_TRUE(out.ok());
  for (const auto& endpoint : *endpoints) {
    auto* in_process = static_cast<InProcessEndpoint*>(endpoint.get());
    EXPECT_EQ(in_process->num_open_sessions(), 0u);
  }
}

// -------------------------------------------------------------- progressive --

// A client built over endpoints serves progressive queries: every round is
// released and the whole budget charged.
TEST(FederationClientProgressiveTest, EndpointBackedClientServesProgressive) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> endpoints =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(endpoints.ok());
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(*endpoints, copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery();
  spec.kind = QueryKind::kProgressive;
  spec.progressive_rounds = 3;
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(ticket.Refinements().size(), 3u);
  EXPECT_EQ(resp->estimate, ticket.Refinements().back().estimate);
  EXPECT_EQ((*client)->ledger().Spent("alice")->epsilon, 1.0);
}

// ------------------------------------------------------------- lifecycle --

TEST(FederationClientLifecycleTest, DestructionDrainsOutstandingQueries) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  std::vector<QuerySpec> specs(3);
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].analyst = "alice";
    specs[i].query = WideQuery(static_cast<int>(i));
  }
  std::vector<QueryTicket> tickets = (*client)->SubmitAll(std::move(specs));
  // Destruction overrides the pause and drains everything first.
  client->reset();
  for (QueryTicket& ticket : tickets) {
    Result<QueryResponse> resp = ticket.Wait();
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
  }
}

TEST(FederationClientLifecycleTest, UnknownAnalystIsRefused) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "mallory";
  spec.query = WideQuery();
  Result<QueryResponse> resp = (*client)->Submit(std::move(spec)).Wait();
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kNotFound);
}

// --------------------------------------------------------------- planning --

// The dry run and admission share one charge rule: under a horizon each
// query is charged remaining / horizon at its admission, so the plan walks
// the workload in order and admission then charges exactly what it planned.
TEST(FederationClientPlanTest, PlanWithHorizonMatchesAdmittedCharges) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 2.0, 1.0}};
  copts.plan_horizon = 4;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  const std::vector<RangeQuery> workload = {WideQuery(0), WideQuery(1),
                                            WideQuery(2)};
  const std::vector<double> expected = {0.5, 0.375, 0.28125};
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("alice", workload);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->queries.size(), workload.size());
  EXPECT_EQ(plan->answerable, workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    EXPECT_TRUE(plan->queries[i].answerable) << "query " << i;
    EXPECT_EQ(plan->queries[i].budget.epsilon, expected[i]) << "query " << i;
  }
  EXPECT_EQ(plan->projected_spend.epsilon, 0.5 + 0.375 + 0.28125);

  for (const RangeQuery& q : workload) {
    ASSERT_TRUE((*client)->Submit(QuerySpec{"alice", q}).Wait().ok());
  }
  std::vector<double> charged;
  for (const auto& record : (*client)->audit_log().ForAnalyst("alice")) {
    if (record.kind == obs::BudgetAuditLog::Kind::kCharge) {
      charged.push_back(record.epsilon);
    }
  }
  EXPECT_EQ(charged, expected);
}

// Progressive queries run the same admission decision, so the horizon
// charges them what the plan predicts, exactly like approximate ones.
TEST(FederationClientPlanTest, ProgressiveQueryGetsThePlannedHorizonCharge) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 2.0, 1.0}};
  copts.plan_horizon = 4;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("alice", {WideQuery(0)});
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->queries[0].budget.epsilon, 0.5);

  QuerySpec spec{"alice", WideQuery(0)};
  spec.kind = QueryKind::kProgressive;
  Result<QueryResponse> resp = (*client)->Submit(std::move(spec)).Wait();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  std::vector<double> charged;
  for (const auto& record : (*client)->audit_log().ForAnalyst("alice")) {
    if (record.kind == obs::BudgetAuditLog::Kind::kCharge) {
      charged.push_back(record.epsilon);
    }
  }
  EXPECT_EQ(charged, std::vector<double>({0.5}));
}

}  // namespace
}  // namespace fedaqp
