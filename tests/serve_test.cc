// Tests for the serving subsystem: deficit-weighted fair admission
// (serve::DeficitFairQueue and FederationClient::Options::fair_admission),
// deadline eviction with full refunds, the shared ledger service
// (serve::LedgerService / serve::RemoteLedger) including its idempotent
// retry protocol and mid-charge crash behavior, and the open-loop load
// harness. Runs in the CI ThreadSanitizer job: the two-coordinator
// hammering and the kill-mid-charge tests double as the TSan surface for
// the service's locking.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dp/accountant.h"
#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "fixture.h"
#include "gate_endpoint.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "serve/fair_queue.h"
#include "serve/ledger_service.h"
#include "serve/loadgen.h"

namespace fedaqp {
namespace {

RangeQuery WideQuery(int shift = 0) {
  return RangeQueryBuilder(Aggregation::kCount)
      .Where(0, 10 + shift, 170)
      .Build();
}

// ------------------------------------------------------ DWRR fair queue --

// The schedule is a pure function of (push sequence, weights): a
// hand-computed expectation, repeatable across identical rebuilds.
TEST(DeficitFairQueueTest, ScheduleIsPureFunctionOfSequenceAndWeights) {
  auto build = [] {
    serve::DeficitFairQueue q;
    q.SetWeight("a", 1);
    q.SetWeight("b", 2);
    // Interleaved arrival: a1 b2 a3 b4 a5 b6 a7 b8. Ring order is
    // first-queued: a then b. Rotations: a takes 1, b takes 2; repeat.
    q.Push(1, "a");
    q.Push(2, "b");
    q.Push(3, "a");
    q.Push(4, "b");
    q.Push(5, "a");
    q.Push(6, "b");
    q.Push(7, "a");
    q.Push(8, "b");
    return q;
  };
  const std::vector<uint64_t> expected = {1, 2, 4, 3, 6, 8, 5, 7};
  serve::DeficitFairQueue q1 = build();
  EXPECT_EQ(q1.PopBatch(), expected);
  serve::DeficitFairQueue q2 = build();
  EXPECT_EQ(q2.PopBatch(), expected);
  // A `max` cutoff mid-quantum resumes exactly where it stopped: the
  // concatenation of capped batches equals the uncapped schedule.
  serve::DeficitFairQueue q3 = build();
  std::vector<uint64_t> concat;
  while (!q3.empty()) {
    for (uint64_t seq : q3.PopBatch(3)) concat.push_back(seq);
  }
  EXPECT_EQ(concat, expected);
}

// Starvation bound: an analyst of weight w_i waits at most one full
// rotation — sum over competitors' weights — before its head entry pops.
TEST(DeficitFairQueueTest, LightAnalystAdmitsWithinOneRotation) {
  serve::DeficitFairQueue q;
  q.SetWeight("heavy", 8);
  q.SetWeight("light", 1);
  for (uint64_t i = 0; i < 50; ++i) q.Push(i, "heavy");
  q.Push(100, "light");
  // One full heavy quantum (8) may precede light's turn; light's entry
  // must appear within the first 9 pops.
  std::vector<uint64_t> order = q.PopBatch(9);
  EXPECT_NE(std::find(order.begin(), order.end(), 100u), order.end());
}

// -------------------------------------------- fair admission in the client --

std::vector<QuerySpec> InterleavedBurst(size_t n) {
  // Three analysts with weights {1,2,8} submitting round-robin.
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < n; ++i) {
    QuerySpec spec;
    spec.analyst = "a" + std::to_string(i % 3);
    spec.query = WideQuery(static_cast<int>(i % 7));
    specs.push_back(std::move(spec));
  }
  return specs;
}

// Fairness off (the default) keeps strict FIFO arrival order — the
// pre-serving behavior every existing pin relies on.
TEST(FairAdmissionTest, FifoDefaultPreservesArrivalOrder) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"a0", 1e6, 1e3, 1},
                    {"a1", 1e6, 1e3, 2},
                    {"a2", 1e6, 1e3, 8}};
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<QueryTicket> burst = (*client)->SubmitAll(InterleavedBurst(9));
  (*client)->Resume();
  (*client)->WaitIdle();
  for (QueryTicket& t : burst) EXPECT_TRUE(t.Wait().ok());
  std::vector<uint64_t> expected;
  for (const QueryTicket& t : burst) expected.push_back(t.id());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ((*client)->admission_order(), expected);
}

// With fairness on, a weight-8 competitor cannot starve a weight-1
// analyst: the light analyst's first query admits within one rotation of
// the heavy backlog, not after all of it.
TEST(FairAdmissionTest, HeavyBacklogDoesNotStarveLightAnalyst) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"heavy", 1e6, 1e3, 8}, {"light", 1e6, 1e3, 1}};
  copts.fair_admission = true;
  copts.start_paused = true;
  // Admit one query per round so the DWRR rotation is visible in the
  // admission order rather than collapsed into one big round.
  copts.max_batch_queries = 1;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < 20; ++i) {
    QuerySpec spec;
    spec.analyst = "heavy";
    spec.query = WideQuery(static_cast<int>(i % 7));
    specs.push_back(std::move(spec));
  }
  QuerySpec light;
  light.analyst = "light";
  light.query = WideQuery(3);
  specs.push_back(std::move(light));
  std::vector<QueryTicket> burst = (*client)->SubmitAll(std::move(specs));
  const uint64_t light_seq = burst.back().id();
  (*client)->Resume();
  (*client)->WaitIdle();
  for (QueryTicket& t : burst) EXPECT_TRUE(t.Wait().ok());
  std::vector<uint64_t> order = (*client)->admission_order();
  auto it = std::find(order.begin(), order.end(), light_seq);
  ASSERT_NE(it, order.end());
  // Bound: one full rotation = heavy's weight (8) + light's own turn.
  EXPECT_LT(it - order.begin(), 9);
}

// ------------------------------------------------------ deadline eviction --

// Evicted-before-start queries refund in full, resolve to
// kDeadlineExceeded with stats.evicted set, and the audit log still
// replays to the live ledger bit-exactly.
TEST(DeadlineEvictionTest, EvictedQueriesRefundFullyAndAuditReplays) {
  auto providers = MakeProviders(3, 4000, 901, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(inner.ok());
  // One gate shared by every provider decides when any query can start.
  auto gate = std::make_shared<CallGate>();
  gate->Close();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  for (auto& e : *inner) {
    endpoints.push_back(std::make_shared<GatedEndpoint>(e, gate));
  }
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.evict_expired = true;
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(endpoints, copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // One single-threaded round: a flood of deadline-less high-priority
  // queries takes every thread that drains the round (the ready queue
  // drains high before low), and each of those threads waits in a
  // gated Cover, so the low-priority tail cannot start before the
  // gate opens. The gate opens long after the tail's deadline, so the
  // watcher must have evicted the (admitted, charged) tail by then.
  std::vector<QuerySpec> specs;
  for (size_t i = 0; i < 200; ++i) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = WideQuery(static_cast<int>(i % 7));
    spec.priority = QueryPriority::kHigh;
    specs.push_back(std::move(spec));
  }
  // Long enough that admission always charges the tail before it
  // expires: an expired-at-admission query is refused, not evicted.
  constexpr double kTailDeadlineSeconds = 0.2;
  for (size_t i = 0; i < 10; ++i) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = WideQuery(static_cast<int>(i % 7));
    spec.priority = QueryPriority::kLow;
    spec.deadline_seconds = kTailDeadlineSeconds;
    specs.push_back(std::move(spec));
  }
  std::vector<QueryTicket> burst = (*client)->SubmitAll(std::move(specs));
  (*client)->Resume();
  std::this_thread::sleep_for(
      std::chrono::duration<double>(kTailDeadlineSeconds + 1.0));
  gate->Release();
  (*client)->WaitIdle();
  size_t evicted = 0;
  for (QueryTicket& t : burst) {
    Result<QueryResponse> resp = t.Wait();
    const TicketStats stats = t.Stats();
    if (stats.evicted) {
      ++evicted;
      EXPECT_FALSE(resp.ok());
      EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
      // Full refund: everything charged came back.
      EXPECT_EQ(stats.refunded.epsilon, copts.protocol.per_query_budget.epsilon);
      EXPECT_EQ(stats.refunded.delta, copts.protocol.per_query_budget.delta);
    }
  }
  // No tail query can start before the gate opens, a second past its
  // deadline: the watcher must have evicted the tail.
  EXPECT_GT(evicted, 0u);
  // Replay the audit log (charges + eviction refunds) into a fresh
  // ledger: spent must match the live ledger bit-exactly.
  AnalystLedger replayed;
  ASSERT_TRUE((*client)->audit_log().Replay(&replayed).ok());
  Result<PrivacyBudget> live = (*client)->ledger().Spent("alice");
  Result<PrivacyBudget> rep = replayed.Spent("alice");
  ASSERT_TRUE(live.ok() && rep.ok());
  EXPECT_EQ(live->epsilon, rep->epsilon);
  EXPECT_EQ(live->delta, rep->delta);
}

// --------------------------------------------------- shared ledger service --

TEST(LedgerServiceTest, RegistrationIsJoinIdempotent) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  Result<std::shared_ptr<serve::RemoteLedger>> remote =
      serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(), 7);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_TRUE((*remote)->Register("alice", 10.0, 1.0).ok());
  // Identical grant: OK (a second coordinator joining the fleet).
  EXPECT_TRUE((*remote)->Register("alice", 10.0, 1.0).ok());
  // Conflicting grant: refused.
  Status conflict = (*remote)->Register("alice", 20.0, 1.0);
  EXPECT_EQ(conflict.code(), StatusCode::kInvalidArgument);
  Result<bool> knows = (*remote)->Knows("alice");
  ASSERT_TRUE(knows.ok());
  EXPECT_TRUE(*knows);
  Result<bool> unknown = (*remote)->Knows("bob");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(*unknown);
}

// Two coordinators hammering one grant concurrently never over-spend it:
// the service serializes dedupe + apply, so exactly K of the combined
// charges land. The audit log's merged order replays bit-exactly.
TEST(LedgerServiceTest, TwoCoordinatorsNeverOverspendSharedGrant) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const PrivacyBudget cost{1.0, 1e-3};
  constexpr int kAffordable = 40;
  ASSERT_TRUE(
      (*service)
          ->Register("alice", kAffordable * cost.epsilon,
                     kAffordable * cost.delta)
          .ok());
  std::atomic<int> ok_charges{0};
  auto hammer = [&](uint32_t coordinator) {
    Result<std::shared_ptr<serve::RemoteLedger>> remote =
        serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(),
                                     coordinator);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    for (uint64_t seq = 1; seq <= kAffordable; ++seq) {
      if ((*remote)->Charge("alice", cost, seq).ok()) {
        ok_charges.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread c1(hammer, 1);
  std::thread c2(hammer, 2);
  c1.join();
  c2.join();
  EXPECT_EQ(ok_charges.load(), kAffordable);
  Result<PrivacyBudget> spent = (*service)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_DOUBLE_EQ(spent->epsilon, kAffordable * cost.epsilon);
  AnalystLedger replayed;
  ASSERT_TRUE((*service)->audit_log().Replay(&replayed).ok());
  Result<PrivacyBudget> rep = replayed.Spent("alice");
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(spent->epsilon, rep->epsilon);
  EXPECT_EQ(spent->delta, rep->delta);
}

// Re-sending a (coordinator, seq) mutation — a client retrying after a
// reconnect, unsure whether its charge landed — applies at most once.
TEST(LedgerServiceTest, RetriedChargeIsIdempotent) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->Register("alice", 100.0, 1.0).ok());
  Result<std::shared_ptr<serve::RemoteLedger>> remote =
      serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(), 3);
  ASSERT_TRUE(remote.ok());
  const PrivacyBudget cost{2.0, 1e-3};
  EXPECT_TRUE((*remote)->Charge("alice", cost, 11).ok());
  // Same (coordinator, seq): the recorded outcome, no second apply.
  EXPECT_TRUE((*remote)->Charge("alice", cost, 11).ok());
  // Same seq after an explicit reconnect: still deduped.
  ASSERT_TRUE((*remote)->Reconnect().ok());
  EXPECT_TRUE((*remote)->Charge("alice", cost, 11).ok());
  Result<PrivacyBudget> spent = (*service)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_DOUBLE_EQ(spent->epsilon, 2.0);
}

// Two FederationClients (separate federations, one shared service) spend
// one grant: their combined successful queries never exceed it.
TEST(LedgerServiceTest, TwoClientsShareOneBudget) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  // Room for exactly 5 unit-epsilon queries across both coordinators.
  ASSERT_TRUE((*service)->Register("alice", 5.0, 1.0).ok());
  auto run_client = [&](uint32_t coordinator, size_t queries, size_t* ok) {
    auto providers = MakeProviders(2, 4000, 901, 13);
    Result<std::shared_ptr<serve::RemoteLedger>> remote =
        serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(),
                                     coordinator);
    ASSERT_TRUE(remote.ok());
    FederationClient::Options copts;
    copts.protocol = TestConfig(626, 2);
    copts.shared_ledger = *remote;
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(providers), copts);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t i = 0; i < queries; ++i) {
      QuerySpec spec;
      spec.analyst = "alice";
      spec.query = WideQuery(static_cast<int>(i % 7));
      if ((*client)->Submit(spec).Wait().ok()) ++*ok;
    }
  };
  size_t ok1 = 0, ok2 = 0;
  std::thread t1(run_client, 1, 4, &ok1);
  std::thread t2(run_client, 2, 4, &ok2);
  t1.join();
  t2.join();
  EXPECT_EQ(ok1 + ok2, 5u);
  Result<PrivacyBudget> spent = (*service)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_DOUBLE_EQ(spent->epsilon, 5.0);
}

// Kill the service while clients are mid-stream: affected admissions
// fail with a transport status (no hang, no local charge), and an
// explicit Reconnect against a revived service heals the client.
TEST(LedgerServiceTest, ServiceDeathFailsAdmissionsWithoutHangingOrLeaking) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const uint16_t port = (*service)->port();
  ASSERT_TRUE((*service)->Register("alice", 1e6, 1e3).ok());
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::shared_ptr<serve::RemoteLedger>> remote =
      serve::RemoteLedger::Connect("127.0.0.1", port, 9);
  ASSERT_TRUE(remote.ok());
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.shared_ledger = *remote;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Healthy first query.
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = WideQuery(0);
  ASSERT_TRUE((*client)->Submit(spec).Wait().ok());
  // Kill the service, then submit a stream: every ticket must resolve
  // (non-hanging) with a non-OK status, and nothing may charge locally.
  (*service)->Stop();
  std::vector<QueryTicket> tickets;
  for (int i = 0; i < 6; ++i) {
    QuerySpec s2;
    s2.analyst = "alice";
    s2.query = WideQuery(i % 7);
    tickets.push_back((*client)->Submit(s2));
  }
  for (QueryTicket& t : tickets) {
    Result<QueryResponse> resp = t.Wait();
    EXPECT_FALSE(resp.ok());
  }
  EXPECT_TRUE((*remote)->broken());
  // The client's local ledger is not in play (shared backend): nothing
  // leaked into it.
  EXPECT_FALSE((*client)->ledger().Knows("alice"));
  // Revive on the same port and heal: queries flow again.
  serve::LedgerService::Options ropts;
  ropts.port = port;
  Result<std::unique_ptr<serve::LedgerService>> revived =
      serve::LedgerService::Start(ropts);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_TRUE((*revived)->Register("alice", 1e6, 1e3).ok());
  ASSERT_TRUE((*remote)->Reconnect().ok());
  EXPECT_FALSE((*remote)->broken());
  QuerySpec s3;
  s3.analyst = "alice";
  s3.query = WideQuery(2);
  EXPECT_TRUE((*client)->Submit(s3).Wait().ok());
}

// A coordinator that disconnects leaves nothing behind on the service:
// its handler returns, closes the socket and is reaped.
TEST(LedgerServiceTest, DroppedConnectionsAreReaped) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (uint32_t i = 1; i <= 100; ++i) {
    Result<std::shared_ptr<serve::RemoteLedger>> remote =
        serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(), i);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    Result<bool> knows = (*remote)->Knows("alice");
    ASSERT_TRUE(knows.ok());
  }
  // Each handler notices its peer's close on its own thread.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((*service)->num_connections() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ((*service)->num_connections(), 0u);
}

uint64_t LedgerServiceOps() {
  return obs::MetricRegistry::Global()
      .GetCounter("ledger_service.ops")
      ->Value();
}

// The RemoteLedger remembers analysts the service confirmed, so after
// registration an admission costs one round trip (the charge), not two.
TEST(LedgerServiceTest, AdmissionAfterRegisterCostsOneOp) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::shared_ptr<serve::RemoteLedger>> remote =
      serve::RemoteLedger::Connect("127.0.0.1", (*service)->port(), 4);
  ASSERT_TRUE(remote.ok());
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.shared_ledger = *remote;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  constexpr uint64_t kQueries = 8;
  const uint64_t before = LedgerServiceOps();
  for (uint64_t i = 0; i < kQueries; ++i) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = WideQuery(static_cast<int>(i % 7));
    ASSERT_TRUE((*client)->Submit(spec).Wait().ok());
  }
  EXPECT_EQ(LedgerServiceOps() - before, kQueries);
}

// A restarted service has forgotten every registration: after Reconnect
// the RemoteLedger asks the wire again instead of trusting what the old
// service confirmed. Negative answers are never remembered.
TEST(LedgerServiceTest, ReconnectForgetsConfirmedAnalysts) {
  Result<std::unique_ptr<serve::LedgerService>> service =
      serve::LedgerService::Start({});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const uint16_t port = (*service)->port();
  Result<std::shared_ptr<serve::RemoteLedger>> remote =
      serve::RemoteLedger::Connect("127.0.0.1", port, 5);
  ASSERT_TRUE(remote.ok());
  ASSERT_TRUE((*remote)->Register("alice", 10.0, 1.0).ok());
  uint64_t before = LedgerServiceOps();
  Result<bool> knows = (*remote)->Knows("alice");
  ASSERT_TRUE(knows.ok());
  EXPECT_TRUE(*knows);
  EXPECT_EQ(LedgerServiceOps(), before);  // Answered from the cache.
  Result<bool> unknown = (*remote)->Knows("bob");
  ASSERT_TRUE(unknown.ok());
  EXPECT_FALSE(*unknown);
  EXPECT_EQ(LedgerServiceOps(), before + 1);

  (*service)->Stop();
  service->reset();
  serve::LedgerService::Options ropts;
  ropts.port = port;
  Result<std::unique_ptr<serve::LedgerService>> revived =
      serve::LedgerService::Start(ropts);
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  ASSERT_TRUE((*remote)->Reconnect().ok());
  before = LedgerServiceOps();
  knows = (*remote)->Knows("alice");
  ASSERT_TRUE(knows.ok());
  EXPECT_FALSE(*knows);
  EXPECT_EQ(LedgerServiceOps(), before + 1);
}

// ------------------------------------------------------- open-loop harness --

// The harness offers its configured load without closed-loop throttling
// and classifies every outcome; totals reconcile.
TEST(LoadGeneratorTest, OffersLoadAndReconcilesOutcomes) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"a0", 1e6, 1e3, 1}, {"a1", 1e6, 1e3, 2}};
  copts.fair_admission = true;
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  serve::LoadGenerator gen(client->get(),
                           {WideQuery(0), WideQuery(2), WideQuery(5)});
  serve::LoadOptions lopts;
  lopts.offered_qps = 200.0;
  lopts.duration_seconds = 0.25;
  lopts.num_analysts = 2;
  lopts.seed = 9;
  serve::LoadMix mix;
  mix.high_fraction = 0.3;
  mix.low_fraction = 0.3;
  mix.reuse_fraction = 0.5;
  serve::LoadReport rep = gen.Run(lopts, mix);
  EXPECT_GT(rep.submitted, 0u);
  EXPECT_EQ(rep.submitted, rep.ok + rep.refused + rep.evicted +
                               rep.budget_refused + rep.failed);
  uint64_t class_sum = 0;
  for (const serve::ClassReport& c : rep.per_class) class_sum += c.submitted;
  EXPECT_EQ(class_sum, rep.submitted);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_GT(rep.cache_served, 0u);
  EXPECT_GT(rep.achieved_qps, 0.0);
  for (const serve::ClassReport& c : rep.per_class) {
    if (c.ok > 0) {
      EXPECT_GT(c.p50_seconds, 0.0);
      EXPECT_GE(c.p99_seconds, c.p50_seconds);
      EXPECT_GE(c.p999_seconds, c.p99_seconds);
    }
  }
}

}  // namespace
}  // namespace fedaqp
