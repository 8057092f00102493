// Tests for the noisy-answer DP cache and the workload-aware budget
// planner: query normalization, exact-repeat serving with the epsilon
// gate, greedy prefix/suffix tiling with remainder purchase, cut-point
// demotion, invalidation, and the planner's stretch rule and snapshot
// plan — plus the client-level property suite: with the cache on,
// misses are bit-identical to a no-cache run of the same admission
// sequence (across pool sizes, schedulers, rounds and loopback in
// tests/determinism_matrix_test.cc); ledgers charge exactly the
// uncovered-remainder cost; a
// cancelled remainder purchase leaves the cache consistent; the
// registry's cache, client and accountant counters reconcile with ticket
// outcomes; planning races admission safely. The file runs in the CI
// ThreadSanitizer job.

#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/answer_cache.h"
#include "cache/budget_planner.h"
#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "fixture.h"
#include "gate_endpoint.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

Schema TestSchema() { return Schema({{"d0", 200}, {"d1", 100}}); }

RangeQuery Dim0(Value lo, Value hi) {
  return RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
}

RangeQuery Dim1(Value lo, Value hi) {
  return RangeQueryBuilder(Aggregation::kCount).Where(1, lo, hi).Build();
}

constexpr PrivacyBudget kEps1{1.0, 1e-3};

// ------------------------------------------------------------ normalization --

TEST(NormalizeQueryTest, ClipsToDomainAndDropsFullDomainRanges) {
  const Schema schema = TestSchema();
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, -5, 300)  // clips to [0,199] == full domain
                     .Where(1, 10, 20)
                     .Build();
  NormalizedQuery norm = NormalizeQuery(q, schema);
  ASSERT_EQ(norm.ranges.size(), 1u);
  EXPECT_EQ(norm.ranges[0].dim_index, 1u);
  EXPECT_EQ(norm.ranges[0].lo, 10);
  EXPECT_EQ(norm.ranges[0].hi, 20);
  // The same statistic asked two ways normalizes to the same key.
  EXPECT_EQ(norm.KeyString("alice"),
            NormalizeQuery(Dim1(10, 20), schema).KeyString("alice"));
  // ... but not across analysts (answers are per-analyst purchases).
  EXPECT_NE(norm.KeyString("alice"), norm.KeyString("bob"));
}

TEST(NormalizeQueryTest, DifferentlyPhrasedRepeatIsAnExactHit) {
  NoisyAnswerCache cache(TestSchema());
  auto first = cache.Resolve("alice", Dim1(10, 20), kEps1, 1);
  ASSERT_EQ(first.kind, NoisyAnswerCache::Decision::Kind::kMiss);
  NoisyAnswerCache::Publish(*first.purchase, Status::OK(), 42.0, 4.0, true);
  RangeQuery rephrased = RangeQueryBuilder(Aggregation::kCount)
                             .Where(0, -5, 300)
                             .Where(1, 10, 20)
                             .Build();
  auto second = cache.Resolve("alice", rephrased, kEps1, 2);
  EXPECT_EQ(second.kind, NoisyAnswerCache::Decision::Kind::kHit);
  EXPECT_EQ(second.hit, first.purchase);
}

// ------------------------------------------------------- eps gate & repeats --

TEST(AnswerCacheTest, ExactRepeatHonorsEpsilonGate) {
  NoisyAnswerCache cache(TestSchema());
  auto miss = cache.Resolve("alice", Dim0(10, 99), kEps1, 1);
  ASSERT_EQ(miss.kind, NoisyAnswerCache::Decision::Kind::kMiss);
  NoisyAnswerCache::Publish(*miss.purchase, Status::OK(), 100.0, 9.0, true);

  // A lower-accuracy request is free post-processing of the purchase.
  auto lower = cache.Resolve("alice", Dim0(10, 99), {0.5, 1e-3}, 2);
  EXPECT_EQ(lower.kind, NoisyAnswerCache::Decision::Kind::kHit);
  // A higher-accuracy request must re-purchase (and replaces the entry).
  auto higher = cache.Resolve("alice", Dim0(10, 99), {2.0, 1e-3}, 3);
  ASSERT_EQ(higher.kind, NoisyAnswerCache::Decision::Kind::kMiss);
  NoisyAnswerCache::Publish(*higher.purchase, Status::OK(), 101.0, 2.0, true);
  auto after = cache.Resolve("alice", Dim0(10, 99), {1.5, 1e-3}, 4);
  EXPECT_EQ(after.kind, NoisyAnswerCache::Decision::Kind::kHit);
  EXPECT_EQ(after.hit, higher.purchase);
  // Another analyst's purchases never serve this one.
  auto bob = cache.Resolve("bob", Dim0(10, 99), {0.5, 1e-3}, 5);
  EXPECT_EQ(bob.kind, NoisyAnswerCache::Decision::Kind::kMiss);
}

// ------------------------------------------------------------------- tiling --

TEST(AnswerCacheTest, TilesPrefixSuffixAndBuysOnlyTheRemainder) {
  NoisyAnswerCache cache(TestSchema());
  auto a = cache.Resolve("alice", Dim0(0, 49), kEps1, 1);
  auto b = cache.Resolve("alice", Dim0(50, 99), kEps1, 2);
  ASSERT_EQ(a.kind, NoisyAnswerCache::Decision::Kind::kMiss);
  ASSERT_EQ(b.kind, NoisyAnswerCache::Decision::Kind::kMiss);
  NoisyAnswerCache::Publish(*a.purchase, Status::OK(), 10.0, 1.0, true);
  NoisyAnswerCache::Publish(*b.purchase, Status::OK(), 20.0, 1.0, true);

  // [0,99] is fully covered: composed, nothing to buy.
  auto full = cache.Resolve("alice", Dim0(0, 99), kEps1, 3);
  ASSERT_EQ(full.kind, NoisyAnswerCache::Decision::Kind::kComposed);
  EXPECT_FALSE(full.has_remainder);
  ASSERT_EQ(full.parts.size(), 2u);
  EXPECT_EQ(full.parts[0], a.purchase);  // ascending-lo order
  EXPECT_EQ(full.parts[1], b.purchase);
  EXPECT_EQ(full.purchase, nullptr);

  // [0,149] leaves one contiguous remainder [100,149] to purchase.
  auto partial = cache.Resolve("alice", Dim0(0, 149), kEps1, 4);
  ASSERT_EQ(partial.kind, NoisyAnswerCache::Decision::Kind::kComposed);
  EXPECT_TRUE(partial.has_remainder);
  ASSERT_EQ(partial.parts.size(), 2u);
  ASSERT_EQ(partial.remainder_query.ranges().size(), 1u);
  EXPECT_EQ(partial.remainder_query.ranges()[0].lo, 100);
  EXPECT_EQ(partial.remainder_query.ranges()[0].hi, 149);
  ASSERT_NE(partial.purchase, nullptr);
  NoisyAnswerCache::Publish(*partial.purchase, Status::OK(), 30.0, 1.0, true);

  // The purchased remainder now completes [0,149] for free.
  auto again = cache.Resolve("alice", Dim0(0, 149), kEps1, 5);
  EXPECT_EQ(again.kind, NoisyAnswerCache::Decision::Kind::kComposed);
  EXPECT_FALSE(again.has_remainder);
  EXPECT_EQ(again.parts.size(), 3u);

  // An interval aligned to no cached boundary is a plain miss.
  auto off = cache.Resolve("alice", Dim0(20, 60), kEps1, 6);
  EXPECT_EQ(off.kind, NoisyAnswerCache::Decision::Kind::kMiss);
}

TEST(AnswerCacheTest, LowEpsilonTilesDoNotServeHighEpsilonRequests) {
  NoisyAnswerCache cache(TestSchema());
  auto a = cache.Resolve("alice", Dim0(0, 49), {0.5, 1e-3}, 1);
  NoisyAnswerCache::Publish(*a.purchase, Status::OK(), 10.0, 1.0, true);
  // The cached [0,49] was bought at eps 0.5; a 1.0-accuracy [0,99]
  // cannot compose over it.
  auto q = cache.Resolve("alice", Dim0(0, 99), kEps1, 2);
  EXPECT_EQ(q.kind, NoisyAnswerCache::Decision::Kind::kMiss);
}

TEST(AnswerCacheTest, CutPointDemotionRepurchasesWholeRange) {
  NoisyAnswerCache::Options opts;
  // Cells on dim 0: [0,49], [50,99], [100,149], [150,199].
  opts.cut_points = {{0, 50, 100, 150, 200}, {}};
  NoisyAnswerCache aligned(TestSchema(), opts);
  auto tiny = aligned.Resolve("alice", Dim0(0, 9), kEps1, 1);
  NoisyAnswerCache::Publish(*tiny.purchase, Status::OK(), 1.0, 1.0, true);
  // Remainder [10,149] spans the same cells as [0,149]: no cluster work
  // saved, so the composition is demoted to a whole-range repurchase.
  auto demoted = aligned.Resolve("alice", Dim0(0, 149), kEps1, 2);
  EXPECT_EQ(demoted.kind, NoisyAnswerCache::Decision::Kind::kMiss);

  // Without cut points the same lookup composes.
  NoisyAnswerCache plain(TestSchema());
  auto tiny2 = plain.Resolve("alice", Dim0(0, 9), kEps1, 1);
  NoisyAnswerCache::Publish(*tiny2.purchase, Status::OK(), 1.0, 1.0, true);
  auto composed = plain.Resolve("alice", Dim0(0, 149), kEps1, 2);
  EXPECT_EQ(composed.kind, NoisyAnswerCache::Decision::Kind::kComposed);

  // A cell-aligned purchase still composes under cut points.
  auto cell = aligned.Resolve("alice", Dim0(150, 199), kEps1, 3);
  NoisyAnswerCache::Publish(*cell.purchase, Status::OK(), 2.0, 1.0, true);
  auto tail = aligned.Resolve("alice", Dim0(100, 199), kEps1, 4);
  EXPECT_EQ(tail.kind, NoisyAnswerCache::Decision::Kind::kComposed);
  EXPECT_TRUE(tail.has_remainder);
  EXPECT_EQ(tail.remainder_query.ranges()[0].hi, 149);
}

TEST(AnswerCacheTest, InvalidateDropsTheEntryForReuse) {
  NoisyAnswerCache cache(TestSchema());
  auto miss = cache.Resolve("alice", Dim0(10, 99), kEps1, 1);
  NoisyAnswerCache::Publish(*miss.purchase, Status::Cancelled("gone"), 0.0,
                            0.0, false);
  cache.Invalidate(miss.purchase, "alice");
  auto again = cache.Resolve("alice", Dim0(10, 99), kEps1, 2);
  EXPECT_EQ(again.kind, NoisyAnswerCache::Decision::Kind::kMiss);
}

// ---------------------------------------------------------------- prediction --

TEST(AnswerCacheTest, SnapshotResolutionMatchesActualResolution) {
  const std::vector<RangeQuery> workload = {
      Dim0(10, 99),  Dim0(100, 149), Dim0(10, 99), Dim0(10, 149),
      Dim0(20, 60),  Dim1(30, 80),   Dim0(10, 149)};
  const std::vector<PrivacyBudget> budgets(workload.size(), kEps1);

  // A plan resolves on a copy of the index, never on the live cache.
  NoisyAnswerCache simulated(TestSchema());
  std::unique_ptr<NoisyAnswerCache> snapshot = simulated.Snapshot();
  std::vector<bool> predicted;
  for (size_t i = 0; i < workload.size(); ++i) {
    predicted.push_back(
        !snapshot->Resolve("alice", workload[i], budgets[i], i + 1)
             .ServedFree());
  }

  NoisyAnswerCache actual(TestSchema());
  for (size_t i = 0; i < workload.size(); ++i) {
    auto d = actual.Resolve("alice", workload[i], budgets[i], i + 1);
    const bool charges =
        d.kind == NoisyAnswerCache::Decision::Kind::kMiss ||
        (d.kind == NoisyAnswerCache::Decision::Kind::kComposed &&
         d.has_remainder);
    EXPECT_EQ(predicted[i], charges) << "query " << i;
    if (d.purchase != nullptr) {
      NoisyAnswerCache::Publish(*d.purchase, Status::OK(), 1.0, 1.0, true);
    }
  }
  // Prediction mutated nothing: the first query is still a fresh miss.
  EXPECT_EQ(simulated.Resolve("alice", workload[0], budgets[0], 1).kind,
            NoisyAnswerCache::Decision::Kind::kMiss);
}

// ------------------------------------------------------------------- planner --

TEST(BudgetPlannerTest, NextQueryBudgetSpreadsTheGrantWithinClamps) {
  BudgetPlanner planner(PrivacyBudget{1.0, 1e-3});
  // Plenty left: the default.
  EXPECT_EQ(planner.NextQueryBudget({100.0, 1.0}, 10).epsilon, 1.0);
  // Stretched: 2.0 over 8 queries.
  EXPECT_NEAR(planner.NextQueryBudget({2.0, 1.0}, 8).epsilon, 0.25, 1e-12);
  // Never below the floor.
  EXPECT_EQ(planner.NextQueryBudget({0.1, 1.0}, 100).epsilon, 0.05);
  // Horizon 0 disables stretching.
  EXPECT_EQ(planner.NextQueryBudget({0.1, 1.0}, 0).epsilon, 1.0);
  // Delta is never stretched.
  EXPECT_EQ(planner.NextQueryBudget({2.0, 1.0}, 8).delta, 1e-3);
}

// --------------------------------------------------- client property suite --

/// Mixed workload: 3 fresh misses, 1 exact repeat, 2 full compositions
/// over adjacent earlier purchases, plus one interval no tiling serves.
std::vector<RangeQuery> CacheWorkload() {
  return {Dim0(10, 99), Dim0(100, 149), Dim0(10, 99), Dim0(10, 149),
          Dim0(20, 60), Dim1(30, 80),   Dim0(10, 149)};
}

struct RunOutcome {
  std::vector<double> estimates;
  std::vector<bool> from_cache;
  std::vector<uint32_t> sub_answers;
  PrivacyBudget spent{0.0, 0.0};
  PrivacyBudget saved{0.0, 0.0};
};

/// Runs CacheWorkload one query at a time on a single-threaded client, so
/// every hit links to an entry already terminal.
RunOutcome RunCacheWorkload(bool enable_cache) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.enable_cache = enable_cache;
  Result<std::unique_ptr<FederationClient>> made =
      FederationClient::Create(Ptrs(providers), copts);
  RunOutcome out;
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return out;
  FederationClient* client = made->get();
  for (const RangeQuery& q : CacheWorkload()) {
    QueryTicket ticket = client->Submit(QuerySpec{"alice", q});
    Result<QueryResponse> resp = ticket.Wait();
    EXPECT_TRUE(resp.ok()) << resp.status().ToString();
    out.estimates.push_back(resp.ok() ? resp->estimate : 0.0);
    const TicketStats stats = ticket.Stats();
    out.from_cache.push_back(stats.served_from_cache);
    out.sub_answers.push_back(stats.cache_sub_answers);
  }
  Result<PrivacyBudget> spent = client->ledger().Spent("alice");
  EXPECT_TRUE(spent.ok());
  if (spent.ok()) out.spent = *spent;
  if (enable_cache) {
    Result<PrivacyBudget> saved = client->ledger().Saved("alice");
    EXPECT_TRUE(saved.ok());
    if (saved.ok()) out.saved = *saved;
  }
  return out;
}

TEST(CacheClientTest, HitMissPatternAndZeroBudgetServing) {
  RunOutcome no_cache = RunCacheWorkload(false);
  RunOutcome cached = RunCacheWorkload(true);
  ASSERT_EQ(cached.estimates.size(), 7u);

  const std::vector<bool> want_cache = {false, false, true, true,
                                        false, false, true};
  const std::vector<uint32_t> want_subs = {0, 0, 0, 2, 0, 0, 2};
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(cached.from_cache[i], want_cache[i]) << "query " << i;
    EXPECT_EQ(cached.sub_answers[i], want_subs[i]) << "query " << i;
    // Every miss is bit-identical to the cache-less run: session-id
    // reservation keeps the noise streams aligned.
    if (!want_cache[i]) {
      EXPECT_EQ(cached.estimates[i], no_cache.estimates[i]) << "query " << i;
    }
  }
  // Served answers are exactly the purchased bits (post-processing).
  EXPECT_EQ(cached.estimates[2], cached.estimates[0]);
  EXPECT_EQ(cached.estimates[3], cached.estimates[0] + cached.estimates[1]);
  EXPECT_EQ(cached.estimates[6], cached.estimates[3]);
  // Ledger: 4 charged queries; the 3 served ones recorded as savings.
  EXPECT_NEAR(cached.spent.epsilon, 4.0, 1e-12);
  EXPECT_NEAR(cached.saved.epsilon, 3.0, 1e-12);
  EXPECT_NEAR(cached.spent.epsilon + cached.saved.epsilon,
              no_cache.spent.epsilon, 1e-12);
  EXPECT_NEAR(cached.spent.delta + cached.saved.delta, no_cache.spent.delta,
              1e-15);
}

TEST(CacheClientTest, PartialCompositionChargesExactlyTheRemainder) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  auto run = [&](const RangeQuery& q) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = q;
    return (*client)->Submit(std::move(spec));
  };

  QueryTicket first = run(Dim0(10, 99));
  Result<QueryResponse> r1 = first.Wait();
  ASSERT_TRUE(r1.ok());

  // [10,149] reuses the cached [10,99] and buys only [100,149]: one full
  // per-query budget for the remainder, nothing for the reused part.
  QueryTicket second = run(Dim0(10, 149));
  Result<QueryResponse> r2 = second.Wait();
  ASSERT_TRUE(r2.ok());
  const TicketStats s2 = second.Stats();
  EXPECT_FALSE(s2.served_from_cache);
  EXPECT_EQ(s2.cache_sub_answers, 1u);
  (*client)->WaitIdle();
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_NEAR(spent->epsilon, 2.0, 1e-12);  // two purchases, no more

  // The purchased remainder completes later repeats for free, bitwise.
  QueryTicket third = run(Dim0(10, 149));
  Result<QueryResponse> r3 = third.Wait();
  ASSERT_TRUE(r3.ok());
  EXPECT_TRUE(third.Stats().served_from_cache);
  EXPECT_EQ(third.Stats().cache_sub_answers, 2u);
  EXPECT_EQ(r3->estimate, r2->estimate);
  EXPECT_EQ(r3->stderr_estimate, r2->stderr_estimate);
  // Variances add over disjoint sub-ranges: the composed error exceeds
  // the reused part's alone.
  EXPECT_GT(r2->stderr_estimate, r1->stderr_estimate);
  (*client)->WaitIdle();
  Result<PrivacyBudget> spent_after = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent_after.ok());
  EXPECT_NEAR(spent_after->epsilon, 2.0, 1e-12);

  // The planner sees the index: an exact repeat plans as free.
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("alice", {Dim0(10, 99), Dim0(0, 9)});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->predicted_hits, 1u);
}

TEST(CacheClientTest, CancelledRemainderLeavesCacheConsistent) {
  const RegistryDelta delta;
  auto providers = MakeProviders(2, 4000, 901, 13);
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
      MakeInProcessEndpoints(Ptrs(providers));
  ASSERT_TRUE(inner.ok());
  // Closed only around the doomed query, whose Cover on provider 0 waits.
  auto gate = std::make_shared<CallGate>();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
      std::make_shared<GatedEndpoint>((*inner)[0], gate), (*inner)[1]};
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(endpoints, copts);
  ASSERT_TRUE(client.ok());
  auto submit = [&](const RangeQuery& q) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = q;
    return (*client)->Submit(std::move(spec));
  };

  QueryTicket base = submit(Dim0(10, 99));
  ASSERT_TRUE(base.Wait().ok());
  (*client)->WaitIdle();

  // Cancel [10,149] while its remainder purchase [100,149] is mid-query:
  // the sampling/estimate shares refund and the poisoned purchase must
  // not serve anyone later.
  gate->Close();
  QueryTicket doomed = submit(Dim0(10, 149));
  gate->WaitEntered();
  EXPECT_TRUE(doomed.Cancel());
  gate->Release();
  Result<QueryResponse> cancelled = doomed.Wait();
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  (*client)->WaitIdle();
  const FederationConfig& config = copts.protocol;
  const TicketStats doomed_stats = doomed.Stats();
  EXPECT_NEAR(doomed_stats.refunded.epsilon,
              (config.split.hp_sampling + config.split.hp_estimate) *
                  config.per_query_budget.epsilon,
              1e-12);

  // The invalidated remainder is re-purchased, not linked: the repeat
  // composes again, succeeds, and charges one budget.
  QueryTicket retry = submit(Dim0(10, 149));
  Result<QueryResponse> retried = retry.Wait();
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE(retry.Stats().served_from_cache);
  EXPECT_EQ(retry.Stats().cache_sub_answers, 1u);
  (*client)->WaitIdle();
  EXPECT_EQ(delta("cache.invalidated"), 1u);

  // And now the completed purchase serves repeats for free again.
  QueryTicket served = submit(Dim0(10, 149));
  ASSERT_TRUE(served.Wait().ok());
  EXPECT_TRUE(served.Stats().served_from_cache);
  EXPECT_EQ(served.Wait()->estimate, retried->estimate);
}

// The registry is the only source of the cache, client and accountant
// counts, so one paused burst's counter deltas must reconcile with its
// tickets: each lookup lands on exactly one outcome counter, each ticket
// is submitted and delivered once, and only tickets that bought an
// answer charge.
TEST(CacheClientTest, RegistryCountersReconcileWithTickets) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 1e6, 1e3}};
  copts.enable_cache = true;
  copts.start_paused = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  const RegistryDelta delta;
  std::vector<QueryTicket> tickets;
  auto submit = [&](const RangeQuery& q, QueryKind kind) {
    QuerySpec spec;
    spec.analyst = "alice";
    spec.query = q;
    spec.kind = kind;
    tickets.push_back((*client)->Submit(std::move(spec)));
  };
  // A miss and its exact repeat, a second miss and the full composition
  // of both, a partial overlap (buys [100,149]), and one to cancel.
  for (const RangeQuery& q : {Dim0(10, 49), Dim0(10, 49), Dim0(50, 99),
                              Dim0(10, 99), Dim0(10, 149), Dim1(30, 80)}) {
    submit(q, QueryKind::kApproximate);
  }
  EXPECT_TRUE(tickets[5].Cancel());
  submit(Dim0(0, 199), QueryKind::kExact);
  (*client)->Resume();
  (*client)->WaitIdle();

  uint64_t hits = 0, full = 0, partial = 0, misses = 0;
  for (QueryTicket& ticket : tickets) {
    const TicketStats stats = ticket.Stats();
    if (!ticket.Wait().ok() || ticket.spec().kind == QueryKind::kExact) {
      continue;
    }
    const bool composed = stats.cache_sub_answers > 0;
    ++(stats.served_from_cache ? (composed ? full : hits)
                               : (composed ? partial : misses));
  }
  EXPECT_EQ(tickets[5].Wait().status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(tickets[6].Wait().ok());
  EXPECT_EQ(std::vector<uint64_t>({hits, full, partial, misses}),
            std::vector<uint64_t>({1, 1, 1, 2}));

  EXPECT_EQ(delta("cache.exact_hits"), hits);
  EXPECT_EQ(delta("cache.full_compositions"), full);
  EXPECT_EQ(delta("cache.partial_compositions"), partial);
  EXPECT_EQ(delta("cache.misses"), misses);
  EXPECT_EQ(delta("cache.lookups"),
            delta("cache.exact_hits") + delta("cache.full_compositions") +
                delta("cache.partial_compositions") + delta("cache.misses"));
  EXPECT_EQ(delta("cache.invalidated"), 0u);
  EXPECT_EQ(delta("client.submitted"), tickets.size());
  EXPECT_EQ(delta("client.delivered"), tickets.size());
  EXPECT_EQ(delta("accountant.charges"), partial + misses);
  EXPECT_EQ(delta("accountant.cache_served"), hits + full);
}

// PlanWorkload runs admission on a snapshot: the cache index copied, the
// ledger's (Spent, Remaining) checked with its own affordability rule.
// Each analyst first buys Dim0(10, 99) at (1, 1e-3), which leaves the
// grants the three plans below run against: (1.5, 1e-2), (0.12, 1e-2)
// and (10, 2e-3).
TEST(BudgetPlannerTest, PlanStretchesEpsilonAndCountsCacheHits) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"roomy", 2.5, 1.1e-2},
                    {"tight", 1.12, 1.1e-2},
                    {"delta_bound", 11.0, 3e-3}};
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  for (const char* analyst : {"roomy", "tight", "delta_bound"}) {
    ASSERT_TRUE(
        (*client)->Submit(QuerySpec{analyst, Dim0(10, 99)}).Wait().ok());
  }
  (*client)->WaitIdle();

  const RegistryDelta delta;
  const std::vector<RangeQuery> workload = {Dim0(10, 99), Dim0(0, 9),
                                            Dim1(0, 49), Dim1(50, 80)};
  // 3 chargeable queries against eps 1.5: stretched to 0.5 each.
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("roomy", workload);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->predicted_hits, 1u);
  EXPECT_EQ(plan->answerable, 4u);
  EXPECT_NEAR(plan->eps_per_query, 0.5, 1e-12);
  EXPECT_TRUE(plan->queries[0].predicted_cached);
  // A hit carries the budget it was resolved at (nothing is charged).
  EXPECT_NEAR(plan->queries[0].budget.epsilon, 0.5, 1e-12);
  EXPECT_NEAR(plan->queries[1].budget.epsilon, 0.5, 1e-12);
  EXPECT_NEAR(plan->projected_spend.epsilon, 1.5, 1e-12);

  // The floor caps stretching: 3 chargeable against eps 0.12 at floor
  // 0.05 covers only 2.
  Result<BudgetPlanner::WorkloadPlan> tight =
      (*client)->PlanWorkload("tight", workload);
  ASSERT_TRUE(tight.ok());
  EXPECT_NEAR(tight->eps_per_query, 0.05, 1e-12);
  EXPECT_EQ(tight->answerable, 3u);  // the hit plus two charged
  EXPECT_FALSE(tight->queries[3].answerable);

  // Delta is spent per estimate and bounds affordability on its own.
  Result<BudgetPlanner::WorkloadPlan> delta_bound =
      (*client)->PlanWorkload("delta_bound", workload);
  ASSERT_TRUE(delta_bound.ok());
  EXPECT_EQ(delta_bound->answerable, 3u);

  // Planning counted, charged and registered nothing: Dim0(0, 9), which
  // the last plan bought at the default eps, is still a live-cache miss.
  for (const char* prefix : {"cache.", "accountant."}) {
    for (const obs::MetricSample& sample :
         obs::MetricRegistry::Global().Snapshot(prefix)) {
      EXPECT_EQ(delta(sample.name), 0u) << sample.name;
    }
  }
  QueryTicket fresh =
      (*client)->Submit(QuerySpec{"delta_bound", Dim0(0, 9)});
  ASSERT_TRUE(fresh.Wait().ok());
  EXPECT_FALSE(fresh.Stats().served_from_cache);
  EXPECT_EQ(fresh.Stats().cache_sub_answers, 0u);
}

TEST(CacheClientTest, PlanHorizonKnobStretchesPerQueryCharge) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  // Grant eps 2.0: at horizon 4 the planner charges 0.5 per query.
  copts.analysts = {{"alice", 2.0, 1e3}};
  copts.enable_cache = true;
  copts.plan_horizon = 4;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  QuerySpec spec;
  spec.analyst = "alice";
  spec.query = Dim0(10, 99);
  QueryTicket ticket = (*client)->Submit(std::move(spec));
  ASSERT_TRUE(ticket.Wait().ok());
  (*client)->WaitIdle();
  Result<PrivacyBudget> spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_NEAR(spent->epsilon, 0.5, 1e-12);

  // An explicit override beats the knob.
  QuerySpec fixed;
  fixed.analyst = "alice";
  fixed.query = Dim0(100, 149);
  fixed.budget = {1.0, 1e-3};
  QueryTicket t2 = (*client)->Submit(std::move(fixed));
  ASSERT_TRUE(t2.Wait().ok());
  (*client)->WaitIdle();
  spent = (*client)->ledger().Spent("alice");
  ASSERT_TRUE(spent.ok());
  EXPECT_NEAR(spent->epsilon, 1.5, 1e-12);
}

// The plan checks its snapshot with the ledger's own affordability rule,
// so on a grant a hair short of three default charges it promises
// exactly as many answers as admission then gives.
TEST(CacheClientTest, PlanAnswerabilityMatchesAdmissionAtTheGrantEdge) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 3.0 - 3e-10, 1.0}};
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  const std::vector<RangeQuery> workload = {Dim0(10, 99), Dim0(100, 149),
                                            Dim1(30, 80)};
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("alice", workload);
  ASSERT_TRUE(plan.ok());
  size_t admitted = 0;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec{"alice", workload[i]};
    spec.budget = plan->queries[i].budget;
    if ((*client)->Submit(std::move(spec)).Wait().ok()) ++admitted;
  }
  EXPECT_EQ(admitted, plan->answerable);
}

// A predicted hit carries the budget admission resolved it at: submitted
// with its planned budget, it is served the entry the plan bought at the
// stretched epsilon instead of missing it at the configured one.
TEST(CacheClientTest, PlannedCacheHitIsServedAtItsPlannedBudget) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 1);
  copts.analysts = {{"alice", 1.5, 1.0}};
  copts.enable_cache = true;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  const std::vector<RangeQuery> workload = {Dim0(10, 99), Dim0(100, 149),
                                            Dim0(10, 99)};
  Result<BudgetPlanner::WorkloadPlan> plan =
      (*client)->PlanWorkload("alice", workload);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->queries[0].budget.epsilon, 0.75);
  EXPECT_EQ(plan->queries[1].budget.epsilon, 0.75);
  EXPECT_TRUE(plan->queries[2].predicted_cached);
  EXPECT_EQ(plan->answerable, 3u);
  size_t admitted = 0;
  bool last_cached = false;
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec{"alice", workload[i]};
    spec.budget = plan->queries[i].budget;
    QueryTicket ticket = (*client)->Submit(std::move(spec));
    if (ticket.Wait().ok()) ++admitted;
    last_cached = ticket.Stats().served_from_cache;
  }
  EXPECT_EQ(admitted, 3u);
  EXPECT_TRUE(last_cached);
  EXPECT_EQ((*client)->ledger().Spent("alice")->epsilon, 1.5);
}

// PlanWorkload copies the cache index under its lock while the admission
// thread resolves and invalidates: a caller thread plans in a loop through
// a burst whose grant covers four queries, so eight purchases are dropped.
TEST(CacheClientTest, PlanningRacesAdmissionSafely) {
  auto providers = MakeProviders(2, 4000, 901, 13);
  FederationClient::Options copts;
  copts.protocol = TestConfig(626, 2);
  copts.analysts = {{"alice", 4.0, 1.0}};
  copts.enable_cache = true;
  copts.start_paused = true;
  copts.max_batch_queries = 1;
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(Ptrs(providers), copts);
  ASSERT_TRUE(client.ok());
  std::vector<RangeQuery> burst;
  std::vector<QuerySpec> specs;
  for (Value lo = 0; lo < 120; lo += 10) {
    burst.push_back(Dim0(lo, lo + 9));
    specs.push_back(QuerySpec{"alice", burst.back()});
  }
  std::vector<QueryTicket> tickets = (*client)->SubmitAll(std::move(specs));
  const RegistryDelta delta;
  std::atomic<bool> stop{false};
  std::thread planner([&] {
    while (!stop.load()) {
      EXPECT_TRUE((*client)->PlanWorkload("alice", burst).ok());
    }
  });
  (*client)->Resume();
  size_t answered = 0;
  for (QueryTicket& ticket : tickets) {
    if (ticket.Wait().ok()) ++answered;
  }
  (*client)->WaitIdle();
  stop.store(true);
  planner.join();
  EXPECT_EQ(answered, 4u);
  EXPECT_EQ(delta("cache.lookups"), burst.size());
  EXPECT_EQ(delta("cache.misses"), burst.size());
  EXPECT_EQ(delta("cache.invalidated"), burst.size() - 4);
}

}  // namespace
}  // namespace fedaqp
