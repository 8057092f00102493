// Edge-case coverage for the orchestrated protocol: degenerate
// federations, aggregation bounds, message accounting and response
// invariants.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "execute_query.h"
#include "federation/orchestrator.h"
#include "fixture.h"

namespace fedaqp {
namespace {

TEST(OrchestratorEdgeTest, SingleProviderFederationWorks) {
  std::unique_ptr<DataProvider> p = MakeProvider(8000, 11);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({p.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(exact->estimate, 0.0);
  EXPECT_LT(RelativeError(exact->estimate, resp->estimate), 1.5);
  EXPECT_EQ(resp->allocation.size(), 1u);
}

TEST(OrchestratorEdgeTest, TinyProviderAlwaysTakesExactPath) {
  // A provider with fewer clusters than N_min never approximates.
  std::unique_ptr<DataProvider> tiny = MakeProvider(200, 13, 128, 50);
  ASSERT_LT(tiny->store().num_clusters(), 50u);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({tiny.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->approximated);
}

TEST(OrchestratorEdgeTest, HeterogeneousProviderSizesAllowed) {
  // Same schema and capacity, wildly different row counts: allowed, and
  // the big provider should receive the larger allocation on average.
  std::unique_ptr<DataProvider> small = MakeProvider(3000, 17);
  std::unique_ptr<DataProvider> big = MakeProvider(30000, 19);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({small.get(), big.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 0, 199).Build();
  size_t small_total = 0, big_total = 0;
  for (int rep = 0; rep < 20; ++rep) {
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    small_total += resp->allocation[0];
    big_total += resp->allocation[1];
  }
  EXPECT_GT(big_total, small_total);
}

TEST(OrchestratorEdgeTest, EmptyRangeListMatchesWholeTable) {
  std::unique_ptr<DataProvider> p = MakeProvider(5000, 23);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({p.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q(Aggregation::kSum, {});
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->estimate, 5000.0);  // total individuals
}

TEST(OrchestratorEdgeTest, StderrReportedInDpMode) {
  std::unique_ptr<DataProvider> p = MakeProvider(20000, 29);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({p.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(resp->stderr_estimate, 0.0);
  // The stderr should be a plausible scale for the deviation: over many
  // runs, |error| < 6 * stderr nearly always.
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  int within = 0, total = 0;
  for (int rep = 0; rep < 25; ++rep) {
    Result<QueryResponse> r = ExecuteQuery(*orch, q);
    ASSERT_TRUE(r.ok());
    if (std::abs(r->estimate - exact->estimate) <= 6.0 * r->stderr_estimate) {
      ++within;
    }
    ++total;
  }
  EXPECT_GE(within * 10, total * 7);  // >= 70%
}

TEST(OrchestratorEdgeTest, SmcModeReportsNoStderr) {
  std::unique_ptr<DataProvider> p = MakeProvider(20000, 31);
  FederationConfig config = TestConfig(42);
  config.mode = ReleaseMode::kSmc;
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({p.get()}, config);
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(resp->stderr_estimate, 0.0);
}

TEST(OrchestratorEdgeTest, MessageCountMatchesProtocolRounds) {
  std::unique_ptr<DataProvider> a = MakeProvider(20000, 37);
  std::unique_ptr<DataProvider> b = MakeProvider(20000, 41);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({a.get(), b.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  // DP mode charges the real RPC exchange: 8 rounds of 2 messages each
  // (cover request/reply, summary request/reply, estimate request/reply,
  // end-query request/ack).
  EXPECT_EQ(resp->breakdown.network_messages, 16u);
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  // Exact: scan request broadcast + framed replies.
  EXPECT_EQ(exact->breakdown.network_messages, 4u);
}

TEST(OrchestratorEdgeTest, SumSquaresQueriesRunEndToEnd) {
  std::unique_ptr<DataProvider> p = MakeProvider(20000, 43);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create({p.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q =
      RangeQueryBuilder(Aggregation::kSumSquares).Where(0, 0, 199).Build();
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(resp.ok());
  EXPECT_GT(exact->estimate, 0.0);
  // The default measure_cap makes the noise conservative; just check the
  // protocol completes and produces a finite answer.
  EXPECT_TRUE(std::isfinite(resp->estimate));
}

TEST(OrchestratorEdgeTest, AllocationSumMatchesPlanTotal) {
  std::unique_ptr<DataProvider> a = MakeProvider(15000, 47);
  std::unique_ptr<DataProvider> b = MakeProvider(15000, 53);
  std::unique_ptr<DataProvider> c = MakeProvider(15000, 59);
  Result<QueryOrchestrator> orch = QueryOrchestrator::Create(
      {a.get(), b.get(), c.get()}, TestConfig(42));
  ASSERT_TRUE(orch.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 199).Build();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->allocation.size(), 3u);
  size_t total = 0;
  for (size_t s : resp->allocation) total += s;
  EXPECT_GT(total, 0u);
}

TEST(OrchestratorEdgeTest, ResponsesAreDeterministicGivenSeeds) {
  // Two identically-seeded federations produce identical responses.
  auto build = [] {
    std::unique_ptr<DataProvider> p = MakeProvider(10000, 61);
    FederationConfig config;
    config.per_query_budget = {1.0, 1e-3};
    config.sampling_rate = 0.3;
    config.seed = 99;
    return std::make_pair(std::move(p), config);
  };
  auto [p1, c1] = build();
  auto [p2, c2] = build();
  Result<QueryOrchestrator> o1 = QueryOrchestrator::Create({p1.get()}, c1);
  Result<QueryOrchestrator> o2 = QueryOrchestrator::Create({p2.get()}, c2);
  ASSERT_TRUE(o1.ok());
  ASSERT_TRUE(o2.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 180).Build();
  for (int rep = 0; rep < 3; ++rep) {
    Result<QueryResponse> r1 = ExecuteQuery(*o1, q);
    Result<QueryResponse> r2 = ExecuteQuery(*o2, q);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r2.ok());
    EXPECT_DOUBLE_EQ(r1->estimate, r2->estimate);
  }
}

}  // namespace
}  // namespace fedaqp
