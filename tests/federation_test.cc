// Tests for the federation protocol: provider-local steps, aggregator
// combination, and the orchestrated 7-step query lifecycle.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "exec/federation_client.h"
#include "federation/aggregator.h"
#include "federation/orchestrator.h"
#include "federation/provider.h"
#include "workload/datagen.h"
#include "execute_query.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

// Shared fixture: a 4-provider federation over a skewed 3-dim tensor.
class FederationFixture : public ::testing::Test {
 protected:
  static constexpr size_t kProviders = 4;

  void SetUp() override {
    SyntheticConfig cfg;
    cfg.rows = 20000;
    cfg.seed = 99;
    cfg.dims = {
        {"a", 60, DistributionKind::kNormal, 0.4},
        {"b", 40, DistributionKind::kZipf, 1.2},
        {"c", 30, DistributionKind::kUniform, 0.0},
    };
    Result<std::vector<Table>> parts =
        GenerateFederatedTensors(cfg, {0, 1, 2}, kProviders);
    ASSERT_TRUE(parts.ok());
    for (size_t i = 0; i < kProviders; ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = 128;
      popts.n_min = 4;
      popts.seed = 1000 + i;
      popts.name = "p" + std::to_string(i);
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      ASSERT_TRUE(p.ok());
      providers_.push_back(std::move(p).value());
    }
  }

  std::vector<DataProvider*> Ptrs() {
    std::vector<DataProvider*> out;
    for (auto& p : providers_) out.push_back(p.get());
    return out;
  }

  FederationConfig DefaultConfig() {
    FederationConfig config;
    config.per_query_budget = {1.0, 1e-3};
    config.sampling_rate = 0.2;
    config.total_xi = 1000.0;
    config.total_psi = 10.0;
    return config;
  }

  /// A client over the providers whose one analyst "a" holds (xi, 1.0).
  std::unique_ptr<FederationClient> OneAnalystClient(double xi) {
    FederationClient::Options options;
    options.protocol = DefaultConfig();
    options.analysts = {AnalystGrant{"a", xi, 1.0}};
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  RangeQuery WideQuery(Aggregation agg = Aggregation::kCount) {
    return RangeQueryBuilder(agg).Where(0, 5, 55).Where(1, 0, 30).Build();
  }

  std::vector<std::unique_ptr<DataProvider>> providers_;
};

// ---------------------------------------------------------------- Provider --

TEST_F(FederationFixture, ProviderCreateValidatesOptions) {
  Table t(providers_[0]->store().schema());
  DataProvider::Options bad;
  bad.n_min = 0;
  EXPECT_FALSE(DataProvider::Create(t, bad).ok());
  DataProvider::Options bad2;
  bad2.sum_sensitivity_bound = 0.0;
  EXPECT_FALSE(DataProvider::Create(t, bad2).ok());
}

TEST_F(FederationFixture, CoverMatchesMetadataStore) {
  RangeQuery q = WideQuery();
  ProviderWorkStats work;
  CoverInfo via_provider = providers_[0]->Cover(q, &work);
  CoverInfo direct = providers_[0]->metadata().Cover(q);
  EXPECT_EQ(via_provider.cluster_ids, direct.cluster_ids);
  EXPECT_EQ(work.clusters_scanned, 0u) << "cover must not touch clusters";
}

TEST_F(FederationFixture, PublishSummaryIsCenteredOnTruth) {
  RangeQuery q = WideQuery();
  ProviderWorkStats work;
  CoverInfo cover = providers_[0]->Cover(q, &work);
  RunningStats avg_stats, nq_stats;
  for (int rep = 0; rep < 3000; ++rep) {
    Result<ProviderSummary> s =
        providers_[0]->PublishSummary(q, cover, /*eps=*/1.0);
    ASSERT_TRUE(s.ok());
    avg_stats.Add(s->noisy_avg_r);
    nq_stats.Add(s->noisy_n_q);
  }
  EXPECT_NEAR(avg_stats.mean(), cover.AverageR(), 0.05);
  EXPECT_NEAR(nq_stats.mean(), static_cast<double>(cover.NumClusters()), 0.5);
  // Noise is actually present.
  EXPECT_GT(nq_stats.stddev(), 0.1);
}

TEST_F(FederationFixture, PublishSummaryRejectsBadEpsilon) {
  RangeQuery q = WideQuery();
  CoverInfo cover = providers_[0]->Cover(q, nullptr);
  EXPECT_FALSE(providers_[0]->PublishSummary(q, cover, 0.0).ok());
}

TEST_F(FederationFixture, ApproximateScansOnlySampledClusters) {
  RangeQuery q = WideQuery();
  CoverInfo cover = providers_[0]->Cover(q, nullptr);
  ASSERT_GT(cover.NumClusters(), 4u);
  size_t sample = 3;
  Result<LocalEstimate> est = providers_[0]->Approximate(
      q, cover, sample, 0.1, 0.8, 1e-3, /*add_noise=*/false);
  ASSERT_TRUE(est.ok());
  // Draws are with replacement; duplicates share one scan.
  EXPECT_LE(est->work.clusters_scanned, sample);
  EXPECT_GE(est->work.clusters_scanned, 1u);
  EXPECT_LT(est->work.rows_scanned, providers_[0]->store().TotalRows());
  EXPECT_FALSE(est->exact);
  EXPECT_FALSE(est->noised);
  EXPECT_GT(est->sensitivity, 0.0);
}

TEST_F(FederationFixture, ApproximateIsRoughlyUnbiasedWithoutNoise) {
  RangeQuery q = WideQuery();
  int64_t truth = providers_[0]->store().EvaluateExact(q);
  CoverInfo cover = providers_[0]->Cover(q, nullptr);
  size_t sample = cover.NumClusters() / 2;
  RunningStats est_stats;
  for (int rep = 0; rep < 500; ++rep) {
    Result<LocalEstimate> est = providers_[0]->Approximate(
        q, cover, sample, 100.0, 0.8, 1e-3, /*add_noise=*/false);
    ASSERT_TRUE(est.ok());
    est_stats.Add(est->estimate);
  }
  // High eps_S makes the EM track pps closely; HH is then near-unbiased.
  EXPECT_NEAR(est_stats.mean(), static_cast<double>(truth),
              std::max(5.0, 0.15 * static_cast<double>(truth)));
}

TEST_F(FederationFixture, ExactAnswerMatchesCoverScan) {
  RangeQuery q = WideQuery();
  CoverInfo cover = providers_[0]->Cover(q, nullptr);
  Result<LocalEstimate> est =
      providers_[0]->ExactAnswer(q, cover, 0.8, /*add_noise=*/false);
  ASSERT_TRUE(est.ok());
  EXPECT_TRUE(est->exact);
  EXPECT_DOUBLE_EQ(est->estimate,
                   static_cast<double>(
                       providers_[0]->store().EvaluateExact(q)));
  EXPECT_DOUBLE_EQ(est->sensitivity, 1.0);  // COUNT global sensitivity
}

TEST_F(FederationFixture, ExactSumUsesConfiguredBound) {
  RangeQuery q = WideQuery(Aggregation::kSum);
  CoverInfo cover = providers_[0]->Cover(q, nullptr);
  Result<LocalEstimate> est =
      providers_[0]->ExactAnswer(q, cover, 0.8, /*add_noise=*/false);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->sensitivity,
                   providers_[0]->options().sum_sensitivity_bound);
}

TEST_F(FederationFixture, FlattenRowsHasExpectedArity) {
  std::vector<double> flat = providers_[0]->FlattenRows();
  size_t rows = providers_[0]->store().TotalRows();
  size_t dims = providers_[0]->store().schema().num_dims();
  EXPECT_EQ(flat.size(), rows * (dims + 1));
}

// -------------------------------------------------------------- Aggregator --

TEST(AggregatorTest, AllocateDelegatesToSolver) {
  Aggregator agg(7);
  std::vector<ProviderSummary> summaries(2);
  summaries[0].noisy_avg_r = 0.9;
  summaries[0].noisy_n_q = 10.0;
  summaries[1].noisy_avg_r = 0.1;
  summaries[1].noisy_n_q = 10.0;
  Result<AllocationPlan> plan = agg.Allocate(summaries, 0.5);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->sample_sizes[0], plan->sample_sizes[1]);
}

TEST(AggregatorTest, CombineNoisySums) {
  Aggregator agg(7);
  std::vector<LocalEstimate> ests(3);
  ests[0].estimate = 10.0;
  ests[1].estimate = 20.0;
  ests[2].estimate = 30.0;
  EXPECT_DOUBLE_EQ(agg.CombineNoisy(ests), 60.0);
}

TEST(AggregatorTest, CombineSmcRejectsNoisedInputs) {
  Aggregator agg(7);
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  SimNetwork net;
  std::vector<LocalEstimate> ests(1);
  ests[0].estimate = 5.0;
  ests[0].noised = true;
  EXPECT_EQ(agg.CombineSmc(ests, 0.8, protocol, &net).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(AggregatorTest, CombineSmcAddsSingleCalibratedNoise) {
  Aggregator agg(11);
  SmcProtocol protocol{FixedPoint(), SmcCostModel{}};
  std::vector<LocalEstimate> ests(2);
  ests[0].estimate = 100.0;
  ests[0].sensitivity = 2.0;
  ests[1].estimate = 200.0;
  ests[1].sensitivity = 5.0;
  RunningStats stats;
  for (int rep = 0; rep < 4000; ++rep) {
    SimNetwork net;
    Result<double> out = agg.CombineSmc(ests, 0.8, protocol, &net);
    ASSERT_TRUE(out.ok());
    stats.Add(*out);
  }
  EXPECT_NEAR(stats.mean(), 300.0, 2.0);
  // Laplace(2*max_sens/eps) = Laplace(12.5): stddev = 12.5*sqrt(2) ~ 17.7.
  EXPECT_NEAR(stats.stddev(), 12.5 * std::sqrt(2.0), 1.5);
}

// ------------------------------------------------------------ Orchestrator --

TEST_F(FederationFixture, CreateValidatesFederation) {
  EXPECT_FALSE(QueryOrchestrator::Create({}, DefaultConfig()).ok());
  EXPECT_FALSE(
      QueryOrchestrator::Create({nullptr}, DefaultConfig()).ok());

  FederationConfig bad_rate = DefaultConfig();
  bad_rate.sampling_rate = 0.0;
  EXPECT_FALSE(QueryOrchestrator::Create(Ptrs(), bad_rate).ok());

  FederationConfig bad_budget = DefaultConfig();
  bad_budget.per_query_budget.epsilon = -1.0;
  EXPECT_FALSE(QueryOrchestrator::Create(Ptrs(), bad_budget).ok());
}

TEST_F(FederationFixture, CreateRejectsMismatchedCapacity) {
  // A provider with a different S breaks Avg(R) comparability (Sec. 7).
  SyntheticConfig cfg;
  cfg.rows = 500;
  cfg.seed = 7;
  cfg.dims = {
      {"a", 60, DistributionKind::kUniform, 0.0},
      {"b", 40, DistributionKind::kUniform, 0.0},
      {"c", 30, DistributionKind::kUniform, 0.0},
  };
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 64;  // others use 128
  Result<std::unique_ptr<DataProvider>> odd = DataProvider::Create(*t, popts);
  ASSERT_TRUE(odd.ok());
  std::vector<DataProvider*> ptrs = Ptrs();
  ptrs.push_back(odd->get());
  EXPECT_EQ(QueryOrchestrator::Create(ptrs, DefaultConfig()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(FederationFixture, ExecuteExactMatchesGroundTruth) {
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create(Ptrs(), DefaultConfig());
  ASSERT_TRUE(orch.ok());
  RangeQuery q = WideQuery();
  int64_t truth = 0;
  for (auto* p : Ptrs()) truth += p->store().EvaluateExact(q);
  Result<QueryResponse> resp = orch->ExecuteExact(q);
  ASSERT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(resp->estimate, static_cast<double>(truth));
  EXPECT_FALSE(resp->approximated);
  // Exact scan touches every row of every provider.
  size_t total_rows = 0;
  for (auto* p : Ptrs()) total_rows += p->store().TotalRows();
  EXPECT_EQ(resp->breakdown.rows_scanned, total_rows);
}

TEST_F(FederationFixture, ExecuteApproximatesAndSavesWork) {
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create(Ptrs(), DefaultConfig());
  ASSERT_TRUE(orch.ok());
  RangeQuery q = WideQuery();
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->approximated);
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  EXPECT_LT(resp->breakdown.rows_scanned, exact->breakdown.rows_scanned);
  EXPECT_GT(resp->breakdown.network_messages, 0u);
  EXPECT_EQ(resp->allocation.size(), kProviders);
}

TEST_F(FederationFixture, ExecuteEstimateIsReasonablyAccurate) {
  FederationConfig config = DefaultConfig();
  config.per_query_budget = {2.0, 1e-3};
  config.sampling_rate = 0.4;
  Result<QueryOrchestrator> orch = QueryOrchestrator::Create(Ptrs(), config);
  ASSERT_TRUE(orch.ok());
  RangeQuery q = WideQuery();
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  // Average several runs to smooth sampling noise.
  double acc = 0.0;
  const int reps = 15;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    acc += resp->estimate;
  }
  double mean_estimate = acc / reps;
  EXPECT_LT(RelativeError(exact->estimate, mean_estimate), 0.35);
}

TEST_F(FederationFixture, BudgetExhaustionStopsQueries) {
  // Per-query eps 1.0 against a grant of 2.5: admits exactly two queries.
  std::unique_ptr<FederationClient> client = OneAnalystClient(2.5);
  ASSERT_NE(client, nullptr);
  RegistryDelta delta;
  const QuerySpec spec{"a", WideQuery()};
  EXPECT_TRUE(client->Submit(spec).Wait().ok());
  EXPECT_TRUE(client->Submit(spec).Wait().ok());
  Result<QueryResponse> third = client->Submit(spec).Wait();
  EXPECT_EQ(third.status().code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(delta("accountant.charges"), 2u);
  EXPECT_EQ(client->ledger().Spent("a")->epsilon, 2.0);
}

TEST_F(FederationFixture, SmcModeProducesComparableEstimates) {
  FederationConfig config = DefaultConfig();
  config.mode = ReleaseMode::kSmc;
  config.per_query_budget = {2.0, 1e-3};
  config.sampling_rate = 0.4;
  Result<QueryOrchestrator> orch = QueryOrchestrator::Create(Ptrs(), config);
  ASSERT_TRUE(orch.ok());
  RangeQuery q = WideQuery();
  Result<QueryResponse> exact = orch->ExecuteExact(q);
  ASSERT_TRUE(exact.ok());
  double acc = 0.0;
  const int reps = 15;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> resp = ExecuteQuery(*orch, q);
    ASSERT_TRUE(resp.ok());
    acc += resp->estimate;
  }
  EXPECT_LT(RelativeError(exact->estimate, acc / reps), 0.35);
}

TEST_F(FederationFixture, SmcModeMovesMoreBytesThanDpMode) {
  FederationConfig dp_config = DefaultConfig();
  FederationConfig smc_config = DefaultConfig();
  smc_config.mode = ReleaseMode::kSmc;
  Result<QueryOrchestrator> dp_orch =
      QueryOrchestrator::Create(Ptrs(), dp_config);
  Result<QueryOrchestrator> smc_orch =
      QueryOrchestrator::Create(Ptrs(), smc_config);
  ASSERT_TRUE(dp_orch.ok());
  ASSERT_TRUE(smc_orch.ok());
  RangeQuery q = WideQuery();
  Result<QueryResponse> dp_resp = ExecuteQuery(*dp_orch, q);
  Result<QueryResponse> smc_resp = ExecuteQuery(*smc_orch, q);
  ASSERT_TRUE(dp_resp.ok());
  ASSERT_TRUE(smc_resp.ok());
  EXPECT_GT(smc_resp->breakdown.network_bytes,
            dp_resp->breakdown.network_bytes);
}

TEST_F(FederationFixture, SmallQueriesTakeExactPath) {
  // A point query covers few clusters; with N_min above that, providers
  // answer exactly and the response is flagged unapproximated.
  FederationConfig config = DefaultConfig();
  Result<QueryOrchestrator> orch = QueryOrchestrator::Create(Ptrs(), config);
  ASSERT_TRUE(orch.ok());
  // Find a point query covering < n_min clusters at every provider.
  RangeQuery q;
  bool found = false;
  for (Value v = 0; v < 60 && !found; ++v) {
    q = RangeQueryBuilder(Aggregation::kCount).Where(0, v, v).Build();
    found = true;
    for (auto* p : Ptrs()) {
      CoverInfo cover = p->Cover(q, nullptr);
      if (p->ShouldApproximate(cover)) {
        found = false;
        break;
      }
    }
  }
  if (!found) GTEST_SKIP() << "no sufficiently small query in this layout";
  Result<QueryResponse> resp = ExecuteQuery(*orch, q);
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->approximated);
}

TEST_F(FederationFixture, InvalidQueryRejectedBeforeBudgetSpend) {
  std::unique_ptr<FederationClient> client = OneAnalystClient(1000.0);
  ASSERT_NE(client, nullptr);
  RegistryDelta delta;
  RangeQuery bad = RangeQueryBuilder(Aggregation::kCount)
                       .Where(99, 0, 1)
                       .Build();
  EXPECT_FALSE(client->Submit(QuerySpec{"a", bad}).Wait().ok());
  EXPECT_EQ(delta("accountant.charges"), 0u);
  EXPECT_DOUBLE_EQ(client->ledger().Spent("a")->epsilon, 0.0);
}

}  // namespace
}  // namespace fedaqp
