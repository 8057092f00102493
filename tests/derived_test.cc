// Tests for the paper-Sec.-7 extensions: SUM_SQUARES aggregation, derived
// AVG/VAR/STDDEV via sequential composition, and private GROUP-BY.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "federation/derived.h"
#include "workload/datagen.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

class DerivedFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.rows = 30000;
    cfg.seed = 1234;
    cfg.dims = {{"a", 40, DistributionKind::kNormal, 0.5},
                {"b", 12, DistributionKind::kZipf, 1.2},
                {"c", 25, DistributionKind::kUniform, 0.0}};
    Result<std::vector<Table>> parts =
        GenerateFederatedTensors(cfg, {0, 1, 2}, 3);
    ASSERT_TRUE(parts.ok());
    for (size_t i = 0; i < parts->size(); ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = 256;
      popts.storage.layout = ClusterLayout::kShuffled;
      popts.n_min = 4;
      popts.seed = 77 + i;
      popts.measure_cap = 64;  // realistic cell-measure bound for this data
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      ASSERT_TRUE(p.ok());
      providers_.push_back(std::move(p).value());
    }
    FederationClient::Options options;
    options.protocol.per_query_budget = {2.0, 1e-3};
    options.protocol.sampling_rate = 0.4;
    options.analysts = {AnalystGrant{kAnalyst, 1e6, 1e3}};
    std::vector<DataProvider*> ptrs;
    for (auto& p : providers_) ptrs.push_back(p.get());
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(ptrs, options);
    ASSERT_TRUE(client.ok());
    client_ = std::move(client).value();
  }

  int64_t Truth(const RangeQuery& q) {
    int64_t total = 0;
    for (auto& p : providers_) total += p->store().EvaluateExact(q);
    return total;
  }

  static constexpr const char* kAnalyst = "a";
  std::vector<std::unique_ptr<DataProvider>> providers_;
  /// Declared after providers_: its endpoints point into them.
  std::unique_ptr<FederationClient> client_;
};

// ------------------------------------------------------------ SumSquares --

TEST_F(DerivedFixture, SumSquaresExactSemantics) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kSumSquares)
                     .Where(0, 5, 35)
                     .Build();
  // Brute force over every cluster row.
  int64_t expected = 0;
  for (auto& p : providers_) {
    for (const auto& c : p->store().clusters()) {
      for (size_t i = 0; i < c.num_rows(); ++i) {
        if (c.at(i, 0) >= 5 && c.at(i, 0) <= 35) {
          expected += c.measure(i) * c.measure(i);
        }
      }
    }
  }
  EXPECT_EQ(Truth(q), expected);
  // Jensen: sum of squares >= sum when measures >= 1.
  RangeQuery sum_q = RangeQueryBuilder(Aggregation::kSum).Where(0, 5, 35).Build();
  EXPECT_GE(Truth(q), Truth(sum_q));
}

TEST_F(DerivedFixture, SumSquaresSerializationRoundTrip) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kSumSquares)
                     .Where(1, 0, 5)
                     .Build();
  ByteWriter w;
  q.Serialize(&w);
  ByteReader r(w.bytes());
  Result<RangeQuery> back = RangeQuery::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggregation(), Aggregation::kSumSquares);
}

TEST_F(DerivedFixture, UnitChangeOrdering) {
  DataProvider* p = providers_[0].get();
  EXPECT_DOUBLE_EQ(p->UnitChange(Aggregation::kCount), 1.0);
  EXPECT_DOUBLE_EQ(p->UnitChange(Aggregation::kSum),
                   p->options().sum_sensitivity_bound);
  // One individual can swing a sum of squares by up to 2*cap*B + B^2.
  double b = p->options().sum_sensitivity_bound;
  EXPECT_DOUBLE_EQ(p->UnitChange(Aggregation::kSumSquares),
                   2.0 * p->options().measure_cap * b + b * b);
}

// --------------------------------------------------------------- Derived --

TEST_F(DerivedFixture, PrivateAverageTracksTruth) {
  RangeQuery range = RangeQueryBuilder(Aggregation::kSum)
                         .Where(0, 5, 35)
                         .Build();
  double true_sum = static_cast<double>(
      Truth(RangeQueryBuilder(Aggregation::kSum).Where(0, 5, 35).Build()));
  double true_count = static_cast<double>(
      Truth(RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 35).Build()));
  double true_avg = true_sum / true_count;
  RunningStats st;
  for (int rep = 0; rep < 10; ++rep) {
    Result<DerivedResult> avg = PrivateAverage(*client_, kAnalyst, range);
    ASSERT_TRUE(avg.ok());
    st.Add(avg->value);
    // Two underlying queries' budgets.
    EXPECT_DOUBLE_EQ(avg->spent.epsilon, 2.0 * 2.0);
  }
  EXPECT_LT(RelativeError(true_avg, st.mean()), 0.25);
}

TEST_F(DerivedFixture, PrivateVarianceIsNonNegativeAndCharged) {
  RangeQuery range = RangeQueryBuilder(Aggregation::kSum)
                         .Where(0, 0, 39)
                         .Build();
  Result<DerivedResult> var = PrivateVariance(*client_, kAnalyst, range);
  ASSERT_TRUE(var.ok());
  EXPECT_GE(var->value, 0.0);
  EXPECT_DOUBLE_EQ(var->spent.epsilon, 3.0 * 2.0);  // three queries at eps=2
  Result<DerivedResult> sd = PrivateStdDev(*client_, kAnalyst, range);
  ASSERT_TRUE(sd.ok());
  EXPECT_GE(sd->value, 0.0);
  EXPECT_NEAR(sd->value * sd->value, sd->value * sd->value, 1e-9);
}

TEST_F(DerivedFixture, DerivedQueriesConsumeAccountantBudget) {
  RegistryDelta delta;
  RangeQuery range = RangeQueryBuilder(Aggregation::kSum)
                         .Where(0, 10, 30)
                         .Build();
  ASSERT_TRUE(PrivateAverage(*client_, kAnalyst, range).ok());
  EXPECT_EQ(delta("accountant.charges"), 2u);
  EXPECT_DOUBLE_EQ(client_->ledger().Spent(kAnalyst)->epsilon, 2.0 * 2.0);
}

// --------------------------------------------------------------- GroupBy --

TEST_F(DerivedFixture, GroupByCoversDomainAndSumsToTotal) {
  RangeQuery base = RangeQueryBuilder(Aggregation::kSum)
                        .Where(0, 0, 39)
                        .Build();
  GroupByOptions opts;
  opts.group_dim = 1;  // |b| = 12 buckets
  Result<GroupByResult> grouped =
      PrivateGroupBy(*client_, kAnalyst, base, opts);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped->buckets.size(), 12u);
  // Bucket estimates should roughly partition the range total.
  double bucket_total = 0.0;
  for (const auto& b : grouped->buckets) bucket_total += b.estimate;
  double truth = static_cast<double>(Truth(base));
  EXPECT_LT(RelativeError(truth, bucket_total), 0.5);
  // Parallel composition: the group-by costs one per-query budget.
  EXPECT_DOUBLE_EQ(grouped->spent.epsilon, 2.0);
}

TEST_F(DerivedFixture, GroupByHonoursExplicitInterval) {
  RangeQuery base = RangeQueryBuilder(Aggregation::kCount)
                        .Where(0, 0, 39)
                        .Build();
  GroupByOptions opts;
  opts.group_dim = 1;
  opts.group_lo = 2;
  opts.group_hi = 5;
  Result<GroupByResult> grouped =
      PrivateGroupBy(*client_, kAnalyst, base, opts);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->buckets.size(), 4u);
  EXPECT_EQ(grouped->buckets.front().group_value, 2);
  EXPECT_EQ(grouped->buckets.back().group_value, 5);
}

TEST_F(DerivedFixture, GroupByRejectsConstrainedGroupDim) {
  RangeQuery base = RangeQueryBuilder(Aggregation::kSum)
                        .Where(1, 0, 5)
                        .Build();
  GroupByOptions opts;
  opts.group_dim = 1;
  EXPECT_EQ(PrivateGroupBy(*client_, kAnalyst, base, opts).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DerivedFixture, GroupByRejectsEmptyInterval) {
  RangeQuery base = RangeQueryBuilder(Aggregation::kSum)
                        .Where(0, 0, 39)
                        .Build();
  GroupByOptions opts;
  opts.group_dim = 1;
  opts.group_lo = 8;
  opts.group_hi = 7;  // empty
  EXPECT_FALSE(PrivateGroupBy(*client_, kAnalyst, base, opts).ok());
}

}  // namespace
}  // namespace fedaqp
