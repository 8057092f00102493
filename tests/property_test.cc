// Parameterized property tests sweeping invariants across configurations
// (TEST_P / INSTANTIATE_TEST_SUITE_P).

#include <cmath>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "dp/laplace.h"
#include "dp/sensitivity.h"
#include "dp/smooth_sensitivity.h"
#include "metadata/metadata_store.h"
#include "sampling/hansen_hurwitz.h"
#include "sampling/pps.h"
#include "storage/cluster_store.h"
#include "workload/datagen.h"
#include "workload/query_gen.h"

namespace fedaqp {
namespace {

// ----------------------------------------------- Storage/metadata sweeps --

// Param: (rows, capacity, layout, seed).
using StorageParam = std::tuple<size_t, size_t, int, uint64_t>;

class StorageProperty : public ::testing::TestWithParam<StorageParam> {
 protected:
  Table MakeTable() {
    auto [rows, capacity, layout, seed] = GetParam();
    (void)capacity;
    (void)layout;
    SyntheticConfig cfg;
    cfg.rows = rows;
    cfg.seed = seed;
    cfg.dims = {{"a", 64, DistributionKind::kZipf, 1.2},
                {"b", 32, DistributionKind::kNormal, 0.5}};
    Result<Table> t = GenerateSynthetic(cfg);
    EXPECT_TRUE(t.ok());
    return std::move(t).value();
  }

  ClusterStore MakeStore(const Table& t) {
    auto [rows, capacity, layout, seed] = GetParam();
    (void)rows;
    ClusterStoreOptions opts;
    opts.cluster_capacity = capacity;
    opts.layout = static_cast<ClusterLayout>(layout);
    opts.shuffle_seed = seed;
    Result<ClusterStore> store = ClusterStore::Build(t, opts);
    EXPECT_TRUE(store.ok());
    return std::move(store).value();
  }
};

TEST_P(StorageProperty, ExactEvaluationInvariantUnderLayout) {
  Table t = MakeTable();
  ClusterStore store = MakeStore(t);
  Rng rng(std::get<3>(GetParam()) ^ 0x5555);
  for (int trial = 0; trial < 8; ++trial) {
    Value lo = rng.UniformInt(0, 40);
    Value hi = rng.UniformInt(lo, 63);
    for (Aggregation agg : {Aggregation::kCount, Aggregation::kSum}) {
      RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
      EXPECT_EQ(store.EvaluateExact(q), t.Evaluate(q));
    }
  }
}

TEST_P(StorageProperty, CoverNeverMissesMatchingClusters) {
  Table t = MakeTable();
  ClusterStore store = MakeStore(t);
  MetadataStore metas = MetadataStore::Build(store);
  Rng rng(std::get<3>(GetParam()) ^ 0xAAAA);
  for (int trial = 0; trial < 8; ++trial) {
    Value lo0 = rng.UniformInt(0, 40), hi0 = rng.UniformInt(lo0, 63);
    Value lo1 = rng.UniformInt(0, 20), hi1 = rng.UniformInt(lo1, 31);
    RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                       .Where(0, lo0, hi0)
                       .Where(1, lo1, hi1)
                       .Build();
    CoverInfo cover = metas.Cover(q);
    std::vector<bool> covered(store.num_clusters(), false);
    for (uint32_t id : cover.cluster_ids) covered[id] = true;
    int64_t matching_total = 0;
    for (const auto& c : store.clusters()) {
      ScanResult s = c.Scan(q);
      if (s.count > 0) {
        EXPECT_TRUE(covered[c.id()])
            << "cluster " << c.id() << " has matches but is not covered";
      }
      matching_total += s.count;
    }
    // Scanning just the cover reproduces the exact result.
    Result<ScanResult> cover_scan = store.ScanClusters(q, cover.cluster_ids);
    ASSERT_TRUE(cover_scan.ok());
    EXPECT_EQ(cover_scan->count, matching_total);
  }
}

TEST_P(StorageProperty, ProportionsAreWithinUnitInterval) {
  Table t = MakeTable();
  ClusterStore store = MakeStore(t);
  MetadataStore metas = MetadataStore::Build(store);
  Rng rng(std::get<3>(GetParam()) ^ 0x1234);
  for (int trial = 0; trial < 8; ++trial) {
    Value lo = rng.UniformInt(0, 50), hi = rng.UniformInt(lo, 63);
    RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
    CoverInfo cover = metas.Cover(q);
    for (double r : cover.proportions) {
      EXPECT_GE(r, 0.0);
      EXPECT_LE(r, 1.0 + 1e-12);
    }
    std::vector<double> pps = PpsProbabilities(cover.proportions);
    double total = 0.0;
    for (double p : pps) total += p;
    if (!pps.empty()) {
      EXPECT_NEAR(total, 1.0, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StorageProperty,
    ::testing::Combine(::testing::Values<size_t>(500, 3000),
                       ::testing::Values<size_t>(64, 256),
                       ::testing::Values(0, 1, 2),
                       ::testing::Values<uint64_t>(1, 99)));

// ----------------------------------------------------- Sensitivity sweeps --

// Param: (capacity S, dims, n_min).
using SensParam = std::tuple<size_t, size_t, size_t>;

class SensitivityProperty : public ::testing::TestWithParam<SensParam> {};

TEST_P(SensitivityProperty, ClosedFormsArepositiveAndOrdered) {
  auto [s, dims, n_min] = GetParam();
  double dr = DeltaR(s, dims);
  EXPECT_GT(dr, 0.0);
  EXPECT_LE(dr, 1.0);
  // Delta_R grows with dims, shrinks with capacity.
  EXPECT_GE(DeltaR(s, dims + 1), dr);
  EXPECT_LE(DeltaR(s * 2, dims), dr);
  double davg = DeltaAvgR(s, dims, n_min);
  EXPECT_GT(davg, 0.0);
  EXPECT_GE(davg, dr / static_cast<double>(n_min) - 1e-15);
  EXPECT_GE(davg, 1.0 / (static_cast<double>(n_min) + 1.0) - 1e-15);
  double dp = DeltaP(n_min);
  EXPECT_GT(dp, 0.0);
  EXPECT_LE(dp, 0.5);
}

TEST_P(SensitivityProperty, SmoothSensitivityMonotoneInSlope) {
  auto [s, dims, n_min] = GetParam();
  (void)s;
  (void)dims;
  (void)n_min;
  Result<SmoothSensitivity> f = SmoothSensitivity::Create(0.8, 1e-3);
  ASSERT_TRUE(f.ok());
  double prev = 0.0;
  for (double slope : {0.1, 1.0, 10.0, 100.0}) {
    double cur = f->ComputeLinear(slope);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SensitivityProperty,
                         ::testing::Combine(::testing::Values<size_t>(16, 256,
                                                                      4096),
                                            ::testing::Values<size_t>(1, 3, 7),
                                            ::testing::Values<size_t>(2, 4,
                                                                      16)));

// ------------------------------------------------------- Estimator sweeps --

// Param: (population clusters, sample size, seed).
using HhParam = std::tuple<size_t, size_t, uint64_t>;

class HansenHurwitzProperty : public ::testing::TestWithParam<HhParam> {};

TEST_P(HansenHurwitzProperty, UnbiasedAcrossConfigurations) {
  auto [population, sample, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> totals(population);
  for (double& t : totals) t = rng.UniformRange(1.0, 100.0);
  double truth = 0.0;
  for (double t : totals) truth += t;
  std::vector<double> p = PpsProbabilities(totals);
  RunningStats means;
  for (int rep = 0; rep < 4000; ++rep) {
    std::vector<double> drawn, probs;
    for (size_t i = 0; i < sample; ++i) {
      size_t idx = rng.WeightedIndex(p);
      drawn.push_back(totals[idx]);
      probs.push_back(p[idx]);
    }
    Result<HansenHurwitzEstimate> e = HansenHurwitz(drawn, probs);
    ASSERT_TRUE(e.ok());
    means.Add(e->estimate);
  }
  EXPECT_NEAR(means.mean(), truth, truth * 0.03)
      << "population=" << population << " sample=" << sample;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HansenHurwitzProperty,
    ::testing::Combine(::testing::Values<size_t>(5, 20, 100),
                       ::testing::Values<size_t>(2, 8),
                       ::testing::Values<uint64_t>(7, 21)));

// ---------------------------------------------------------- Noise sweeps --

// Param: epsilon.
class LaplaceAccuracyProperty : public ::testing::TestWithParam<double> {};

TEST_P(LaplaceAccuracyProperty, EmpiricalScaleMatchesTheory) {
  double eps = GetParam();
  Result<LaplaceMechanism> m = LaplaceMechanism::Create(eps, 1.0);
  ASSERT_TRUE(m.ok());
  Rng rng(static_cast<uint64_t>(eps * 1000) + 1);
  RunningStats st;
  for (int i = 0; i < 60000; ++i) st.Add(m->AddNoise(0.0, &rng));
  double expected_std = std::sqrt(2.0) / eps;
  EXPECT_NEAR(st.stddev(), expected_std, expected_std * 0.05) << "eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LaplaceAccuracyProperty,
                         ::testing::Values(0.1, 0.3, 0.5, 0.9, 1.3));

// ----------------------------------------------- Query generation sweeps --

// Param: (num dims, seed).
using QueryGenParam = std::tuple<size_t, uint64_t>;

class QueryGenProperty : public ::testing::TestWithParam<QueryGenParam> {};

TEST_P(QueryGenProperty, AllGeneratedQueriesValidate) {
  auto [dims, seed] = GetParam();
  SyntheticConfig cfg = AdultConfig(10, seed);
  Schema schema;
  for (const auto& d : cfg.dims) {
    ASSERT_TRUE(schema.AddDimension(d.name, d.domain).ok());
  }
  QueryGenOptions opts;
  opts.num_dims = dims;
  opts.seed = seed;
  RandomQueryGenerator gen(schema, opts);
  Result<std::vector<RangeQuery>> wl = gen.Workload(25);
  ASSERT_TRUE(wl.ok());
  for (const auto& q : *wl) {
    EXPECT_TRUE(q.Validate(schema).ok());
    EXPECT_EQ(q.num_constrained_dims(), dims);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QueryGenProperty,
    ::testing::Combine(::testing::Values<size_t>(2, 4, 7),
                       ::testing::Values<uint64_t>(3, 17, 91)));

}  // namespace
}  // namespace fedaqp
