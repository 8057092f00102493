// Tests for the baseline executors: local (non-collaborative) sampling and
// federated row-level Bernoulli sampling.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/local_sampling.h"
#include "baseline/row_sampling.h"
#include "common/math.h"
#include "common/rng.h"
#include "fixture.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

class BaselineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.rows = 12000;
    cfg.seed = 71;
    cfg.dims = {{"a", 50, DistributionKind::kNormal, 0.4},
                {"b", 40, DistributionKind::kZipf, 1.3},
                {"c", 20, DistributionKind::kUniform, 0.0}};
    Result<std::vector<Table>> parts =
        GenerateFederatedTensors(cfg, {0, 1, 2}, 3);
    ASSERT_TRUE(parts.ok());
    for (size_t i = 0; i < parts->size(); ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = 128;
      popts.n_min = 3;
      popts.seed = 500 + i;
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      ASSERT_TRUE(p.ok());
      providers_.push_back(std::move(p).value());
    }
  }

  int64_t Truth(const RangeQuery& q) {
    int64_t total = 0;
    for (auto& p : providers_) total += p->store().EvaluateExact(q);
    return total;
  }

  std::vector<std::unique_ptr<DataProvider>> providers_;
};

TEST_F(BaselineFixture, LocalSamplingValidation) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 49).Build();
  EXPECT_FALSE(RunLocalSampling({}, q, 0.2, 0.1, 0.8, 1e-3).ok());
  EXPECT_FALSE(RunLocalSampling(Ptrs(providers_), q, 0.0, 0.1, 0.8, 1e-3).ok());
  EXPECT_FALSE(RunLocalSampling(Ptrs(providers_), q, 1.0, 0.1, 0.8, 1e-3).ok());
}

TEST_F(BaselineFixture, LocalSamplingScansFractionOfClusters) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 5, 45)
                     .Where(1, 0, 30)
                     .Build();
  Result<LocalSamplingResult> r =
      RunLocalSampling(Ptrs(providers_), q, 0.2, 1.0, 1.0, 1e-3);
  ASSERT_TRUE(r.ok());
  size_t total_clusters = 0;
  for (auto& p : providers_) total_clusters += p->store().num_clusters();
  EXPECT_LT(r->clusters_scanned, total_clusters);
  EXPECT_GT(r->clusters_scanned, 0u);
}

TEST_F(BaselineFixture, LocalSamplingTracksTruthLoosely) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 5, 45)
                     .Where(1, 0, 30)
                     .Build();
  double truth = static_cast<double>(Truth(q));
  RunningStats st;
  for (int rep = 0; rep < 30; ++rep) {
    Result<LocalSamplingResult> r =
        RunLocalSampling(Ptrs(providers_), q, 0.4, 10.0, 2.0, 1e-3);
    ASSERT_TRUE(r.ok());
    st.Add(r->estimate);
  }
  EXPECT_LT(RelativeError(truth, st.mean()), 0.4);
}

TEST_F(BaselineFixture, RowSamplingScansEverythingYetEstimatesWell) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 10, 40)
                     .Build();
  double truth = static_cast<double>(Truth(q));
  Rng rng(73);
  RunningStats st;
  size_t scanned = 0;
  for (int rep = 0; rep < 50; ++rep) {
    Result<RowSamplingResult> r = RunRowSampling(Ptrs(providers_), q, 0.3, &rng);
    ASSERT_TRUE(r.ok());
    st.Add(r->estimate);
    scanned = r->rows_scanned;
  }
  size_t total_rows = 0;
  for (auto& p : providers_) total_rows += p->store().TotalRows();
  EXPECT_EQ(scanned, total_rows);  // the whole point: no scan savings
  EXPECT_LT(RelativeError(truth, st.mean()), 0.1);
}

TEST_F(BaselineFixture, RowSamplingValidation) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 49).Build();
  Rng rng(79);
  EXPECT_FALSE(RunRowSampling({}, q, 0.5, &rng).ok());
}

}  // namespace
}  // namespace fedaqp
