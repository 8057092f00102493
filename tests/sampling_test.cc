// Tests for pps probabilities (Eq. 1), Hansen-Hurwitz estimation (Eq. 3),
// the EM sampler (Algorithm 2) and the Bernoulli row-sampling baseline.

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "sampling/em_sampler.h"
#include "sampling/hansen_hurwitz.h"
#include "sampling/pps.h"
#include "sampling/uniform.h"
#include "storage/cluster_store.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------------------- pps --

TEST(PpsTest, NormalizesProportions) {
  std::vector<double> p = PpsProbabilities({1.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(p[0], 0.125);
  EXPECT_DOUBLE_EQ(p[1], 0.375);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
}

TEST(PpsTest, SumsToOne) {
  Rng rng(3);
  std::vector<double> props(50);
  for (double& x : props) x = rng.UniformDouble();
  std::vector<double> p = PpsProbabilities(props);
  double total = std::accumulate(p.begin(), p.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PpsTest, AllZeroFallsBackToUniform) {
  std::vector<double> p = PpsProbabilities({0.0, 0.0, 0.0, 0.0});
  for (double x : p) EXPECT_DOUBLE_EQ(x, 0.25);
}

TEST(PpsTest, NegativeTreatedAsZero) {
  std::vector<double> p = PpsProbabilities({-1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(p[0], 0.0);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
  EXPECT_DOUBLE_EQ(p[2], 0.5);
}

TEST(PpsTest, EmptyInput) {
  EXPECT_TRUE(PpsProbabilities({}).empty());
}

// --------------------------------------------------------- Hansen-Hurwitz --

TEST(HansenHurwitzTest, ValidatesInputs) {
  EXPECT_FALSE(HansenHurwitz({}, {}).ok());
  EXPECT_FALSE(HansenHurwitz({1.0}, {0.5, 0.5}).ok());
  EXPECT_FALSE(HansenHurwitz({1.0}, {0.0}).ok());
  EXPECT_FALSE(HansenHurwitz({1.0}, {-0.5}).ok());
}

TEST(HansenHurwitzTest, SingleClusterExpansion) {
  Result<HansenHurwitzEstimate> e = HansenHurwitz({10.0}, {0.25});
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->estimate, 40.0);
  EXPECT_DOUBLE_EQ(e->variance, 0.0);
}

TEST(HansenHurwitzTest, AveragesScaledDraws) {
  Result<HansenHurwitzEstimate> e =
      HansenHurwitz({10.0, 20.0}, {0.5, 0.5});
  ASSERT_TRUE(e.ok());
  EXPECT_DOUBLE_EQ(e->estimate, (20.0 + 40.0) / 2.0);
  EXPECT_GT(e->variance, 0.0);
}

TEST(HansenHurwitzTest, UnbiasedUnderPpsSampling) {
  // Population of clusters with known totals; draw with replacement using
  // pps and verify the Monte-Carlo mean of the estimator matches the true
  // total (unbiasedness of Eq. 3).
  std::vector<double> totals{5.0, 25.0, 50.0, 120.0};
  double truth = std::accumulate(totals.begin(), totals.end(), 0.0);
  std::vector<double> p = PpsProbabilities(totals);  // proportional to size
  Rng rng(41);
  RunningStats estimates;
  for (int rep = 0; rep < 20000; ++rep) {
    std::vector<double> drawn, probs;
    for (int i = 0; i < 3; ++i) {
      size_t idx = rng.WeightedIndex(p);
      drawn.push_back(totals[idx]);
      probs.push_back(p[idx]);
    }
    Result<HansenHurwitzEstimate> e = HansenHurwitz(drawn, probs);
    ASSERT_TRUE(e.ok());
    estimates.Add(e->estimate);
  }
  EXPECT_NEAR(estimates.mean(), truth, truth * 0.01);
}

TEST(HansenHurwitzTest, PerfectPpsHasZeroVariance) {
  // When p_i is exactly proportional to y_i, every draw expands to the
  // same total and the estimator variance collapses to zero.
  std::vector<double> totals{10.0, 30.0, 60.0};
  std::vector<double> p = PpsProbabilities(totals);
  std::vector<double> drawn{totals[2], totals[0], totals[1]};
  std::vector<double> probs{p[2], p[0], p[1]};
  Result<HansenHurwitzEstimate> e = HansenHurwitz(drawn, probs);
  ASSERT_TRUE(e.ok());
  EXPECT_NEAR(e->estimate, 100.0, 1e-9);
  EXPECT_NEAR(e->variance, 0.0, 1e-9);
}

// ------------------------------------------------------------- EM sampler --

TEST(EmSamplerTest, ValidatesInputs) {
  Rng rng(5);
  EmSamplerOptions opts;
  EXPECT_FALSE(EmSampleClusters({}, 2, opts, &rng).ok());
  EXPECT_FALSE(EmSampleClusters({0.5}, 0, opts, &rng).ok());
  EmSamplerOptions bad = opts;
  bad.epsilon = 0.0;
  EXPECT_FALSE(EmSampleClusters({0.5}, 1, bad, &rng).ok());
}

TEST(EmSamplerTest, ReturnsRequestedSampleAndPps) {
  Rng rng(7);
  EmSamplerOptions opts;
  opts.epsilon = 0.5;
  opts.n_min = 2;
  std::vector<double> props{0.1, 0.2, 0.3, 0.4};
  Result<EmSample> s = EmSampleClusters(props, 6, opts, &rng);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s->chosen.size(), 6u);
  for (size_t idx : s->chosen) EXPECT_LT(idx, props.size());
  EXPECT_EQ(s->pps, PpsProbabilities(props));
  EXPECT_DOUBLE_EQ(s->epsilon_spent, 0.5);
}

TEST(EmSamplerTest, WithoutReplacementDistinct) {
  Rng rng(11);
  EmSamplerOptions opts;
  opts.with_replacement = false;
  std::vector<double> props{0.3, 0.3, 0.2, 0.2};
  Result<EmSample> s = EmSampleClusters(props, 4, opts, &rng);
  ASSERT_TRUE(s.ok());
  std::vector<bool> seen(4, false);
  for (size_t idx : s->chosen) {
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
  EXPECT_FALSE(EmSampleClusters(props, 5, opts, &rng).ok());
}

TEST(EmSamplerTest, BiasTowardsHighProportionClusters) {
  // With a healthy per-selection budget the EM prefers the dense cluster.
  Rng rng(13);
  EmSamplerOptions opts;
  opts.epsilon = 50.0;   // generous so preference is visible
  opts.n_min = 2;        // Delta_p = 1/6
  std::vector<double> props{0.9, 0.05, 0.05};
  size_t dense_picks = 0, total = 0;
  for (int rep = 0; rep < 300; ++rep) {
    Result<EmSample> s = EmSampleClusters(props, 4, opts, &rng);
    ASSERT_TRUE(s.ok());
    for (size_t idx : s->chosen) {
      dense_picks += (idx == 0) ? 1 : 0;
      ++total;
    }
  }
  EXPECT_GT(static_cast<double>(dense_picks) / total, 0.5);
}

TEST(EmSamplerTest, TinyBudgetDegradesTowardUniform) {
  // As eps_S -> 0 the EM weights flatten; pick frequencies approach 1/3.
  Rng rng(17);
  EmSamplerOptions opts;
  opts.epsilon = 1e-6;
  opts.n_min = 2;
  std::vector<double> props{0.9, 0.05, 0.05};
  size_t dense_picks = 0, total = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    Result<EmSample> s = EmSampleClusters(props, 3, opts, &rng);
    ASSERT_TRUE(s.ok());
    for (size_t idx : s->chosen) {
      dense_picks += (idx == 0) ? 1 : 0;
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(dense_picks) / total, 1.0 / 3.0, 0.05);
}

// ------------------------------------------------------ Row-level baseline --

ClusterStore MakeStore(size_t rows, uint64_t seed, size_t capacity) {
  Schema s;
  EXPECT_TRUE(s.AddDimension("x", 100).ok());
  Table t(s);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendValues({rng.UniformInt(0, 99)}).ok());
  }
  ClusterStoreOptions opts;
  opts.cluster_capacity = capacity;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

TEST(BernoulliRowTest, ScansEverythingAndIsRoughlyUnbiased) {
  ClusterStore store = MakeStore(4000, 29, 256);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 49).Build();
  int64_t truth = store.EvaluateExact(q);
  Rng rng(31);
  RunningStats est;
  size_t scanned = 0;
  for (int rep = 0; rep < 200; ++rep) {
    Result<BernoulliEstimate> r = BernoulliRowEstimate(store, q, 0.2, &rng);
    ASSERT_TRUE(r.ok());
    est.Add(r->estimate);
    scanned = r->rows_scanned;
  }
  EXPECT_EQ(scanned, store.TotalRows());  // full scan regardless of rate
  EXPECT_NEAR(est.mean(), static_cast<double>(truth), truth * 0.05);
}

TEST(BernoulliRowTest, RateValidation) {
  ClusterStore store = MakeStore(100, 37, 32);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build();
  Rng rng(41);
  EXPECT_FALSE(BernoulliRowEstimate(store, q, 0.0, &rng).ok());
  EXPECT_FALSE(BernoulliRowEstimate(store, q, 1.5, &rng).ok());
}

}  // namespace
}  // namespace fedaqp
