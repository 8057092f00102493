// Statistical calibration checks: the noise observed at the protocol
// surface must match the closed-form scales the paper derives. These are
// the tests that catch a mis-wired sensitivity (e.g. forgetting the eps/2
// split of Eq. 5 or the factor 2 in the smooth-sensitivity scale) that
// unit tests of the mechanisms alone cannot see.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "dp/sensitivity.h"
#include "dp/snapping.h"
#include "federation/provider.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

std::unique_ptr<DataProvider> MakeProvider(size_t n_min, size_t capacity) {
  SyntheticConfig cfg;
  cfg.rows = 20000;
  cfg.seed = 77;
  cfg.dims = {{"a", 120, DistributionKind::kNormal, 0.5},
              {"b", 60, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = capacity;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.n_min = n_min;
  popts.seed = 31337;
  Result<std::unique_ptr<DataProvider>> p =
      DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

TEST(DpCalibrationTest, SummaryNoiseMatchesEq5Scales) {
  // Eq. 5: ~N^Q gets Lap(1 / (eps_O/2)), ~Avg(R) gets
  // Lap(DeltaAvgR / (eps_O/2)). Verify the empirical standard deviations.
  std::unique_ptr<DataProvider> p = MakeProvider(/*n_min=*/8,
                                                 /*capacity=*/256);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 10, 100)
                     .Build();
  CoverInfo cover = p->Cover(q, nullptr);
  const double eps_o = 0.4;
  const double half = eps_o / 2.0;
  double delta_avg = DeltaAvgR(256, q.num_constrained_dims(), 8);

  RunningStats nq_stats, avg_stats;
  for (int rep = 0; rep < 30000; ++rep) {
    Result<ProviderSummary> s = p->PublishSummary(q, cover, eps_o);
    ASSERT_TRUE(s.ok());
    nq_stats.Add(s->noisy_n_q);
    avg_stats.Add(s->noisy_avg_r);
  }
  // Laplace(b) has stddev b*sqrt(2).
  double expected_nq_sd = (1.0 / half) * std::sqrt(2.0);
  double expected_avg_sd = (delta_avg / half) * std::sqrt(2.0);
  EXPECT_NEAR(nq_stats.stddev(), expected_nq_sd, expected_nq_sd * 0.05);
  EXPECT_NEAR(avg_stats.stddev(), expected_avg_sd, expected_avg_sd * 0.05);
  // And they are centred on the truth.
  EXPECT_NEAR(nq_stats.mean(), static_cast<double>(cover.NumClusters()),
              expected_nq_sd * 0.05);
  EXPECT_NEAR(avg_stats.mean(), cover.AverageR(), expected_avg_sd * 0.05);
}

TEST(DpCalibrationTest, ExactPathNoiseMatchesUnitChangeOverEps) {
  std::unique_ptr<DataProvider> p = MakeProvider(8, 256);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 20, 40)
                     .Build();
  CoverInfo cover = p->Cover(q, nullptr);
  int64_t truth = p->store().ScanClusters(q, cover.cluster_ids)->count;
  const double eps_e = 0.8;
  RunningStats st;
  for (int rep = 0; rep < 30000; ++rep) {
    Result<LocalEstimate> est =
        p->ExactAnswer(q, cover, eps_e, /*add_noise=*/true);
    ASSERT_TRUE(est.ok());
    st.Add(est->estimate);
  }
  double expected_sd = (1.0 / eps_e) * std::sqrt(2.0);  // GS(count)=1
  EXPECT_NEAR(st.mean(), static_cast<double>(truth), expected_sd * 0.05);
  EXPECT_NEAR(st.stddev(), expected_sd, expected_sd * 0.05);
}

TEST(DpCalibrationTest, ApproximatePathNoiseTracksReportedSensitivity) {
  // Algorithm 3 line 10: the released value deviates from the clean
  // estimate by Lap(2*S_LS/eps_E). Compare noised vs clean runs under the
  // same provider RNG by measuring the spread of (noised - truth) against
  // the reported sensitivity's implied scale.
  std::unique_ptr<DataProvider> p = MakeProvider(8, 256);
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 10, 110)
                     .Build();
  CoverInfo cover = p->Cover(q, nullptr);
  ASSERT_TRUE(p->ShouldApproximate(cover));
  const double eps_s = 0.1, eps_e = 0.8, delta = 1e-3;
  const size_t sample = 12;

  // The sampling spread (no noise) and the total spread (with noise).
  RunningStats clean, noised, sens_stats;
  for (int rep = 0; rep < 4000; ++rep) {
    Result<LocalEstimate> c =
        p->Approximate(q, cover, sample, eps_s, eps_e, delta, false);
    Result<LocalEstimate> n =
        p->Approximate(q, cover, sample, eps_s, eps_e, delta, true);
    ASSERT_TRUE(c.ok());
    ASSERT_TRUE(n.ok());
    clean.Add(c->estimate);
    noised.Add(n->estimate);
    sens_stats.Add(n->sensitivity);
  }
  // Var(total) = Var(sampling) + Var(Laplace), with the Laplace scale
  // 2*mean_sens/eps_E (sensitivity varies per run; use its mean).
  double lap_scale = 2.0 * sens_stats.mean() / eps_e;
  double expected_total_var =
      clean.variance() + 2.0 * lap_scale * lap_scale;
  EXPECT_NEAR(noised.variance(), expected_total_var,
              expected_total_var * 0.25);
  // Means agree (noise is centred).
  EXPECT_NEAR(noised.mean(), clean.mean(),
              4.0 * std::sqrt(expected_total_var / 4000.0) +
                  0.01 * std::abs(clean.mean()));
}

TEST(DpCalibrationTest, SnappingScaleTracksEpsilon) {
  Rng rng(5);
  double prev_sd = 1e18;
  for (double eps : {0.2, 0.5, 1.0}) {
    Result<SnappingMechanism> m = SnappingMechanism::Create(eps, 1.0, 1e9);
    ASSERT_TRUE(m.ok());
    RunningStats st;
    for (int i = 0; i < 40000; ++i) st.Add(m->AddNoise(0.0, &rng));
    // Snapping wraps a Laplace(1/eps) core; its sd is close to sqrt(2)/eps
    // (rounding adds at most lambda/sqrt(12) in quadrature).
    double core_sd = std::sqrt(2.0) / eps;
    EXPECT_NEAR(st.stddev(), core_sd, core_sd * 0.15) << eps;
    EXPECT_LT(st.stddev(), prev_sd);
    prev_sd = st.stddev();
  }
}

}  // namespace
}  // namespace fedaqp
