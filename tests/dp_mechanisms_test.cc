// Unit tests for the DP mechanisms: Laplace, snapping and the Exponential
// Mechanism, including statistical checks of their noise distributions
// under fixed seeds.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "dp/exponential.h"
#include "dp/laplace.h"
#include "dp/snapping.h"

namespace fedaqp {
namespace {

// --------------------------------------------------------------- Laplace --

TEST(LaplaceTest, CreateValidatesInputs) {
  EXPECT_TRUE(LaplaceMechanism::Create(1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(0.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(-1.0, 1.0).ok());
  EXPECT_FALSE(LaplaceMechanism::Create(1.0, 0.0).ok());
}

TEST(LaplaceTest, ScaleIsSensitivityOverEpsilon) {
  Result<LaplaceMechanism> m = LaplaceMechanism::Create(0.5, 2.0);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->scale(), 4.0);
}

TEST(LaplaceTest, NoiseIsZeroMeanWithExpectedSpread) {
  Rng rng(101);
  RunningStats st;
  const double scale = 3.0;
  for (int i = 0; i < 200000; ++i) st.Add(SampleLaplace(scale, &rng));
  // Laplace(b): mean 0, stddev b*sqrt(2).
  EXPECT_NEAR(st.mean(), 0.0, 0.05);
  EXPECT_NEAR(st.stddev(), scale * std::sqrt(2.0), 0.1);
}

TEST(LaplaceTest, NoiseMedianNearZeroAndSymmetric) {
  Rng rng(103);
  int pos = 0, neg = 0;
  for (int i = 0; i < 100000; ++i) {
    double x = SampleLaplace(1.0, &rng);
    (x >= 0 ? pos : neg)++;
  }
  EXPECT_NEAR(static_cast<double>(pos) / (pos + neg), 0.5, 0.01);
}

TEST(LaplaceTest, AddNoiseCentersOnValue) {
  Rng rng(107);
  Result<LaplaceMechanism> m = LaplaceMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(m.ok());
  RunningStats st;
  for (int i = 0; i < 100000; ++i) st.Add(m->AddNoise(42.0, &rng));
  EXPECT_NEAR(st.mean(), 42.0, 0.05);
}

TEST(LaplaceTest, TailDecaysExponentially) {
  // P(|X| > t*b) = exp(-t); compare empirical tail at t=2 and t=4.
  Rng rng(109);
  const int n = 200000;
  int beyond2 = 0, beyond4 = 0;
  for (int i = 0; i < n; ++i) {
    double x = std::abs(SampleLaplace(1.0, &rng));
    if (x > 2.0) ++beyond2;
    if (x > 4.0) ++beyond4;
  }
  EXPECT_NEAR(beyond2 / static_cast<double>(n), std::exp(-2.0), 0.01);
  EXPECT_NEAR(beyond4 / static_cast<double>(n), std::exp(-4.0), 0.005);
}

// -------------------------------------------------------------- Snapping --

TEST(SnappingTest, CreateValidatesInputs) {
  EXPECT_TRUE(SnappingMechanism::Create(1.0, 1.0, 1e6).ok());
  EXPECT_FALSE(SnappingMechanism::Create(0.0, 1.0, 1e6).ok());
  EXPECT_FALSE(SnappingMechanism::Create(1.0, 1.0, 0.0).ok());
}

TEST(SnappingTest, OutputOnLambdaGridAndClamped) {
  Rng rng(131);
  Result<SnappingMechanism> m = SnappingMechanism::Create(1.0, 1.0, 100.0);
  ASSERT_TRUE(m.ok());
  for (int i = 0; i < 5000; ++i) {
    double v = m->AddNoise(50.0, &rng);
    EXPECT_LE(v, 100.0);
    EXPECT_GE(v, -100.0);
    double steps = v / m->lambda();
    EXPECT_NEAR(steps, std::round(steps), 1e-9);
  }
}

TEST(SnappingTest, CentersOnValue) {
  Rng rng(137);
  Result<SnappingMechanism> m = SnappingMechanism::Create(0.5, 1.0, 1e6);
  ASSERT_TRUE(m.ok());
  RunningStats st;
  for (int i = 0; i < 100000; ++i) st.Add(m->AddNoise(123.0, &rng));
  EXPECT_NEAR(st.mean(), 123.0, 0.5);
}

// ----------------------------------------------------------- Exponential --

TEST(ExponentialTest, CreateValidatesInputs) {
  EXPECT_TRUE(ExponentialMechanism::Create(1.0, 0.5).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(0.0, 0.5).ok());
  EXPECT_FALSE(ExponentialMechanism::Create(1.0, 0.0).ok());
}

TEST(ExponentialTest, EmptyCandidateSetFails) {
  Rng rng(139);
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->SelectOne({}, &rng).ok());
  EXPECT_FALSE(m->SelectWithReplacement({}, 3, &rng).ok());
}

TEST(ExponentialTest, SelectionProbabilitiesMatchDefinition) {
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(2.0, 0.5);
  ASSERT_TRUE(m.ok());
  std::vector<double> scores{0.1, 0.4, 0.2};
  std::vector<double> p = m->SelectionProbabilities(scores);
  // exp(eps * s / (2*Delta)) with eps=2, Delta=0.5 -> exp(2*s).
  double w0 = std::exp(2.0 * 0.1), w1 = std::exp(2.0 * 0.4),
         w2 = std::exp(2.0 * 0.2);
  double total = w0 + w1 + w2;
  EXPECT_NEAR(p[0], w0 / total, 1e-12);
  EXPECT_NEAR(p[1], w1 / total, 1e-12);
  EXPECT_NEAR(p[2], w2 / total, 1e-12);
}

TEST(ExponentialTest, EmpiricalFrequenciesTrackProbabilities) {
  Rng rng(149);
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(1.0, 0.1);
  ASSERT_TRUE(m.ok());
  std::vector<double> scores{0.9, 0.5, 0.1};
  std::vector<double> expected = m->SelectionProbabilities(scores);
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    Result<size_t> pick = m->SelectOne(scores, &rng);
    ASSERT_TRUE(pick.ok());
    counts[*pick]++;
  }
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_NEAR(counts[i] / static_cast<double>(n), expected[i], 0.02);
  }
}

TEST(ExponentialTest, HigherEpsilonConcentratesOnBest) {
  Rng rng(151);
  std::vector<double> scores{1.0, 0.0};
  Result<ExponentialMechanism> weak = ExponentialMechanism::Create(0.01, 1.0);
  Result<ExponentialMechanism> strong = ExponentialMechanism::Create(20.0, 1.0);
  ASSERT_TRUE(weak.ok());
  ASSERT_TRUE(strong.ok());
  EXPECT_NEAR(weak->SelectionProbabilities(scores)[0], 0.5, 0.01);
  EXPECT_GT(strong->SelectionProbabilities(scores)[0], 0.99);
}

TEST(ExponentialTest, WithReplacementDrawsRequestedCount) {
  Rng rng(157);
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(m.ok());
  Result<std::vector<size_t>> picks =
      m->SelectWithReplacement({0.5, 0.5, 0.5}, 10, &rng);
  ASSERT_TRUE(picks.ok());
  EXPECT_EQ(picks->size(), 10u);
  for (size_t idx : *picks) EXPECT_LT(idx, 3u);
}

TEST(ExponentialTest, WithoutReplacementYieldsDistinct) {
  Rng rng(163);
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(1.0, 1.0);
  ASSERT_TRUE(m.ok());
  std::vector<double> scores{0.9, 0.7, 0.5, 0.3, 0.1};
  Result<std::vector<size_t>> picks =
      m->SelectWithoutReplacement(scores, 5, &rng);
  ASSERT_TRUE(picks.ok());
  std::vector<bool> seen(5, false);
  for (size_t idx : *picks) {
    EXPECT_FALSE(seen[idx]) << "duplicate pick";
    seen[idx] = true;
  }
  EXPECT_FALSE(m->SelectWithoutReplacement(scores, 6, &rng).ok());
}

TEST(ExponentialTest, LargeScoresDoNotOverflow) {
  Rng rng(167);
  // eps/(2*Delta) = 5e5; naive exp(5e5 * score) overflows; the max-shift
  // implementation must survive and still prefer the best score.
  Result<ExponentialMechanism> m = ExponentialMechanism::Create(1e6, 1.0);
  ASSERT_TRUE(m.ok());
  std::vector<double> scores{1000.0, 999.0};
  std::vector<double> p = m->SelectionProbabilities(scores);
  EXPECT_GT(p[0], 0.999);
  EXPECT_TRUE(std::isfinite(p[0]));
  Result<size_t> pick = m->SelectOne(scores, &rng);
  ASSERT_TRUE(pick.ok());
  EXPECT_EQ(*pick, 0u);
}

}  // namespace
}  // namespace fedaqp
