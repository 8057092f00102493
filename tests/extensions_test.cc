// Tests for the extension substrates: Shamir threshold sharing and
// stratified sampling.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "sampling/stratified.h"
#include "smc/shamir.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------------------ Shamir

TEST(ShamirTest, FieldArithmetic) {
  const uint64_t p = ShamirShares::kPrime;
  EXPECT_EQ(ShamirShares::AddMod(p - 1, 1), 0u);
  EXPECT_EQ(ShamirShares::SubMod(0, 1), p - 1);
  EXPECT_EQ(ShamirShares::MulMod(p - 1, p - 1), 1u);  // (-1)*(-1) = 1
  for (uint64_t a : std::vector<uint64_t>{2, 12345, p - 2}) {
    EXPECT_EQ(ShamirShares::MulMod(a, ShamirShares::InvMod(a)), 1u) << a;
  }
  EXPECT_EQ(ShamirShares::PowMod(2, 61), 1u);  // 2^61 mod (2^61 - 1) = 2...
}

TEST(ShamirTest, PowModAgainstSmallCases) {
  EXPECT_EQ(ShamirShares::PowMod(2, 10), 1024u);
  EXPECT_EQ(ShamirShares::PowMod(3, 0), 1u);
  EXPECT_EQ(ShamirShares::PowMod(0, 5), 0u);
}

TEST(ShamirTest, SplitValidatesInputs) {
  Rng rng(17);
  EXPECT_FALSE(ShamirShares::Split(5, 0, 3, &rng).ok());
  EXPECT_FALSE(ShamirShares::Split(5, 4, 3, &rng).ok());
  EXPECT_FALSE(ShamirShares::Split(ShamirShares::kPrime, 2, 3, &rng).ok());
}

TEST(ShamirTest, AnyThresholdSubsetReconstructs) {
  Rng rng(19);
  const uint64_t secret = 987654321;
  Result<std::vector<ShamirShares::Share>> shares =
      ShamirShares::Split(secret, 3, 5, &rng);
  ASSERT_TRUE(shares.ok());
  ASSERT_EQ(shares->size(), 5u);
  // All 3-subsets of the 5 shares reconstruct.
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = i + 1; j < 5; ++j) {
      for (size_t k = j + 1; k < 5; ++k) {
        std::vector<ShamirShares::Share> subset{(*shares)[i], (*shares)[j],
                                                (*shares)[k]};
        Result<uint64_t> rec = ShamirShares::Reconstruct(subset);
        ASSERT_TRUE(rec.ok());
        EXPECT_EQ(*rec, secret) << i << j << k;
      }
    }
  }
}

TEST(ShamirTest, BelowThresholdRevealsNothingUseful) {
  // With t-1 shares the "reconstruction" is a function of the random
  // polynomial, not the secret: across fresh sharings of the SAME secret,
  // the 2-share interpolation takes many different values.
  Rng rng(23);
  std::set<uint64_t> fake_secrets;
  for (int rep = 0; rep < 64; ++rep) {
    Result<std::vector<ShamirShares::Share>> shares =
        ShamirShares::Split(42, 3, 5, &rng);
    ASSERT_TRUE(shares.ok());
    std::vector<ShamirShares::Share> subset{(*shares)[0], (*shares)[1]};
    fake_secrets.insert(*ShamirShares::Reconstruct(subset));
  }
  EXPECT_GT(fake_secrets.size(), 60u);
}

TEST(ShamirTest, DuplicatePointsRejected) {
  Rng rng(29);
  Result<std::vector<ShamirShares::Share>> shares =
      ShamirShares::Split(7, 2, 3, &rng);
  ASSERT_TRUE(shares.ok());
  std::vector<ShamirShares::Share> dup{(*shares)[0], (*shares)[0]};
  EXPECT_FALSE(ShamirShares::Reconstruct(dup).ok());
  EXPECT_FALSE(ShamirShares::Reconstruct({}).ok());
}

TEST(ShamirTest, AdditiveHomomorphism) {
  Rng rng(31);
  Result<std::vector<ShamirShares::Share>> a = ShamirShares::Split(100, 2, 4, &rng);
  Result<std::vector<ShamirShares::Share>> b = ShamirShares::Split(23, 2, 4, &rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  Result<std::vector<ShamirShares::Share>> sum = ShamirShares::Add(*a, *b);
  ASSERT_TRUE(sum.ok());
  std::vector<ShamirShares::Share> subset{(*sum)[1], (*sum)[3]};
  EXPECT_EQ(*ShamirShares::Reconstruct(subset), 123u);
}

// -------------------------------------------------------------- Stratified

TEST(StratifiedTest, PlanValidation) {
  EXPECT_FALSE(BuildStratifiedPlan({}, 3, 5).ok());
  EXPECT_FALSE(BuildStratifiedPlan({0.5}, 0, 5).ok());
  EXPECT_FALSE(BuildStratifiedPlan({0.5}, 3, 0).ok());
}

TEST(StratifiedTest, StrataPartitionByProportion) {
  std::vector<double> props{0.9, 0.1, 0.5, 0.2, 0.8, 0.05};
  Result<StratifiedPlan> plan = BuildStratifiedPlan(props, 3, 6);
  ASSERT_TRUE(plan.ok());
  // Every cluster is in exactly one stratum.
  size_t total_members = 0;
  for (const auto& m : plan->members) total_members += m.size();
  EXPECT_EQ(total_members, props.size());
  // Low-R clusters sit in lower strata than high-R ones.
  EXPECT_LT(plan->stratum_of[5], plan->stratum_of[0]);  // 0.05 vs 0.9
  EXPECT_LE(plan->stratum_of[1], plan->stratum_of[4]);  // 0.1 vs 0.8
}

TEST(StratifiedTest, AllocationFavoursHeavyStrata) {
  std::vector<double> props{0.01, 0.01, 0.02, 0.9, 0.95, 0.85};
  Result<StratifiedPlan> plan = BuildStratifiedPlan(props, 2, 10);
  ASSERT_TRUE(plan.ok());
  // The high-R stratum carries nearly all mass and should dominate.
  EXPECT_GT(plan->allocation[1], plan->allocation[0]);
}

TEST(StratifiedTest, EveryNonEmptyStratumGetsADraw) {
  std::vector<double> props{0.01, 0.5, 0.99};
  Result<StratifiedPlan> plan = BuildStratifiedPlan(props, 3, 3);
  ASSERT_TRUE(plan.ok());
  for (size_t h = 0; h < plan->members.size(); ++h) {
    if (!plan->members[h].empty()) {
      EXPECT_GE(plan->allocation[h], 1u);
    }
  }
}

TEST(StratifiedTest, EstimatorIsUnbiasedOnKnownPopulation) {
  // Clusters with known totals; stratified expansion must match the truth
  // in expectation.
  Rng rng(37);
  std::vector<double> totals(30);
  for (size_t i = 0; i < totals.size(); ++i) {
    totals[i] = static_cast<double>((i % 3 + 1) * 10);
  }
  double truth = 0.0;
  for (double t : totals) truth += t;
  Result<StratifiedPlan> plan = BuildStratifiedPlan(totals, 3, 9);
  ASSERT_TRUE(plan.ok());
  RunningStats means;
  for (int rep = 0; rep < 6000; ++rep) {
    Result<StratifiedSample> sample = DrawStratifiedSample(*plan, &rng);
    ASSERT_TRUE(sample.ok());
    double est = 0.0;
    for (size_t d = 0; d < sample->chosen.size(); ++d) {
      est += totals[sample->chosen[d]] * sample->expansion[d];
    }
    means.Add(est);
  }
  EXPECT_NEAR(means.mean(), truth, truth * 0.02);
}

}  // namespace
}  // namespace fedaqp
