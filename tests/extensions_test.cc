// Tests for the stratified-sampling extension substrate.

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "sampling/stratified.h"

namespace fedaqp {
namespace {

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
