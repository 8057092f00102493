// Tests for composition calculus and runtime budget accounting
// (Theorems 3.1/3.2, Sec. 5.4, Sec. 6.6).

#include <cmath>

#include <gtest/gtest.h>

#include "dp/accountant.h"
#include "dp/budget.h"
#include "dp/composition.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

// ---------------------------------------------------------------- Budget --

TEST(BudgetTest, ValidateRejectsBadValues) {
  EXPECT_TRUE((PrivacyBudget{1.0, 1e-3}).Validate().ok());
  EXPECT_TRUE((PrivacyBudget{0.5, 0.0}).Validate().ok());
  EXPECT_FALSE((PrivacyBudget{0.0, 1e-3}).Validate().ok());
  EXPECT_FALSE((PrivacyBudget{1.0, 1.0}).Validate().ok());
  EXPECT_FALSE((PrivacyBudget{1.0, -0.1}).Validate().ok());
}

TEST(BudgetTest, AdditionIsComponentWise) {
  PrivacyBudget a{0.3, 1e-4};
  PrivacyBudget b{0.5, 2e-4};
  PrivacyBudget c = a + b;
  EXPECT_DOUBLE_EQ(c.epsilon, 0.8);
  EXPECT_DOUBLE_EQ(c.delta, 3e-4);
}

TEST(BudgetSplitTest, DefaultsMatchPaperEvaluation) {
  BudgetSplit split;
  EXPECT_TRUE(split.Validate().ok());
  EXPECT_DOUBLE_EQ(split.hp_allocation, 0.1);
  EXPECT_DOUBLE_EQ(split.hp_sampling, 0.1);
  EXPECT_DOUBLE_EQ(split.hp_estimate, 0.8);
}

TEST(BudgetSplitTest, ValidateEnforcesSimplex) {
  BudgetSplit bad;
  bad.hp_allocation = 0.5;
  bad.hp_sampling = 0.5;
  bad.hp_estimate = 0.5;
  EXPECT_FALSE(bad.Validate().ok());
  BudgetSplit zero;
  zero.hp_allocation = 0.0;
  zero.hp_sampling = 0.2;
  zero.hp_estimate = 0.8;
  EXPECT_FALSE(zero.Validate().ok());
  // Each query releases (sum of shares) * eps while the ledger charges
  // eps, so a sum above 1 must not validate, however small the excess.
  const auto split = [](double o, double s, double e) {
    BudgetSplit b;
    b.hp_allocation = o;
    b.hp_sampling = s;
    b.hp_estimate = e;
    return b;
  };
  EXPECT_FALSE(split(0.1, 0.1, 0.8009).Validate().ok());
  EXPECT_FALSE(split(0.1, 0.1, 0.8000001).Validate().ok());
  // These sum to exactly 1.0 in double.
  EXPECT_TRUE(split(0.1, 0.1, 0.8).Validate().ok());
  EXPECT_TRUE(split(1.0 / 3, 1.0 / 3, 1.0 / 3).Validate().ok());
  EXPECT_TRUE(split(0.2, 0.3, 0.5).Validate().ok());
  EXPECT_TRUE(split(0.1, 0.2, 0.7).Validate().ok());
  // Spending a little less than the charge is safe.
  EXPECT_TRUE(split(0.1, 0.1, 0.7995).Validate().ok());
  EXPECT_FALSE(split(0.1, 0.1, 0.7).Validate().ok());
}

// ----------------------------------------------------------- Composition --

TEST(CompositionTest, SequentialSums) {
  PrivacyBudget total = SequentialComposition(
      {{0.1, 1e-4}, {0.2, 2e-4}, {0.3, 3e-4}});
  EXPECT_NEAR(total.epsilon, 0.6, 1e-12);
  EXPECT_NEAR(total.delta, 6e-4, 1e-12);
}

TEST(CompositionTest, ParallelTakesMax) {
  PrivacyBudget total = ParallelComposition(
      {{0.1, 3e-4}, {0.5, 1e-4}, {0.3, 2e-4}});
  EXPECT_DOUBLE_EQ(total.epsilon, 0.5);
  EXPECT_DOUBLE_EQ(total.delta, 3e-4);
}

TEST(CompositionTest, EmptyCompositionsAreZero) {
  EXPECT_DOUBLE_EQ(SequentialComposition({}).epsilon, 0.0);
  EXPECT_DOUBLE_EQ(ParallelComposition({}).epsilon, 0.0);
}

TEST(CompositionTest, AdvancedCompositionFormula) {
  const double eps = 0.1, delta = 1e-6, slack = 1e-5;
  const size_t k = 100;
  Result<PrivacyBudget> total = AdvancedComposition(eps, delta, k, slack);
  ASSERT_TRUE(total.ok());
  double expected = std::sqrt(2.0 * k * std::log(1.0 / slack)) * eps +
                    k * eps * (std::exp(eps) - 1.0);
  EXPECT_NEAR(total->epsilon, expected, 1e-12);
  EXPECT_NEAR(total->delta, k * delta + slack, 1e-15);
}

TEST(CompositionTest, AdvancedBeatsSequentialForManyQueries) {
  // For many small-eps queries the advanced bound is sublinear in k.
  const double eps = 0.01;
  const size_t k = 10000;
  Result<PrivacyBudget> adv = AdvancedComposition(eps, 0.0, k, 1e-6);
  ASSERT_TRUE(adv.ok());
  EXPECT_LT(adv->epsilon, eps * static_cast<double>(k));
}

TEST(CompositionTest, PerQuerySequentialSplitsEvenly) {
  Result<PrivacyBudget> per = PerQuerySequential(100.0, 1e-6, 4000);
  ASSERT_TRUE(per.ok());
  EXPECT_DOUBLE_EQ(per->epsilon, 100.0 / 4000.0);
  EXPECT_DOUBLE_EQ(per->delta, 1e-6 / 4000.0);
  EXPECT_FALSE(PerQuerySequential(0.0, 1e-6, 10).ok());
  EXPECT_FALSE(PerQuerySequential(1.0, 1e-6, 0).ok());
}

TEST(CompositionTest, PerQueryAdvancedMatchesPaperFormula) {
  const double xi = 100.0, psi = 1e-6;
  const size_t n = 3901;
  Result<PrivacyBudget> per = PerQueryAdvanced(xi, psi, n);
  ASSERT_TRUE(per.ok());
  double delta = psi / n;
  double expected = xi / (2.0 * std::sqrt(2.0 * n * std::log(1.0 / delta)));
  EXPECT_NEAR(per->epsilon, expected, 1e-12);
}

TEST(CompositionTest, PerQueryAdvancedBeatsSequential) {
  // Sec. 6.6: the advanced per-query epsilon is strictly larger (better
  // utility) than the sequential one for large n.
  const double xi = 50.0, psi = 1e-6;
  const size_t n = 5000;
  Result<PrivacyBudget> adv = PerQueryAdvanced(xi, psi, n);
  Result<PrivacyBudget> seq = PerQuerySequential(xi, psi, n);
  ASSERT_TRUE(adv.ok());
  ASSERT_TRUE(seq.ok());
  EXPECT_GT(adv->epsilon, seq->epsilon);
}

// ------------------------------------------------------------ Accountant --
// Budget enforcement lives in AnalystLedger; these cases run against a
// ledger holding one analyst's grant.

TEST(AccountantTest, ChargesUntilExhausted) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 1.0, 1e-3).ok());
  RegistryDelta delta;
  EXPECT_TRUE(ledger.Charge("a", {0.4, 2e-4}).ok());
  EXPECT_TRUE(ledger.Charge("a", {0.4, 2e-4}).ok());
  EXPECT_EQ(delta("accountant.charges"), 2u);
  // Third charge of 0.4 would exceed eps=1.0.
  Status s = ledger.Charge("a", {0.4, 2e-4});
  EXPECT_EQ(s.code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(delta("accountant.charges"), 2u);
  EXPECT_NEAR(ledger.Remaining("a")->epsilon, 0.2, 1e-12);
}

TEST(AccountantTest, DeltaAloneCanExhaust) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 10.0, 1e-4).ok());
  EXPECT_TRUE(ledger.Charge("a", {0.1, 9e-5}).ok());
  EXPECT_EQ(ledger.Charge("a", {0.1, 5e-5}).code(),
            StatusCode::kBudgetExhausted);
}

TEST(AccountantTest, ExactBoundaryIsAllowed) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 1.0, 1e-3).ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(ledger.Charge("a", {0.1, 1e-4}).ok()) << "charge " << i;
  }
  EXPECT_FALSE(ledger.Charge("a", {0.01, 0.0}).ok());
}

TEST(AccountantTest, NegativeChargeRejected) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 1.0, 1e-3).ok());
  EXPECT_EQ(ledger.Charge("a", {-0.1, 0.0}).code(),
            StatusCode::kInvalidArgument);
}

TEST(AccountantTest, RefusedChargeIsNonMutating) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 1.0, 1e-3).ok());
  EXPECT_FALSE(ledger.Charge("a", {1.1, 0.0}).ok());
  EXPECT_DOUBLE_EQ(ledger.Spent("a")->epsilon, 0.0);
  EXPECT_TRUE(ledger.Charge("a", {0.9, 0.0}).ok());
  EXPECT_DOUBLE_EQ(ledger.Spent("a")->epsilon, 0.9);
}

TEST(AccountantTest, RemainingFloorsAtZero) {
  AnalystLedger ledger;
  ASSERT_TRUE(ledger.Register("a", 0.5, 1e-4).ok());
  ASSERT_TRUE(ledger.Charge("a", {0.5, 1e-4}).ok());
  EXPECT_DOUBLE_EQ(ledger.Remaining("a")->epsilon, 0.0);
  EXPECT_DOUBLE_EQ(ledger.Remaining("a")->delta, 0.0);
}

}  // namespace
}  // namespace fedaqp
