// Tests for the NBC learning-based attack (Sec. 6.6): classifier mechanics
// on clean counts, and end-to-end failure against the DP federation.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "attack/attack_runner.h"
#include "attack/nbc.h"
#include "common/rng.h"
#include "dp/composition.h"
#include "fixture.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------------------- NBC --

TEST(NbcTest, NumTrainingQueriesFormula) {
  // nQueries = 1 + |SA| + |SA| * sum |QI|.
  NaiveBayesClassifier nbc(100, {16, 7, 15});
  EXPECT_EQ(nbc.NumTrainingQueries(), 1u + 100u + 100u * 38u);
}

TEST(NbcTest, TrainValidatesShapes) {
  NaiveBayesClassifier nbc(2, {2});
  EXPECT_FALSE(nbc.Train(10.0, {5.0}, {}).ok());  // sa_counts wrong size
  EXPECT_FALSE(
      nbc.Train(10.0, {5.0, 5.0}, {}).ok());      // joint missing
  EXPECT_FALSE(nbc.Predict({0}).ok());            // untrained
}

TEST(NbcTest, LearnsPlantedDependenceFromCleanCounts) {
  // Planted model: SA == QI with certainty. Clean counts must let the NBC
  // predict perfectly.
  const size_t k = 4;
  std::vector<double> sa_counts(k, 25.0);
  std::vector<std::vector<std::vector<double>>> joint(
      1, std::vector<std::vector<double>>(k, std::vector<double>(k, 0.0)));
  for (size_t y = 0; y < k; ++y) joint[0][y][y] = 25.0;
  NaiveBayesClassifier nbc(k, {k});
  ASSERT_TRUE(nbc.Train(100.0, sa_counts, joint).ok());
  for (size_t v = 0; v < k; ++v) {
    Result<size_t> pred = nbc.Predict({static_cast<Value>(v)});
    ASSERT_TRUE(pred.ok());
    EXPECT_EQ(*pred, v);
  }
}

TEST(NbcTest, PrefersPriorWhenLikelihoodsAreFlat) {
  const size_t k = 3;
  std::vector<double> sa_counts{70.0, 20.0, 10.0};
  // QI independent of SA: joint proportional to prior.
  std::vector<std::vector<std::vector<double>>> joint(
      1, std::vector<std::vector<double>>(k, std::vector<double>(2, 0.0)));
  for (size_t y = 0; y < k; ++y) {
    joint[0][y][0] = sa_counts[y] * 0.5;
    joint[0][y][1] = sa_counts[y] * 0.5;
  }
  NaiveBayesClassifier nbc(k, {2});
  ASSERT_TRUE(nbc.Train(100.0, sa_counts, joint).ok());
  EXPECT_EQ(*nbc.Predict({0}), 0u);  // the majority class
  EXPECT_EQ(*nbc.Predict({1}), 0u);
}

TEST(NbcTest, SurvivesNegativeNoisyCounts) {
  // DP answers can be negative; training must not produce NaNs.
  NaiveBayesClassifier nbc(2, {2});
  std::vector<std::vector<std::vector<double>>> joint(
      1, std::vector<std::vector<double>>(2, std::vector<double>(2, -3.0)));
  ASSERT_TRUE(nbc.Train(-5.0, {-1.0, 2.0}, joint).ok());
  Result<size_t> pred = nbc.Predict({1});
  ASSERT_TRUE(pred.ok());
  EXPECT_LT(*pred, 2u);
}

TEST(NbcTest, PredictValidatesQiValues) {
  NaiveBayesClassifier nbc(2, {2});
  std::vector<std::vector<std::vector<double>>> joint(
      1, std::vector<std::vector<double>>(2, std::vector<double>(2, 1.0)));
  ASSERT_TRUE(nbc.Train(4.0, {2.0, 2.0}, joint).ok());
  EXPECT_FALSE(nbc.Predict({5}).ok());
  EXPECT_FALSE(nbc.Predict({0, 0}).ok());
}

// ---------------------------------------------------------- Attack runner --

class AttackFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    // Small but strongly dependent data: SA (dim 0) determines QI (dim 1)
    // exactly, so a noiseless attacker would reach high accuracy and any
    // failure is attributable to the DP interface.
    SyntheticConfig cfg;
    cfg.rows = 4000;
    cfg.seed = 83;
    cfg.correlate_first_two = true;
    cfg.dims = {{"sa", 10, DistributionKind::kUniform, 0.0},
                {"qi", 10, DistributionKind::kUniform, 0.0},
                {"pad", 8, DistributionKind::kUniform, 0.0}};
    Result<Table> raw = GenerateSynthetic(cfg);
    ASSERT_TRUE(raw.ok());
    raw_ = std::move(raw).value();
    Result<Table> tensor = raw_.BuildCountTensor({0, 1, 2});
    ASSERT_TRUE(tensor.ok());
    Result<std::vector<Table>> parts = tensor->PartitionHorizontally(3);
    ASSERT_TRUE(parts.ok());
    for (size_t i = 0; i < parts->size(); ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = 64;
      popts.n_min = 3;
      popts.seed = 900 + i;
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      ASSERT_TRUE(p.ok());
      providers_.push_back(std::move(p).value());
    }
  }

  /// A fresh client over the providers, configured like `config`; the
  /// fixture keeps it alive until the providers go away.
  FederationClient* Client(const FederationConfig& config) {
    FederationClient::Options options;
    options.protocol = config;
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(providers_), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    clients_.push_back(std::move(client).value());
    return clients_.back().get();
  }

  Table raw_;
  std::vector<std::unique_ptr<DataProvider>> providers_;
  /// Declared after providers_: each client's endpoints point into them.
  std::vector<std::unique_ptr<FederationClient>> clients_;
};

TEST_F(AttackFixture, BuildEvalRowsExtractsColumns) {
  std::vector<EvalRow> rows = BuildEvalRows(raw_, 0, {1}, 100);
  ASSERT_EQ(rows.size(), 100u);
  EXPECT_EQ(rows[0].sa_value, raw_.row(0).values[0]);
  EXPECT_EQ(rows[0].qi_values[0], raw_.row(0).values[1]);
}

TEST_F(AttackFixture, RunValidatesConfig) {
  FederationConfig base;
  AttackConfig bad;
  bad.sa_dim = 99;
  EXPECT_FALSE(RunNbcAttack(*Client(base), "attacker", bad, {}).ok());
  AttackConfig dup;
  dup.sa_dim = 0;
  dup.qi_dims = {0};
  EXPECT_FALSE(RunNbcAttack(*Client(base), "attacker", dup, {}).ok());
}

TEST_F(AttackFixture, DpInterfaceDefeatsAttackUnderTightBudget) {
  FederationConfig base;
  base.sampling_rate = 0.3;
  AttackConfig attack;
  attack.sa_dim = 0;
  attack.qi_dims = {1};
  attack.xi = 1.0;  // the paper's tightest grant
  attack.psi = 1e-6;
  attack.composition = AttackComposition::kSequential;
  std::vector<EvalRow> eval = BuildEvalRows(raw_, 0, {1}, 1500);
  FederationClient* client = Client(base);
  Result<AttackResult> result = RunNbcAttack(*client, "attacker", attack, eval);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_training_queries, 1u + 10u + 10u * 10u);
  // Perfect dependence would give ~100%; the DP interface must crush it
  // to near the 10% random-guess floor.
  EXPECT_LT(result->accuracy, 0.30);
  // Every training query was charged on the attacker's own ledger, which
  // the whole grant just covers; the name cannot be registered twice.
  EXPECT_NEAR(client->ledger().Spent("attacker")->epsilon, 1.0, 1e-9);
  EXPECT_FALSE(RunNbcAttack(*client, "attacker", attack, eval).ok());
}

TEST_F(AttackFixture, CoalitionGetsFullBudgetPerQuery) {
  FederationConfig base;
  AttackConfig attack;
  attack.sa_dim = 0;
  attack.qi_dims = {1};
  attack.xi = 20.0;
  attack.psi = 1e-6;
  attack.composition = AttackComposition::kCoalition;
  std::vector<EvalRow> eval = BuildEvalRows(raw_, 0, {1}, 200);
  Result<AttackResult> result =
      RunNbcAttack(*Client(base), "attacker", attack, eval);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->per_query_budget.epsilon, 20.0);
}

TEST_F(AttackFixture, PerQueryBudgetsMatchCompositionFormulas) {
  // The runner must derive exactly the Sec. 6.6 budgets. (Whether the
  // advanced budget beats the sequential one depends on nQueries — it
  // wins only for large query counts, see CompositionTest — so the
  // runner is checked against the formulas rather than an ordering.)
  FederationConfig base;
  AttackConfig seq;
  seq.sa_dim = 0;
  seq.qi_dims = {1};
  seq.xi = 50.0;
  seq.psi = 1e-6;
  seq.composition = AttackComposition::kSequential;
  AttackConfig adv = seq;
  adv.composition = AttackComposition::kAdvanced;
  std::vector<EvalRow> eval = BuildEvalRows(raw_, 0, {1}, 50);
  Result<AttackResult> rs =
      RunNbcAttack(*Client(base), "attacker", seq, eval);
  Result<AttackResult> ra =
      RunNbcAttack(*Client(base), "attacker", adv, eval);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(ra.ok());
  const size_t n = rs->num_training_queries;
  EXPECT_EQ(n, ra->num_training_queries);
  Result<PrivacyBudget> expected_seq = PerQuerySequential(50.0, 1e-6, n);
  Result<PrivacyBudget> expected_adv = PerQueryAdvanced(50.0, 1e-6, n);
  ASSERT_TRUE(expected_seq.ok());
  ASSERT_TRUE(expected_adv.ok());
  EXPECT_DOUBLE_EQ(rs->per_query_budget.epsilon, expected_seq->epsilon);
  EXPECT_DOUBLE_EQ(ra->per_query_budget.epsilon, expected_adv->epsilon);
  EXPECT_DOUBLE_EQ(ra->per_query_budget.delta, expected_adv->delta);
}

}  // namespace
}  // namespace fedaqp
