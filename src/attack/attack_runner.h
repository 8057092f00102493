#ifndef FEDAQP_ATTACK_ATTACK_RUNNER_H_
#define FEDAQP_ATTACK_ATTACK_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "attack/nbc.h"
#include "common/result.h"
#include "dp/budget.h"
#include "exec/federation_client.h"
#include "storage/table.h"

namespace fedaqp {

/// How the attacker splits the analyst budget (xi, psi) across the
/// nQueries training queries (Sec. 6.6).
enum class AttackComposition {
  /// Plain sequential composition: eps = xi/n, delta = psi/n.
  kSequential = 0,
  /// Advanced composition: eps = xi / (2 sqrt(2 n log(1/delta))).
  kAdvanced = 1,
  /// A coalition of attackers, one query each with the full (xi, psi);
  /// their per-query answers compose in parallel across colluders.
  kCoalition = 2,
};

/// Attack configuration against a federation holding a count tensor.
struct AttackConfig {
  /// Index of the sensitive dimension d_SA in the federation schema.
  size_t sa_dim = 0;
  /// Indexes of the quasi-identifier dimensions D_QI.
  std::vector<size_t> qi_dims;
  /// Analyst total budget granted to the attacker.
  double xi = 100.0;
  double psi = 1e-6;
  AttackComposition composition = AttackComposition::kSequential;
  Aggregation aggregation = Aggregation::kCount;
};

/// One labelled individual for evaluation: QI values + true SA value.
struct EvalRow {
  std::vector<Value> qi_values;
  Value sa_value = 0;
};

/// Attack outcome.
struct AttackResult {
  /// Fraction of evaluation rows whose SA the classifier got right; random
  /// guessing gives 1/|SA|.
  double accuracy = 0.0;
  size_t num_training_queries = 0;
  PrivacyBudget per_query_budget{0.0, 0.0};
  size_t evaluated_rows = 0;
};

/// Builds the labelled evaluation set from a raw table.
std::vector<EvalRow> BuildEvalRows(const Table& table, size_t sa_dim,
                                   const std::vector<size_t>& qi_dims,
                                   size_t max_rows);

/// Mounts the NBC attack through `client`: derives the per-query budget
/// from the chosen composition, registers `attacker` with a grant sized
/// to admit exactly the nQueries training queries (the attack models an
/// analyst who exhausts their budget), submits them one at a time with
/// that per-query budget (QuerySpec::budget), trains the classifier on
/// the noisy answers and measures its accuracy on `eval_rows`. Fails if
/// `attacker` is already registered.
Result<AttackResult> RunNbcAttack(FederationClient& client,
                                  const std::string& attacker,
                                  const AttackConfig& attack,
                                  const std::vector<EvalRow>& eval_rows);

}  // namespace fedaqp

#endif  // FEDAQP_ATTACK_ATTACK_RUNNER_H_
