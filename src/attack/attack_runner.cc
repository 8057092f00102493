#include "attack/attack_runner.h"

#include <algorithm>

#include "dp/composition.h"

namespace fedaqp {

std::vector<EvalRow> BuildEvalRows(const Table& table, size_t sa_dim,
                                   const std::vector<size_t>& qi_dims,
                                   size_t max_rows) {
  std::vector<EvalRow> out;
  out.reserve(std::min(max_rows, table.num_rows()));
  for (size_t i = 0; i < table.num_rows() && out.size() < max_rows; ++i) {
    const Row& row = table.row(i);
    EvalRow e;
    e.sa_value = row.values[sa_dim];
    e.qi_values.reserve(qi_dims.size());
    for (size_t q : qi_dims) e.qi_values.push_back(row.values[q]);
    out.push_back(std::move(e));
  }
  return out;
}

namespace {

Result<PrivacyBudget> PerQueryBudget(const AttackConfig& attack,
                                     size_t num_queries) {
  switch (attack.composition) {
    case AttackComposition::kSequential:
      return PerQuerySequential(attack.xi, attack.psi, num_queries);
    case AttackComposition::kAdvanced:
      return PerQueryAdvanced(attack.xi, attack.psi, num_queries);
    case AttackComposition::kCoalition:
      // Each colluder spends its full grant on a single query; across the
      // coalition the answers compose in parallel over the same data, so
      // every query enjoys the whole (xi, psi).
      return PrivacyBudget{attack.xi, attack.psi};
  }
  return Status::InvalidArgument("attack: unknown composition mode");
}

}  // namespace

Result<AttackResult> RunNbcAttack(FederationClient& client,
                                  const std::string& attacker,
                                  const AttackConfig& attack,
                                  const std::vector<EvalRow>& eval_rows) {
  const Schema& schema = client.schema();
  if (attack.sa_dim >= schema.num_dims()) {
    return Status::OutOfRange("attack: SA dimension outside schema");
  }
  const size_t sa_domain =
      static_cast<size_t>(schema.dim(attack.sa_dim).domain_size);
  std::vector<size_t> qi_domains;
  for (size_t q : attack.qi_dims) {
    if (q >= schema.num_dims() || q == attack.sa_dim) {
      return Status::InvalidArgument("attack: bad QI dimension");
    }
    qi_domains.push_back(static_cast<size_t>(schema.dim(q).domain_size));
  }

  NaiveBayesClassifier nbc(sa_domain, qi_domains);
  const size_t num_queries = nbc.NumTrainingQueries();
  FEDAQP_ASSIGN_OR_RETURN(PrivacyBudget per_query,
                          PerQueryBudget(attack, num_queries));
  FEDAQP_RETURN_IF_ERROR(per_query.Validate());

  // The attacker's grant admits exactly the training workload, with 1%
  // headroom for floating-point drift.
  const double n = static_cast<double>(num_queries);
  FEDAQP_RETURN_IF_ERROR(client.RegisterAnalyst(
      attacker, per_query.epsilon * n * 1.01,
      per_query.delta * n * 1.01 + 1e-12));

  auto ask = [&](std::vector<DimRange> ranges) -> Result<double> {
    QuerySpec spec;
    spec.analyst = attacker;
    spec.query = RangeQuery(attack.aggregation, std::move(ranges));
    spec.budget = per_query;
    FEDAQP_ASSIGN_OR_RETURN(QueryResponse resp,
                            client.Submit(std::move(spec)).Wait());
    return resp.estimate;
  };

  // Query 1: the table size.
  FEDAQP_ASSIGN_OR_RETURN(double total, ask({}));

  // Queries 2..|SA|+1: per-class counts.
  std::vector<double> sa_counts(sa_domain, 0.0);
  for (size_t y = 0; y < sa_domain; ++y) {
    FEDAQP_ASSIGN_OR_RETURN(
        sa_counts[y],
        ask({DimRange{attack.sa_dim, static_cast<Value>(y),
                      static_cast<Value>(y)}}));
  }

  // Remaining queries: joint (SA = y AND QI_q = v) counts.
  std::vector<std::vector<std::vector<double>>> joint(attack.qi_dims.size());
  for (size_t qi = 0; qi < attack.qi_dims.size(); ++qi) {
    joint[qi].assign(sa_domain, std::vector<double>(qi_domains[qi], 0.0));
    for (size_t y = 0; y < sa_domain; ++y) {
      for (size_t v = 0; v < qi_domains[qi]; ++v) {
        FEDAQP_ASSIGN_OR_RETURN(
            joint[qi][y][v],
            ask({DimRange{attack.sa_dim, static_cast<Value>(y),
                          static_cast<Value>(y)},
                 DimRange{attack.qi_dims[qi], static_cast<Value>(v),
                          static_cast<Value>(v)}}));
      }
    }
  }

  FEDAQP_RETURN_IF_ERROR(nbc.Train(total, sa_counts, joint));

  AttackResult result;
  result.num_training_queries = num_queries;
  result.per_query_budget = per_query;
  result.evaluated_rows = eval_rows.size();
  if (eval_rows.empty()) return result;

  size_t correct = 0;
  for (const auto& row : eval_rows) {
    FEDAQP_ASSIGN_OR_RETURN(size_t predicted, nbc.Predict(row.qi_values));
    if (static_cast<Value>(predicted) == row.sa_value) ++correct;
  }
  result.accuracy =
      static_cast<double>(correct) / static_cast<double>(eval_rows.size());
  return result;
}

}  // namespace fedaqp
