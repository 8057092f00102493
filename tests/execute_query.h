// Test-only helpers that run plain queries through the executor's one
// batch entry point, QueryOrchestrator::ExecuteBatchSpecs. They admit and
// charge nothing: executor tests check answers, statuses and wire
// accounting here, and budget behaviour through a FederationClient.

#ifndef FEDAQP_TESTS_EXECUTE_QUERY_H_
#define FEDAQP_TESTS_EXECUTE_QUERY_H_

#include <utility>
#include <vector>

#include "common/result.h"
#include "federation/orchestrator.h"

namespace fedaqp {

/// Runs `queries` as one batch. Outcomes align with `queries`.
inline std::vector<BatchOutcome> ExecuteQueries(
    QueryOrchestrator& orch, const std::vector<RangeQuery>& queries) {
  std::vector<QueryExecSpec> specs(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) specs[i].query = queries[i];
  return orch.ExecuteBatchSpecs(specs);
}

/// ExecuteQueries for a single query.
inline Result<QueryResponse> ExecuteQuery(QueryOrchestrator& orch,
                                          const RangeQuery& query) {
  std::vector<BatchOutcome> outcomes = ExecuteQueries(orch, {query});
  if (!outcomes[0].ok()) return outcomes[0].status;
  return std::move(outcomes[0].response);
}

}  // namespace fedaqp

#endif  // FEDAQP_TESTS_EXECUTE_QUERY_H_
