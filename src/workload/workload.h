#ifndef FEDAQP_WORKLOAD_WORKLOAD_H_
#define FEDAQP_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/federation_client.h"
#include "storage/range_query.h"

namespace fedaqp {

/// Outcome of one query measured against ground truth: the paper's two
/// utility metrics (relative error and speed-up) plus raw components.
struct QueryMeasurement {
  double true_answer = 0.0;
  double estimate = 0.0;
  double relative_error = 0.0;
  double exact_seconds = 0.0;
  double approx_seconds = 0.0;
  double speedup = 0.0;
  size_t exact_rows_scanned = 0;
  size_t approx_rows_scanned = 0;
  /// Deterministic speed-up proxy: rows the exact plan scans per row the
  /// approximate plan scans. Immune to timer jitter; used by tests.
  double work_ratio = 0.0;
};

/// Aggregated workload metrics matching the figures' reported series.
struct WorkloadMetrics {
  double mean_relative_error = 0.0;
  /// Mean over the best 90% of queries — drops the heavy Laplace upper
  /// tail that dominates plain means at reduced experiment scale.
  double trimmed_mean_relative_error = 0.0;
  double median_relative_error = 0.0;
  double p90_relative_error = 0.0;
  double mean_speedup = 0.0;
  double median_speedup = 0.0;
  double mean_work_ratio = 0.0;
  size_t queries = 0;
};

/// Runs every query twice through `client` — exact federated scan, then
/// the private approximate protocol charged to `analyst` — and measures
/// error and speed-up per query. A query the ledger refuses stops the run
/// with its kBudgetExhausted status.
Result<std::vector<QueryMeasurement>> RunWorkload(
    FederationClient& client, const std::string& analyst,
    const std::vector<RangeQuery>& queries);

/// Summarizes per-query measurements.
WorkloadMetrics Summarize(const std::vector<QueryMeasurement>& measurements);

}  // namespace fedaqp

#endif  // FEDAQP_WORKLOAD_WORKLOAD_H_
