#ifndef FEDAQP_SAMPLING_UNIFORM_H_
#define FEDAQP_SAMPLING_UNIFORM_H_

#include "common/result.h"
#include "common/rng.h"
#include "storage/cluster_store.h"

namespace fedaqp {

/// Row-level Bernoulli sampling estimate: scans the WHOLE store, keeps each
/// row with probability `rate`, scales the aggregate by 1/rate. Linear cost
/// in the full table regardless of rate — exactly the overhead the paper
/// notes makes row-level sampling unattractive (Sec. 2).
struct BernoulliEstimate {
  double estimate = 0.0;
  size_t rows_scanned = 0;
  size_t rows_kept = 0;
};
Result<BernoulliEstimate> BernoulliRowEstimate(const ClusterStore& store,
                                               const RangeQuery& query,
                                               double rate, Rng* rng);

}  // namespace fedaqp

#endif  // FEDAQP_SAMPLING_UNIFORM_H_
