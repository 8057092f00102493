#include "sampling/uniform.h"

namespace fedaqp {

Result<BernoulliEstimate> BernoulliRowEstimate(const ClusterStore& store,
                                               const RangeQuery& query,
                                               double rate, Rng* rng) {
  if (rate <= 0.0 || rate > 1.0) {
    return Status::InvalidArgument("Bernoulli sampling: rate must be in (0,1]");
  }
  BernoulliEstimate out;
  double acc = 0.0;
  store.ForEachCluster([&](const Cluster& cluster) {
    for (size_t i = 0; i < cluster.num_rows(); ++i) {
      ++out.rows_scanned;
      if (!rng->Bernoulli(rate)) continue;
      ++out.rows_kept;
      bool match = true;
      for (const auto& r : query.ranges()) {
        Value v = cluster.at(i, r.dim_index);
        if (v < r.lo || v > r.hi) {
          match = false;
          break;
        }
      }
      if (!match) continue;
      double m = static_cast<double>(cluster.measure(i));
      switch (query.aggregation()) {
        case Aggregation::kCount:
          acc += 1.0;
          break;
        case Aggregation::kSum:
          acc += m;
          break;
        case Aggregation::kSumSquares:
          acc += m * m;
          break;
      }
    }
  });
  out.estimate = acc / rate;
  return out;
}

}  // namespace fedaqp
