#ifndef FEDAQP_FEDERATION_DERIVED_H_
#define FEDAQP_FEDERATION_DERIVED_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "exec/federation_client.h"
#include "storage/range_query.h"

namespace fedaqp {

/// Derived aggregates (paper Sec. 7): AVG, VARIANCE and STDDEV over the
/// Measure column are obtained from private SUM and COUNT answers through
/// sequential composition — each underlying private query is submitted
/// to the client as `analyst` and charged its own (eps, delta) on that
/// analyst's ledger, and the combination is post-processing (Thm 3.3), so
/// no further budget is needed.
///
/// VARIANCE additionally needs SUM(Measure^2); the federation exposes the
/// squared-measure aggregate through the same protocol (its exact-path
/// sensitivity is the squared contribution bound).
struct DerivedResult {
  double value = 0.0;
  /// Budget consumed across the underlying queries (sequential
  /// composition).
  PrivacyBudget spent{0.0, 0.0};
  /// The private sub-answers the value was derived from.
  double sum = 0.0;
  double count = 0.0;
  double sum_squares = 0.0;  // only for variance/stddev
};

/// AVG(Measure) over the range: private SUM / private COUNT. Two queries'
/// budget. The ratio is clamped to zero when the noisy count is
/// non-positive (an attacker-visible but utility-preserving floor).
Result<DerivedResult> PrivateAverage(FederationClient& client,
                                     const std::string& analyst,
                                     const RangeQuery& range);

/// VAR(Measure) over the range via E[X^2] - E[X]^2 from three private
/// queries (SUM, COUNT, SUM of squares). Clamped at zero.
Result<DerivedResult> PrivateVariance(FederationClient& client,
                                      const std::string& analyst,
                                      const RangeQuery& range);

/// STDDEV(Measure): sqrt of the clamped variance (post-processing).
Result<DerivedResult> PrivateStdDev(FederationClient& client,
                                    const std::string& analyst,
                                    const RangeQuery& range);

/// One bucket of a private GROUP-BY (paper Sec. 7 future work): the
/// grouped dimension value and the private aggregate restricted to it.
struct GroupByBucket {
  Value group_value = 0;
  double estimate = 0.0;
};

/// Result of a private GROUP-BY range query.
struct GroupByResult {
  std::vector<GroupByBucket> buckets;
  PrivacyBudget spent{0.0, 0.0};
};

/// Options for PrivateGroupBy.
struct GroupByOptions {
  /// Dimension to group on; every value of its domain becomes a bucket
  /// (the domain is public, so enumerating it leaks nothing — this
  /// sidesteps the private-partition-selection problem the paper cites
  /// for data-dependent key sets).
  size_t group_dim = 0;
  /// Restrict buckets to this value interval (defaults to whole domain).
  Value group_lo = 0;
  Value group_hi = -1;  // -1 = domain max
};

/// SELECT group_dim, AGG(..) WHERE <range> GROUP BY group_dim.
///
/// Each bucket is the base query augmented with the equality constraint
/// group_dim = v, submitted as `analyst` and executed through the full
/// private protocol, one bucket after another. Buckets touch disjoint
/// rows, so their releases compose in PARALLEL: the true cost of the
/// group-by is one per-query budget, reported in GroupByResult::spent.
/// The analyst's ledger composes sequentially, though, and charges every
/// bucket, so size the grant accordingly: the first bucket the ledger
/// refuses stops the group-by with its kBudgetExhausted status.
Result<GroupByResult> PrivateGroupBy(FederationClient& client,
                                     const std::string& analyst,
                                     const RangeQuery& base_query,
                                     const GroupByOptions& options);

}  // namespace fedaqp

#endif  // FEDAQP_FEDERATION_DERIVED_H_
