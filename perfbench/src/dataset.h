#ifndef PERFBENCH_DATASET_H_
#define PERFBENCH_DATASET_H_

// The benchmark's inputs: the Adult-synth federation in the paper's setup
// (Sec. 6.1), an exact-answer oracle over the raw partitions, and pools of
// distinct queries admitted by the paper's workload rule. Everything here
// is a pure function of the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/federation.h"
#include "storage/range_query.h"
#include "storage/table.h"

namespace perfbench {

/// Adult-synth count tensor over `rows` raw rows, split evenly across
/// `providers` horizontal partitions.
fedaqp::Result<std::vector<fedaqp::Table>> MakePartitions(size_t rows,
                                                          size_t providers,
                                                          uint64_t seed);

/// Federation options of the paper's setup at this scale: cluster
/// capacity 2% of a provider's cells (at least 512), N_min = 16, shuffled
/// cluster layout, running `protocol`.
fedaqp::FederationOptions PaperOptions(const std::vector<fedaqp::Table>& parts,
                                       uint64_t seed,
                                       const fedaqp::FederationConfig& protocol);

/// Exact COUNT/SUM answers for queries constraining at most two
/// dimensions, from 1-D and 2-D prefix-sum marginals built once over the
/// raw partitions. Answers are exact integers; the harness checks a sample
/// of them against ClusterStore::EvaluateExact before relying on them.
class ExactOracle {
 public:
  explicit ExactOracle(const std::vector<fedaqp::Table>& parts);

  /// Exact answer, or -1 for a query outside the oracle's reach (more than
  /// two constrained dimensions, or SUM_SQUARES).
  int64_t Answer(const fedaqp::RangeQuery& query) const;
  /// Federation-wide total: cell count (COUNT) or measure (SUM).
  int64_t Total(fedaqp::Aggregation agg) const;
  size_t cells() const { return cells_; }

 private:
  struct Plane {
    size_t a = 0, b = 0;
    size_t na = 0, nb = 0;
    /// (na + 1) x (nb + 1) inclusive prefix sums.
    std::vector<int64_t> count, measure;
  };
  const Plane& PlaneFor(size_t a, size_t b) const;

  size_t num_dims_ = 0;
  std::vector<size_t> domains_;
  std::vector<Plane> planes_;
  size_t cells_ = 0;
  int64_t total_measure_ = 0;
};

/// Stable identity of a query's semantics (aggregate + ranges).
std::string QueryKey(const fedaqp::RangeQuery& query);

/// What a pool draws: `num_dims` constrained dimensions with the paper's
/// wide ranges (30-80% of the domain), optionally restricted to `dims`.
struct PoolSpec {
  size_t num_dims = 2;
  fedaqp::Aggregation agg = fedaqp::Aggregation::kCount;
  /// Dimensions a query may constrain; empty = any.
  std::vector<size_t> dims;
  uint64_t seed = 1;
};

/// `count` distinct queries admitted by the paper's rule: the query
/// triggers approximation at every provider (N^Q >= N_min) and its exact
/// answer is at least 1% of the federation total. `seen` holds keys already
/// handed out (by earlier pools) and is extended; no key is returned twice.
/// Candidates are drawn and checked on `threads` threads, deterministically.
fedaqp::Result<std::vector<fedaqp::RangeQuery>> AdmittedPool(
    fedaqp::Federation* fed, const ExactOracle& oracle, const PoolSpec& spec,
    size_t count, size_t threads, std::unordered_set<std::string>* seen);

}  // namespace perfbench

#endif  // PERFBENCH_DATASET_H_
