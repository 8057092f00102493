#ifndef FEDAQP_CACHE_ANSWER_CACHE_H_
#define FEDAQP_CACHE_ANSWER_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "dp/budget.h"
#include "storage/range_query.h"
#include "storage/schema.h"

namespace fedaqp {

/// Analyst-visible semantic form of an admitted query: aggregate plus
/// ranges sorted by dimension, clipped to the schema domain, with
/// unconstrained (full-domain) dimensions dropped. Two submissions that
/// normalize identically ask for the same released statistic, so a noisy
/// answer already purchased for one is a valid (and, being DP
/// post-processing, free) answer for the other.
struct NormalizedQuery {
  Aggregation agg = Aggregation::kCount;
  std::vector<DimRange> ranges;

  /// Map-key encoding, stable across runs.
  std::string KeyString(const std::string& analyst) const;
};

NormalizedQuery NormalizeQuery(const RangeQuery& query, const Schema& schema);

/// One purchased noisy answer. The index fields (ranges, budget,
/// purchase_seq) are immutable after registration on the admission
/// thread; the outcome fields are published exactly once (from whichever
/// thread delivered the purchasing query) and only read by the admission
/// thread after that query's round completed, with `m` making the
/// hand-off explicit for the sanitizers.
struct CacheEntry {
  std::vector<DimRange> ranges;
  Aggregation agg = Aggregation::kCount;
  /// Exact-index key the entry is registered under.
  std::string key;
  PrivacyBudget budget{0.0, 0.0};
  uint64_t purchase_seq = 0;

  std::mutex m;
  bool terminal = false;
  Status status = Status::OK();
  double estimate = 0.0;
  /// stderr^2 — variances of independent noise draws add over disjoint
  /// sub-ranges, so composition carries variance, not stderr.
  double variance = 0.0;
  bool approximated = false;
};

/// DP noisy-answer cache (the coordinator side of the budget/accuracy
/// trade-off Shrinkwrap makes first-class): exact repeats of a purchased
/// query are served for zero fresh (eps, delta); a single-dimension range
/// that tiles over previously purchased sub-ranges is composed from them,
/// buying only the uncovered remainder.
///
/// Determinism contract: Resolve/Register decisions are a pure function
/// of the admission sequence (the queries admitted before this one, in
/// seq order) — never of wall clock or scheduling. Entries are keyed and
/// registered at admission time, before their answers exist, so a query
/// can hit an entry purchased earlier in its own round; the session layer
/// materializes such links once the round's answers are in. Replaying the
/// same admission sequence therefore reproduces the same hit/miss/compose
/// pattern and, the purchased answers being bit-identical by the
/// orchestrator's own contract, the same served bits.
///
/// Threading: mutations (Resolve with registration) happen on the
/// client's admission thread; `mutex_` additionally lets caller threads
/// take a Snapshot to plan on.
class NoisyAnswerCache {
 public:
  struct Options {
    /// Optional per-dimension cluster cut points (MetadataStore::
    /// CutPoints, unioned over providers). When a dimension has cut
    /// points, a partial composition whose uncovered remainder still
    /// spans the same boundary cells as the full range is demoted to a
    /// miss: the remainder would touch every cluster the full query
    /// touches, so re-purchasing the full range costs the same budget,
    /// answers with lower variance, and caches a more reusable entry.
    /// Meaningful for value-ordered cluster layouts; leave empty (no
    /// demotion) for shuffled layouts.
    std::vector<std::vector<Value>> cut_points;
  };

  /// What the admission thread should do with one query.
  struct Decision {
    enum class Kind : uint8_t {
      /// Execute and charge the full query; `purchase` is registered.
      kMiss = 0,
      /// Serve `hit`'s answer for zero budget.
      kHit = 1,
      /// Compose `parts` (+ the remainder, when `has_remainder`); only
      /// the remainder executes and charges, registered as `purchase`.
      kComposed = 2,
    };
    Kind kind = Kind::kMiss;
    std::shared_ptr<CacheEntry> hit;
    /// Cached sub-answers in ascending-lo order (kComposed).
    std::vector<std::shared_ptr<CacheEntry>> parts;
    bool has_remainder = false;
    /// The uncovered sub-interval to execute (kComposed, single dim).
    RangeQuery remainder_query;
    /// Entry to publish this query's purchased answer into (kMiss, or
    /// kComposed with a remainder).
    std::shared_ptr<CacheEntry> purchase;

    /// True when nothing executes or charges: an exact hit, or a
    /// composition without a remainder.
    bool ServedFree() const {
      return kind == Kind::kHit || (kind == Kind::kComposed && !has_remainder);
    }
  };

  explicit NoisyAnswerCache(Schema schema, Options options = {});

  /// Classifies `query` against the purchases admitted so far and — for
  /// kMiss / kComposed-with-remainder — registers the new purchase under
  /// the key it will satisfy. `budget` is the (eps, delta) this query
  /// would be charged; an entry serves a request only when its purchased
  /// epsilon covers the requested one (a previously released answer is
  /// free post-processing, but a *less* accurate one must not silently
  /// substitute for a fresher, higher-eps purchase). Admission-thread
  /// only; call strictly in admission-seq order. Counts nothing: the
  /// step that applies the decision calls CountLookup.
  Decision Resolve(const std::string& analyst, const RangeQuery& query,
                   const PrivacyBudget& budget, uint64_t seq);

  /// Publishes a purchased outcome into `entry` (any thread, once).
  static void Publish(CacheEntry& entry, const Status& status, double estimate,
                      double variance, bool approximated);

  /// Drops a purchase whose query failed, was cancelled or was refused
  /// by the ledger (the answer was never bought). Later admissions
  /// re-purchase the key. Admission-thread only. Counts nothing: the
  /// caller calls CountInvalidation.
  void Invalidate(const std::shared_ptr<CacheEntry>& entry,
                  const std::string& analyst);

  /// A copy of the index to plan on: Resolve and Invalidate on the copy
  /// leave this cache untouched. The copy shares the entries, whose index
  /// fields never change after registration. Thread-safe.
  std::unique_ptr<NoisyAnswerCache> Snapshot() const;

  /// The registry's `cache.*` counters count what admission applies, so
  /// a plan on a Snapshot moves none. CountLookup adds one applied
  /// decision to `lookups` and to exactly one of `exact_hits`,
  /// `full_compositions`, `partial_compositions` and `misses`;
  /// CountInvalidation adds one dropped purchase to `invalidated`.
  static void CountLookup(const Decision& decision);
  static void CountInvalidation();

  const Schema& schema() const { return schema_; }

 private:
  /// (analyst, agg, dim) bucket of the single-dimension interval index.
  struct GroupKey {
    std::string analyst;
    uint8_t agg = 0;
    size_t dim = 0;
    bool operator<(const GroupKey& o) const;
  };
  /// lo -> (hi -> entry). Entries may overlap; tiling only ever extends
  /// coverage with an interval that starts exactly at the first (or ends
  /// exactly at the last) uncovered value, so overlap never double-counts.
  using IntervalIndex = std::map<Value, std::map<Value, std::shared_ptr<CacheEntry>>>;

  void RegisterLocked(const std::string& analyst, const NormalizedQuery& norm,
                      const std::shared_ptr<CacheEntry>& entry);
  /// True when [lo,hi] starts and ends in the same cut cells as the
  /// enclosing [full_lo, full_hi] (see Options::cut_points).
  bool SpansSameCells(size_t dim, Value lo, Value hi, Value full_lo,
                      Value full_hi) const;

  Schema schema_;
  Options options_;

  mutable std::mutex mutex_;
  /// Exact-repeat index: normalized key -> entry (any dimensionality).
  std::map<std::string, std::shared_ptr<CacheEntry>> exact_;
  /// Sub-range reuse index (single constrained dimension only).
  std::map<GroupKey, IntervalIndex> groups_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CACHE_ANSWER_CACHE_H_
