#include "cache/answer_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace fedaqp {

namespace {

/// The registry's `cache.*` counters, the cache's only statistics. They
/// count what admission applies (CountLookup, CountInvalidation), never
/// what Resolve or Invalidate do on a plan's Snapshot.
struct CacheCounters {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* lookups = reg.GetCounter("cache.lookups");
  obs::Counter* exact_hits = reg.GetCounter("cache.exact_hits");
  obs::Counter* full_compositions = reg.GetCounter("cache.full_compositions");
  obs::Counter* partial_compositions =
      reg.GetCounter("cache.partial_compositions");
  obs::Counter* misses = reg.GetCounter("cache.misses");
  obs::Counter* invalidated = reg.GetCounter("cache.invalidated");
};
const CacheCounters& Counters() {
  static const CacheCounters counters;
  return counters;
}

using Tiles = std::vector<std::shared_ptr<CacheEntry>>;

/// Greedy exact-boundary tiling of [a, b] over an interval index: a chain
/// of cached intervals starting exactly at `a` (each extending coverage
/// from the first uncovered value) plus a chain ending exactly at `b`,
/// leaving at most one contiguous uncovered remainder in the middle.
/// Only entries whose purchased epsilon covers `req_eps` participate.
/// Returns false when no cached interval tiles either end (pure miss).
/// Greedy longest-tile-first is deterministic: ties are impossible (one
/// entry per (lo, hi) pair).
bool TilePrefixSuffix(
    const std::map<Value, std::map<Value, std::shared_ptr<CacheEntry>>>& index,
    Value a, Value b, double req_eps, Tiles* prefix, Tiles* suffix,
    Value* rem_lo, Value* rem_hi, bool* has_rem) {
  Value p = a;
  for (;;) {
    if (p > b) break;
    auto at = index.find(p);
    if (at == index.end()) break;
    // Longest eligible tile starting at p (map is ascending by hi).
    const std::shared_ptr<CacheEntry>* best = nullptr;
    Value best_hi = 0;
    for (const auto& entry : at->second) {
      if (entry.first > b) break;
      if (entry.second->budget.epsilon < req_eps) continue;
      best = &entry.second;
      best_hi = entry.first;
    }
    if (best == nullptr) break;
    prefix->push_back(*best);
    p = best_hi + 1;
  }
  Value s = b;
  while (s >= p) {
    // Longest eligible tile ending at s: minimum lo >= p (iterate
    // ascending lo, first match wins).
    const std::shared_ptr<CacheEntry>* best = nullptr;
    Value best_lo = 0;
    for (auto it = index.lower_bound(p); it != index.end() && it->first <= s;
         ++it) {
      auto hit = it->second.find(s);
      if (hit == it->second.end() || hit->second->budget.epsilon < req_eps) {
        continue;
      }
      best = &hit->second;
      best_lo = it->first;
      break;
    }
    if (best == nullptr) break;
    suffix->push_back(*best);
    s = best_lo - 1;
  }
  if (prefix->empty() && suffix->empty()) return false;
  *has_rem = p <= s;
  *rem_lo = p;
  *rem_hi = s;
  // Collected right-to-left; hand back in ascending-lo order.
  std::reverse(suffix->begin(), suffix->end());
  return true;
}

}  // namespace

std::string NormalizedQuery::KeyString(const std::string& analyst) const {
  std::string key = analyst;
  key += '|';
  key += std::to_string(static_cast<int>(agg));
  for (const DimRange& r : ranges) {
    key += '|';
    key += std::to_string(r.dim_index);
    key += ':';
    key += std::to_string(r.lo);
    key += '-';
    key += std::to_string(r.hi);
  }
  return key;
}

NormalizedQuery NormalizeQuery(const RangeQuery& query, const Schema& schema) {
  NormalizedQuery norm;
  norm.agg = query.aggregation();
  norm.ranges.reserve(query.ranges().size());
  for (const DimRange& r : query.ranges()) {
    DimRange clipped = r;
    clipped.lo = std::max<Value>(clipped.lo, 0);
    if (clipped.dim_index < schema.num_dims()) {
      clipped.hi =
          std::min<Value>(clipped.hi, schema.dim(clipped.dim_index).domain_size - 1);
    }
    // A full-domain interval constrains nothing — semantically absent.
    if (clipped.dim_index < schema.num_dims() && clipped.lo == 0 &&
        clipped.hi == schema.dim(clipped.dim_index).domain_size - 1) {
      continue;
    }
    norm.ranges.push_back(clipped);
  }
  std::sort(norm.ranges.begin(), norm.ranges.end(),
            [](const DimRange& x, const DimRange& y) {
              return x.dim_index < y.dim_index;
            });
  return norm;
}

bool NoisyAnswerCache::GroupKey::operator<(const GroupKey& o) const {
  if (analyst != o.analyst) return analyst < o.analyst;
  if (agg != o.agg) return agg < o.agg;
  return dim < o.dim;
}

NoisyAnswerCache::NoisyAnswerCache(Schema schema, Options options)
    : schema_(std::move(schema)), options_(std::move(options)) {}

bool NoisyAnswerCache::SpansSameCells(size_t dim, Value lo, Value hi,
                                      Value full_lo, Value full_hi) const {
  if (dim >= options_.cut_points.size()) return false;
  const std::vector<Value>& cuts = options_.cut_points[dim];
  if (cuts.empty()) return false;
  auto cell = [&cuts](Value v) {
    return std::upper_bound(cuts.begin(), cuts.end(), v) - cuts.begin();
  };
  return cell(lo) == cell(full_lo) && cell(hi) == cell(full_hi);
}

NoisyAnswerCache::Decision NoisyAnswerCache::Resolve(
    const std::string& analyst, const RangeQuery& query,
    const PrivacyBudget& budget, uint64_t seq) {
  const NormalizedQuery norm = NormalizeQuery(query, schema_);
  const std::string key = norm.KeyString(analyst);
  Decision decision;

  std::lock_guard<std::mutex> lock(mutex_);
  auto exact = exact_.find(key);
  if (exact != exact_.end() && exact->second->budget.epsilon >= budget.epsilon) {
    decision.kind = Decision::Kind::kHit;
    decision.hit = exact->second;
    return decision;
  }

  // Sub-range reuse: one constrained dimension, aggregates additive over
  // disjoint intervals (all three are).
  if (norm.ranges.size() == 1) {
    const DimRange& want = norm.ranges[0];
    GroupKey gk{analyst, static_cast<uint8_t>(norm.agg), want.dim_index};
    auto group = groups_.find(gk);
    if (group != groups_.end()) {
      Tiles prefix, suffix;
      Value rem_lo = 0, rem_hi = 0;
      bool has_rem = false;
      bool tiled = TilePrefixSuffix(group->second, want.lo, want.hi,
                                    budget.epsilon, &prefix, &suffix, &rem_lo,
                                    &rem_hi, &has_rem);
      // A remainder spanning the same metadata cells as the full range
      // saves no cluster work; buying the full range answers with lower
      // variance and caches a more reusable interval (see Options).
      if (tiled && has_rem &&
          SpansSameCells(want.dim_index, rem_lo, rem_hi, want.lo, want.hi)) {
        tiled = false;
      }
      if (tiled) {
        decision.kind = Decision::Kind::kComposed;
        decision.parts = std::move(prefix);
        decision.parts.insert(decision.parts.end(), suffix.begin(),
                              suffix.end());
        decision.has_remainder = has_rem;
        if (has_rem) {
          decision.remainder_query = RangeQuery(
              norm.agg, {DimRange{want.dim_index, rem_lo, rem_hi}});
          NormalizedQuery rem_norm;
          rem_norm.agg = norm.agg;
          rem_norm.ranges = {DimRange{want.dim_index, rem_lo, rem_hi}};
          decision.purchase = std::make_shared<CacheEntry>();
          decision.purchase->ranges = rem_norm.ranges;
          decision.purchase->agg = norm.agg;
          decision.purchase->key = rem_norm.KeyString(analyst);
          decision.purchase->budget = budget;
          decision.purchase->purchase_seq = seq;
          RegisterLocked(analyst, rem_norm, decision.purchase);
        }
        return decision;
      }
    }
  }

  decision.kind = Decision::Kind::kMiss;
  decision.purchase = std::make_shared<CacheEntry>();
  decision.purchase->ranges = norm.ranges;
  decision.purchase->agg = norm.agg;
  decision.purchase->key = key;
  decision.purchase->budget = budget;
  decision.purchase->purchase_seq = seq;
  RegisterLocked(analyst, norm, decision.purchase);
  return decision;
}

void NoisyAnswerCache::RegisterLocked(
    const std::string& analyst, const NormalizedQuery& norm,
    const std::shared_ptr<CacheEntry>& entry) {
  exact_[entry->key] = entry;  // replaces a lower-eps predecessor
  if (norm.ranges.size() == 1) {
    const DimRange& r = norm.ranges[0];
    GroupKey gk{analyst, static_cast<uint8_t>(norm.agg), r.dim_index};
    groups_[gk][r.lo][r.hi] = entry;
  }
}

void NoisyAnswerCache::Publish(CacheEntry& entry, const Status& status,
                               double estimate, double variance,
                               bool approximated) {
  std::lock_guard<std::mutex> lock(entry.m);
  entry.terminal = true;
  entry.status = status;
  entry.estimate = estimate;
  entry.variance = variance;
  entry.approximated = approximated;
}

void NoisyAnswerCache::Invalidate(const std::shared_ptr<CacheEntry>& entry,
                                  const std::string& analyst) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto exact = exact_.find(entry->key);
  if (exact != exact_.end() && exact->second == entry) exact_.erase(exact);
  if (entry->ranges.size() == 1) {
    const DimRange& r = entry->ranges[0];
    GroupKey gk{analyst, static_cast<uint8_t>(entry->agg), r.dim_index};
    auto group = groups_.find(gk);
    if (group != groups_.end()) {
      auto lo = group->second.find(r.lo);
      if (lo != group->second.end()) {
        auto hi = lo->second.find(r.hi);
        if (hi != lo->second.end() && hi->second == entry) {
          lo->second.erase(hi);
          if (lo->second.empty()) group->second.erase(lo);
        }
      }
      if (group->second.empty()) groups_.erase(group);
    }
  }
}

std::unique_ptr<NoisyAnswerCache> NoisyAnswerCache::Snapshot() const {
  auto copy = std::make_unique<NoisyAnswerCache>(schema_, options_);
  std::lock_guard<std::mutex> lock(mutex_);
  copy->exact_ = exact_;
  copy->groups_ = groups_;
  return copy;
}

void NoisyAnswerCache::CountLookup(const Decision& decision) {
  const CacheCounters& counters = Counters();
  counters.lookups->Add();
  switch (decision.kind) {
    case Decision::Kind::kHit:
      counters.exact_hits->Add();
      break;
    case Decision::Kind::kComposed:
      (decision.has_remainder ? counters.partial_compositions
                              : counters.full_compositions)
          ->Add();
      break;
    case Decision::Kind::kMiss:
      counters.misses->Add();
      break;
  }
}

void NoisyAnswerCache::CountInvalidation() { Counters().invalidated->Add(); }

}  // namespace fedaqp
