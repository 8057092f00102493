#include "cache/answer_cache.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace fedaqp {

namespace {

/// The registry's `cache.*` counters, the cache's only statistics: every
/// lookup adds to `lookups` and to exactly one of `exact_hits`,
/// `full_compositions`, `partial_compositions` and `misses`.
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

/// Greedy exact-boundary tiling of [a, b] over an interval index: a chain
/// of cached intervals starting exactly at `a` (each extending coverage
/// from the first uncovered value) plus a chain ending exactly at `b`,
/// leaving at most one contiguous uncovered remainder in the middle.
/// Only entries whose purchased epsilon covers `req_eps` participate.
/// Returns false when no cached interval tiles either end (pure miss).
/// Greedy longest-tile-first is deterministic: ties are impossible (one
/// entry per (lo, hi) pair).
template <typename E, typename EpsFn>
bool TilePrefixSuffix(const std::map<Value, std::map<Value, E>>& index,
                      Value a, Value b, double req_eps, EpsFn eps_of,
                      std::vector<E>* prefix, std::vector<E>* suffix,
                      Value* rem_lo, Value* rem_hi, bool* has_rem) {
  Value p = a;
  for (;;) {
    if (p > b) break;
    auto at = index.find(p);
    if (at == index.end()) break;
    // Longest eligible tile starting at p (map is ascending by hi).
    const E* best = nullptr;
    Value best_hi = 0;
    for (const auto& entry : at->second) {
      if (entry.first > b) break;
      if (eps_of(entry.second) < req_eps) continue;
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
    const E* best = nullptr;
    Value best_lo = 0;
    for (auto it = index.lower_bound(p); it != index.end() && it->first <= s;
         ++it) {
      auto hit = it->second.find(s);
      if (hit == it->second.end() || eps_of(hit->second) < req_eps) continue;
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

NoisyAnswerCache::Decision NoisyAnswerCache::ResolveLocked(
    const std::string& analyst, const RangeQuery& query,
    const PrivacyBudget& budget, uint64_t seq) {
  const NormalizedQuery norm = NormalizeQuery(query, schema_);
  const std::string key = norm.KeyString(analyst);
  Decision decision;

  Counters().lookups->Add();
  auto exact = exact_.find(key);
  if (exact != exact_.end() && exact->second->budget.epsilon >= budget.epsilon) {
    Counters().exact_hits->Add();
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
      std::vector<std::shared_ptr<CacheEntry>> prefix, suffix;
      Value rem_lo = 0, rem_hi = 0;
      bool has_rem = false;
      bool tiled = TilePrefixSuffix(
          group->second, want.lo, want.hi, budget.epsilon,
          [](const std::shared_ptr<CacheEntry>& e) { return e->budget.epsilon; },
          &prefix, &suffix, &rem_lo, &rem_hi, &has_rem);
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
          Counters().partial_compositions->Add();
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
        } else {
          Counters().full_compositions->Add();
        }
        return decision;
      }
    }
  }

  Counters().misses->Add();
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

NoisyAnswerCache::Decision NoisyAnswerCache::Resolve(
    const std::string& analyst, const RangeQuery& query,
    const PrivacyBudget& budget, uint64_t seq) {
  std::lock_guard<std::mutex> lock(mutex_);
  return ResolveLocked(analyst, query, budget, seq);
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
  Counters().invalidated->Add();
}

std::vector<bool> NoisyAnswerCache::PredictChargeable(
    const std::string& analyst, const std::vector<RangeQuery>& workload,
    const std::vector<PrivacyBudget>& budgets) const {
  // Shadow of the index: epsilon is all the simulation needs.
  std::map<std::string, double> shadow_exact;
  std::map<GroupKey, std::map<Value, std::map<Value, double>>> shadow_groups;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& kv : exact_) {
      shadow_exact[kv.first] = kv.second->budget.epsilon;
    }
    for (const auto& gkv : groups_) {
      auto& shadow = shadow_groups[gkv.first];
      for (const auto& lokv : gkv.second) {
        for (const auto& hikv : lokv.second) {
          shadow[lokv.first][hikv.first] = hikv.second->budget.epsilon;
        }
      }
    }
  }

  std::vector<bool> chargeable(workload.size(), true);
  for (size_t i = 0; i < workload.size(); ++i) {
    const PrivacyBudget& budget = budgets[i];
    const NormalizedQuery norm = NormalizeQuery(workload[i], schema_);
    const std::string key = norm.KeyString(analyst);
    auto exact = shadow_exact.find(key);
    if (exact != shadow_exact.end() && exact->second >= budget.epsilon) {
      chargeable[i] = false;
      continue;
    }
    Value reg_lo = 0, reg_hi = 0;
    bool register_interval = false;
    if (norm.ranges.size() == 1) {
      const DimRange& want = norm.ranges[0];
      GroupKey gk{analyst, static_cast<uint8_t>(norm.agg), want.dim_index};
      reg_lo = want.lo;
      reg_hi = want.hi;
      register_interval = true;
      auto group = shadow_groups.find(gk);
      if (group != shadow_groups.end()) {
        std::vector<double> prefix, suffix;
        Value rem_lo = 0, rem_hi = 0;
        bool has_rem = false;
        bool tiled = TilePrefixSuffix(
            group->second, want.lo, want.hi, budget.epsilon,
            [](double eps) { return eps; }, &prefix, &suffix, &rem_lo,
            &rem_hi, &has_rem);
        if (tiled && has_rem &&
            SpansSameCells(want.dim_index, rem_lo, rem_hi, want.lo, want.hi)) {
          tiled = false;
        }
        if (tiled && !has_rem) {
          chargeable[i] = false;
          continue;
        }
        if (tiled) {
          reg_lo = rem_lo;
          reg_hi = rem_hi;
          NormalizedQuery rem_norm;
          rem_norm.agg = norm.agg;
          rem_norm.ranges = {DimRange{want.dim_index, rem_lo, rem_hi}};
          shadow_exact[rem_norm.KeyString(analyst)] = budget.epsilon;
          shadow_groups[gk][reg_lo][reg_hi] = budget.epsilon;
          continue;  // chargeable (remainder)
        }
      }
    }
    // Miss: register the full normalized key.
    shadow_exact[key] = budget.epsilon;
    if (register_interval) {
      GroupKey gk{analyst, static_cast<uint8_t>(norm.agg),
                  norm.ranges[0].dim_index};
      shadow_groups[gk][reg_lo][reg_hi] = budget.epsilon;
    }
  }
  return chargeable;
}

}  // namespace fedaqp
