// Noisy-answer cache bench: budget saved vs reuse rate, with a
// determinism gate.
//
// Builds deterministic workloads over adjacent single-dimension tiles:
// a `reuse` fraction of the queries revisit earlier answers — half as
// exact repeats, half as unions of two adjacent purchased tiles (served
// by sub-range composition) — and the rest are fresh ranges. Each mix
// runs twice over identically rebuilt federations: cache off, then
// cache on, submitted as the same sequential admission sequence.
//
// Gates (the acceptance criteria, checked at the 60%-reuse point —
// 30% exact repeats + 30% overlapping):
//   * every cache MISS is bit-identical to the no-cache run at the same
//     admission position (session-id reservation keeps noise streams
//     aligned);
//   * every HIT replays its purchase bit-for-bit: repeats equal the
//     original answer, unions equal the ascending-lo sum of their
//     purchased parts;
//   * ledger conservation: spent + saved under the cache equals the
//     no-cache spend;
//   * total epsilon spent drops by at least 40%;
//   * plan equals admission (every reuse point): each cached run first
//     plans its workload with FederationClient::PlanWorkload, and every
//     predicted hit must match served_from_cache and every planned charge
//     the audit log's charge for that query.
//
// Emits BENCH_dp_cache.json with the hit-rate / budget-saved curve over
// reuse fractions {0%, 20%, 40%, 60%}. Exit codes: 2 = answer
// divergence (miss or hit replay), 3 = ledger inconsistency, a plan that
// differs from admission, or the savings target missed.
//
//   --rows=N --providers=P --queries=M --threads=T --seed=X

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/federation_client.h"

namespace fedaqp {
namespace {

struct Item {
  RangeQuery query;
  enum Kind { kFresh, kRepeat, kUnion } kind = kFresh;
  /// Admission positions of the source purchases (repeat: a; union: a+b).
  size_t a = 0, b = 0;
};

/// Lays `fresh` adjacent tiles of equal width on `dim`, then appends
/// repeats (cycling over the tiles) and pair-unions (cycling over
/// adjacent tile pairs). Deterministic in its arguments.
std::vector<Item> BuildWorkload(size_t dim, long domain, size_t total,
                                double reuse_fraction) {
  const size_t reuse = static_cast<size_t>(total * reuse_fraction + 0.5);
  const size_t repeats = reuse / 2;
  const size_t unions = reuse - repeats;
  const size_t fresh = total - reuse;
  const long width = std::max<long>(2, domain / static_cast<long>(fresh));

  std::vector<Item> items;
  items.reserve(total);
  for (size_t i = 0; i < fresh; ++i) {
    const long lo = static_cast<long>(i) * width;
    Item item;
    item.query = RangeQueryBuilder(Aggregation::kCount)
                     .Where(dim, lo, lo + width - 1)
                     .Build();
    items.push_back(std::move(item));
  }
  for (size_t r = 0; r < repeats; ++r) {
    const size_t src = r % fresh;
    Item item;
    item.query = items[src].query;
    item.kind = Item::kRepeat;
    item.a = src;
    items.push_back(std::move(item));
  }
  const size_t pairs = fresh / 2;
  for (size_t u = 0; u < unions; ++u) {
    const size_t p = u % pairs;
    const long lo = static_cast<long>(2 * p) * width;
    Item item;
    item.query = RangeQueryBuilder(Aggregation::kCount)
                     .Where(dim, lo, lo + 2 * width - 1)
                     .Build();
    item.kind = Item::kUnion;
    item.a = 2 * p;
    item.b = 2 * p + 1;
    items.push_back(std::move(item));
  }
  return items;
}

struct RunOutcome {
  std::vector<double> estimates;
  std::vector<bool> from_cache;
  PrivacyBudget spent{0.0, 0.0};
  PrivacyBudget saved{0.0, 0.0};
  size_t hits = 0;
  /// Cached runs: the plan's hits and charges equal admission's.
  bool plan_matches = true;
  bool ok = false;
};

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", 20000);
  const size_t providers = flags.GetInt("providers", 2);
  const size_t num_queries = flags.GetInt("queries", 40);
  const size_t threads = flags.GetInt("threads", 2);
  const uint64_t seed = flags.GetInt("seed", 1);

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;
  protocol.mode = ReleaseMode::kLocalDp;
  protocol.num_threads = threads;
  protocol.scheduler = BatchScheduler::kTaskGraph;

  // Sequential Submit+Wait: one admission round per query, so the
  // recorded sequence IS the replay order, and the cache run's session
  // reservations line its noise streams up with the no-cache run.
  auto run_once = [&](const std::vector<Item>& items,
                      bool enable_cache) -> RunOutcome {
    RunOutcome out;
    std::unique_ptr<Federation> fed = bench::OpenPaperFederation(
        bench::Dataset::kAdult, rows, providers, seed, protocol);
    if (!fed) return out;
    FederationClient::Options opts;
    opts.protocol = protocol;
    opts.analysts = {{"bench", 1e18, 1e9}};
    opts.enable_cache = enable_cache;
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(fed->provider_ptrs(), opts);
    if (!client.ok()) {
      std::fprintf(stderr, "client: %s\n",
                   client.status().ToString().c_str());
      return out;
    }
    BudgetPlanner::WorkloadPlan plan;
    if (enable_cache) {
      std::vector<RangeQuery> workload;
      for (const Item& item : items) workload.push_back(item.query);
      Result<BudgetPlanner::WorkloadPlan> planned =
          (*client)->PlanWorkload("bench", workload);
      if (!planned.ok()) {
        std::fprintf(stderr, "plan: %s\n",
                     planned.status().ToString().c_str());
        return out;
      }
      plan = std::move(planned).value();
    }
    for (const Item& item : items) {
      QuerySpec spec;
      spec.analyst = "bench";
      spec.query = item.query;
      QueryTicket ticket = (*client)->Submit(std::move(spec));
      Result<QueryResponse> resp = ticket.Wait();
      if (!resp.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     resp.status().ToString().c_str());
        return out;
      }
      const bool cached = ticket.Stats().served_from_cache;
      out.estimates.push_back(resp->estimate);
      out.from_cache.push_back(cached);
      if (cached) ++out.hits;
    }
    if (enable_cache) {
      // Query i was admitted as seq i + 1; a predicted hit is charged
      // nothing.
      std::vector<PrivacyBudget> charged(items.size(),
                                         PrivacyBudget{0.0, 0.0});
      for (const auto& record : (*client)->audit_log().ForAnalyst("bench")) {
        if (record.kind == obs::BudgetAuditLog::Kind::kCharge &&
            record.seq >= 1 && record.seq <= items.size()) {
          charged[record.seq - 1] = {record.epsilon, record.delta};
        }
      }
      for (size_t i = 0; i < items.size(); ++i) {
        const BudgetPlanner::PlannedQuery& planned = plan.queries[i];
        const PrivacyBudget expected = planned.predicted_cached
                                           ? PrivacyBudget{0.0, 0.0}
                                           : planned.budget;
        if (planned.predicted_cached != out.from_cache[i] ||
            expected.epsilon != charged[i].epsilon ||
            expected.delta != charged[i].delta) {
          out.plan_matches = false;
        }
      }
    }
    Result<PrivacyBudget> spent = (*client)->ledger().Spent("bench");
    Result<PrivacyBudget> saved = (*client)->ledger().Saved("bench");
    if (!spent.ok() || !saved.ok()) return out;
    out.spent = *spent;
    out.saved = *saved;
    out.ok = true;
    return out;
  };

  // The widest dimension gives the tiles room at every reuse fraction.
  std::unique_ptr<Federation> probe = bench::OpenPaperFederation(
      bench::Dataset::kAdult, rows, providers, seed, protocol);
  if (!probe) return 1;
  const Schema schema = probe->schema();
  size_t dim = 0;
  for (size_t d = 1; d < schema.num_dims(); ++d) {
    if (schema.dim(d).domain_size > schema.dim(dim).domain_size) dim = d;
  }
  const long domain = static_cast<long>(schema.dim(dim).domain_size);
  probe.reset();

  const std::vector<double> fractions = {0.0, 0.2, 0.4, 0.6};
  bench::BenchJson json("dp_cache");
  json.Set("rows", rows);
  json.Set("providers", providers);
  json.Set("queries", num_queries);
  json.Set("reuse_dim", schema.dim(dim).name);

  bool bit_identical = true;
  bool ledgers_match = true;
  bool plan_matches = true;
  double final_saved_pct = 0.0;
  std::vector<double> final_estimates;
  std::printf("dp cache: %zu queries on %s[%ld], per-query eps %.2f\n",
              num_queries, schema.dim(dim).name.c_str(), domain,
              protocol.per_query_budget.epsilon);
  for (double frac : fractions) {
    const std::vector<Item> items =
        BuildWorkload(dim, domain, num_queries, frac);
    const RunOutcome base = run_once(items, /*enable_cache=*/false);
    const RunOutcome cached = run_once(items, /*enable_cache=*/true);
    if (!base.ok || !cached.ok) return 1;
    plan_matches = plan_matches && cached.plan_matches;

    for (size_t i = 0; i < items.size(); ++i) {
      if (!cached.from_cache[i]) {
        // Misses must land on the no-cache run's exact noise draw.
        if (cached.estimates[i] != base.estimates[i]) bit_identical = false;
        continue;
      }
      // Hits must replay their purchases bit-for-bit.
      const double expected =
          items[i].kind == Item::kRepeat
              ? cached.estimates[items[i].a]
              : cached.estimates[items[i].a] + cached.estimates[items[i].b];
      if (cached.estimates[i] != expected) bit_identical = false;
    }
    // Conservation: what the cache did not charge it recorded as saved.
    if (std::fabs(cached.spent.epsilon + cached.saved.epsilon -
                  base.spent.epsilon) > 1e-9 ||
        std::fabs(cached.spent.delta + cached.saved.delta -
                  base.spent.delta) > 1e-9) {
      ledgers_match = false;
    }

    const double hit_rate =
        static_cast<double>(cached.hits) / static_cast<double>(items.size());
    const double saved_pct =
        base.spent.epsilon > 0.0
            ? 100.0 * (base.spent.epsilon - cached.spent.epsilon) /
                  base.spent.epsilon
            : 0.0;
    const int pct = static_cast<int>(frac * 100.0 + 0.5);
    std::printf(
        "  reuse %3d%%: hit rate %.2f, eps %.1f -> %.1f (saved %.1f%%)\n",
        pct, hit_rate, base.spent.epsilon, cached.spent.epsilon, saved_pct);
    json.Set("hit_rate_at_" + std::to_string(pct), hit_rate);
    json.Set("eps_saved_pct_at_" + std::to_string(pct), saved_pct);
    if (frac == fractions.back()) {
      final_saved_pct = saved_pct;
      final_estimates = cached.estimates;
    }
  }

  // >= 40% budget saved on the 30% repeats + 30% overlapping mix.
  const bool savings_met = final_saved_pct >= 40.0;
  std::printf(
      "  answers %s, ledgers %s, plans %s, savings target (>=40%%) %s\n",
      bit_identical ? "bit-identical" : "DIVERGED (bug!)",
      ledgers_match ? "conserved" : "DIVERGED (bug!)",
      plan_matches ? "match admission" : "DIVERGED (bug!)",
      savings_met ? "met" : "MISSED");

  json.Set("bit_identical", bit_identical ? 1 : 0);
  json.Set("ledgers_match", ledgers_match ? 1 : 0);
  json.Set("plan_matches_admission", plan_matches ? 1 : 0);
  json.Set("savings_target_met", savings_met ? 1 : 0);
  json.Set("answers_checksum", bench::AnswersChecksum(final_estimates));
  json.Write();

  if (!bit_identical) return 2;
  if (!ledgers_match || !plan_matches || !savings_met) return 3;
  return 0;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }
