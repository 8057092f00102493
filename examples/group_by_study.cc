// GROUP-BY and derived aggregates (the paper's Sec. 7 extensions): a
// retail federation computes a private histogram of sales per region and
// the private average/stddev basket size, all charged against the analyst
// budget with parallel composition across disjoint buckets.
//
//   ./group_by_study

#include <cstdio>

#include "core/fedaqp.h"
#include "federation/derived.h"

using namespace fedaqp;  // NOLINT: example brevity

int main() {
  // Sales: region x product category x basket-size bucket.
  SyntheticConfig cfg;
  cfg.rows = 60000;
  cfg.seed = 99;
  cfg.dims = {{"region", 8, DistributionKind::kCategoricalSkewed, 0.0},
              {"category", 40, DistributionKind::kZipf, 1.3},
              {"basket", 30, DistributionKind::kNormal, 0.4}};
  Result<std::vector<Table>> parts = GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
  if (!parts.ok()) return 1;

  std::vector<std::unique_ptr<DataProvider>> providers;
  std::vector<DataProvider*> ptrs;
  for (size_t i = 0; i < parts->size(); ++i) {
    DataProvider::Options popts;
    popts.storage.cluster_capacity = 256;
    popts.storage.layout = ClusterLayout::kShuffled;
    popts.n_min = 4;
    popts.seed = 4040 + i;
    popts.measure_cap = 128;
    Result<std::unique_ptr<DataProvider>> p =
        DataProvider::Create((*parts)[i], popts);
    if (!p.ok()) return 1;
    ptrs.push_back(p->get());
    providers.push_back(std::move(p).value());
  }

  // One analyst with a (50, 0.05) grant: every bucket and every derived
  // aggregate's sub-query is charged on this analyst's ledger.
  FederationClient::Options options;
  options.protocol.per_query_budget = {1.0, 1e-3};
  options.protocol.sampling_rate = 0.3;
  options.analysts = {AnalystGrant{"analyst", 50.0, 0.05}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(ptrs, options);
  if (!client.ok()) return 1;

  // Private histogram: sales of popular categories, grouped by region.
  RangeQuery base = RangeQueryBuilder(Aggregation::kSum)
                        .Where(1, 0, 9)  // top categories
                        .Build();
  GroupByOptions gb;
  gb.group_dim = 0;
  Result<GroupByResult> hist = PrivateGroupBy(**client, "analyst", base, gb);
  if (!hist.ok()) {
    std::fprintf(stderr, "group-by failed: %s\n",
                 hist.status().ToString().c_str());
    return 1;
  }
  std::printf("== private sales histogram by region ==\n");
  double exact_total = 0.0;
  for (const auto& bucket : hist->buckets) {
    RangeQuery exact_q = RangeQueryBuilder(Aggregation::kSum)
                             .Where(1, 0, 9)
                             .Where(0, bucket.group_value, bucket.group_value)
                             .Build();
    double exact = 0.0;
    for (auto* p : ptrs) {
      exact += static_cast<double>(p->store().EvaluateExact(exact_q));
    }
    exact_total += exact;
    int bars = static_cast<int>(bucket.estimate / 400.0);
    if (bars < 0) bars = 0;
    if (bars > 48) bars = 48;
    std::printf("region %lld | %-48.*s private=%7.0f exact=%7.0f\n",
                static_cast<long long>(bucket.group_value), bars,
                "################################################",
                bucket.estimate, exact);
  }
  std::printf("group-by privacy cost (parallel composition): eps=%.2f "
              "(one query's budget, not %zu)\n\n",
              hist->spent.epsilon, hist->buckets.size());

  // Derived aggregates over a broad range.
  RangeQuery range = RangeQueryBuilder(Aggregation::kSum)
                         .Where(2, 5, 25)
                         .Build();
  Result<DerivedResult> avg = PrivateAverage(**client, "analyst", range);
  Result<DerivedResult> sd = PrivateStdDev(**client, "analyst", range);
  if (!avg.ok() || !sd.ok()) return 1;
  std::printf("== derived aggregates (Sec. 7) ==\n");
  std::printf("AVG(Measure)    = %8.3f   (spent eps=%.2f across 2 queries)\n",
              avg->value, avg->spent.epsilon);
  std::printf("STDDEV(Measure) = %8.3f   (spent eps=%.2f across 3 queries)\n",
              sd->value, sd->spent.epsilon);

  const AnalystLedger& ledger = (*client)->ledger();
  std::printf("\nanalyst budget: spent eps %.1f of %.1f (one charge per "
              "bucket and per sub-query)\n",
              ledger.Spent("analyst")->epsilon,
              ledger.Total("analyst")->epsilon);
  return 0;
}
