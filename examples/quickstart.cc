// Quickstart: build a 4-provider federation over synthetic data, ask one
// COUNT and one SUM range query privately, and compare with ground truth.
//
//   ./quickstart

#include <cstdio>

#include "core/fedaqp.h"

using namespace fedaqp;  // NOLINT: example brevity

int main() {
  // 1. Synthesize a table and horizontally partition it across providers.
  //    In a real deployment every provider arrives with its own data; the
  //    generator stands in for that.
  SyntheticConfig cfg;
  cfg.rows = 50000;
  cfg.seed = 42;
  cfg.dims = {{"age", 74, DistributionKind::kNormal, 0.3},
              {"department", 30, DistributionKind::kZipf, 1.3},
              {"visits", 50, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts = GenerateFederatedTensors(
      cfg, /*tensor_dims=*/{0, 1, 2}, /*providers=*/4);
  if (!parts.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 parts.status().ToString().c_str());
    return 1;
  }

  // 2. Open the federation: offline clustering + Algorithm-1 metadata, a
  //    per-query privacy budget of (1.0, 1e-3) split 10/10/80 across the
  //    protocol phases, and a 20% sampling rate.
  FederationOptions opts;
  opts.cluster_capacity = 256;
  opts.n_min = 4;
  opts.protocol.per_query_budget = {1.0, 1e-3};
  opts.protocol.sampling_rate = 0.2;
  opts.protocol.total_xi = 100.0;   // analyst grant
  opts.protocol.total_psi = 0.1;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), opts);
  if (!fed.ok()) {
    std::fprintf(stderr, "open failed: %s\n", fed.status().ToString().c_str());
    return 1;
  }
  std::printf("federation: %zu providers, schema: %s, metadata: %.1f KB\n",
              (*fed)->num_providers(), (*fed)->schema().ToString().c_str(),
              (*fed)->MetadataBytes() / 1024.0);

  // 3. Ask queries.
  RangeQuery count_q = RangeQueryBuilder(Aggregation::kCount)
                           .Where(0, 20, 40)   // 20 <= age <= 40
                           .Where(1, 0, 10)    // department in [0, 10]
                           .Build();
  RangeQuery sum_q = RangeQueryBuilder(Aggregation::kSum)
                         .Where(0, 30, 60)
                         .Build();

  for (const RangeQuery& q : {count_q, sum_q}) {
    Result<QueryResponse> exact = (*fed)->QueryExact(q);
    Result<QueryResponse> priv = (*fed)->Query(q);
    if (!exact.ok() || !priv.ok()) {
      std::fprintf(stderr, "query failed\n");
      return 1;
    }
    std::printf("\n%s\n", q.ToString((*fed)->schema()).c_str());
    std::printf("  exact answer   : %.0f (scanned %zu rows)\n",
                exact->estimate, exact->breakdown.rows_scanned);
    std::printf("  private answer : %.0f (scanned %zu rows, rel.err %.2f%%)\n",
                priv->estimate, priv->breakdown.rows_scanned,
                100.0 * RelativeError(exact->estimate, priv->estimate));
    std::printf("  latency        : exact %.3f ms vs private %.3f ms\n",
                exact->breakdown.TotalSeconds() * 1e3,
                priv->breakdown.TotalSeconds() * 1e3);
  }

  // 4. Budget status: each private query charged the federation's one
  //    analyst on its client's ledger; the exact baseline charged nothing.
  const AnalystLedger& ledger = (*fed)->client().ledger();
  const PrivacyBudget spent = *ledger.Spent(Federation::kAnalyst);
  const PrivacyBudget total = *ledger.Total(Federation::kAnalyst);
  std::printf(
      "\nprivacy: spent (eps=%.2f, delta=%.4f) of (xi=%.0f, psi=%.2f)\n",
      spent.epsilon, spent.delta, total.epsilon, total.delta);
  return 0;
}
