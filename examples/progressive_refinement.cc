// Online aggregation demo: a dashboard asks for a quick first answer that
// refines round by round (progressive mode), then an error-bounded query
// that stops as soon as the released standard error is below a target —
// saving both scan work and privacy budget.
//
//   ./progressive_refinement

#include <cstdio>

#include "core/fedaqp.h"

using namespace fedaqp;  // NOLINT: example brevity

int main() {
  SyntheticConfig cfg;
  cfg.rows = 120000;
  cfg.seed = 2718;
  cfg.dims = {{"day", 365, DistributionKind::kUniform, 0.0},
              {"store", 120, DistributionKind::kZipf, 1.3},
              {"amount", 60, DistributionKind::kNormal, 0.4}};
  Result<std::vector<Table>> parts = GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
  if (!parts.ok()) return 1;

  std::vector<std::unique_ptr<DataProvider>> providers;
  std::vector<DataProvider*> ptrs;
  for (size_t i = 0; i < parts->size(); ++i) {
    DataProvider::Options popts;
    popts.storage.cluster_capacity = 512;
    popts.storage.layout = ClusterLayout::kShuffled;
    popts.n_min = 8;
    popts.seed = 33 + i;
    Result<std::unique_ptr<DataProvider>> p =
        DataProvider::Create((*parts)[i], popts);
    if (!p.ok()) return 1;
    ptrs.push_back(p->get());
    providers.push_back(std::move(p).value());
  }

  FederationClient::Options options;
  options.protocol.per_query_budget = {2.0, 1e-3};
  options.protocol.sampling_rate = 0.3;
  options.analysts = {{"dashboard", 100.0, 1.0}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(ptrs, options);
  if (!client.ok()) return 1;

  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 90, 270)   // Q2-Q3
                     .Where(2, 10, 50)
                     .Build();
  double truth = 0.0;
  for (auto* p : ptrs) {
    truth += static_cast<double>(p->store().EvaluateExact(q));
  }

  // Runs `q` as a 5-round progressive query stopping at `target` (0: no
  // target) and prints each released round.
  auto run = [&](double target) -> Result<QueryResponse> {
    QuerySpec spec{"dashboard", q};
    spec.kind = QueryKind::kProgressive;
    spec.progressive_rounds = 5;
    spec.target_relative_stderr = target;
    QueryTicket ticket = (*client)->Submit(std::move(spec));
    Result<QueryResponse> answer = ticket.Wait();
    if (!answer.ok()) return answer;
    std::printf("%-6s %12s %10s %10s %12s %10s\n", "round", "estimate",
                "stderr", "err%", "eps spent", "clusters");
    for (const ProgressiveRound& r : ticket.Refinements()) {
      std::printf("%-6zu %12.0f %10.0f %9.2f%% %12.3f %10zu\n", r.round,
                  r.estimate, r.stderr_estimate,
                  100.0 * RelativeError(truth, r.estimate), r.spent.epsilon,
                  r.clusters_scanned);
    }
    std::printf("rows scanned %zu; eps refunded %.3f\n",
                answer->breakdown.rows_scanned,
                ticket.Stats().refunded.epsilon);
    return answer;
  };

  std::printf("== progressive refinement (online aggregation) ==\n");
  std::printf("true answer (for reference): %.0f\n\n", truth);
  Result<QueryResponse> full = run(0.0);
  if (!full.ok()) {
    std::fprintf(stderr, "progressive failed: %s\n",
                 full.status().ToString().c_str());
    return 1;
  }

  std::printf("\n== error-bounded execution (stop at 30%% stderr) ==\n");
  Result<QueryResponse> bounded = run(0.30);
  if (!bounded.ok()) return 1;
  std::printf("estimate %.0f +- %.0f; eps spent %.3f of %.3f\n",
              bounded->estimate, bounded->stderr_estimate,
              bounded->spent.epsilon,
              options.protocol.per_query_budget.epsilon);
  std::printf("\nstopping early returns the unreleased rounds' budget to\n"
              "the analyst and never scans their clusters: the quick answer\n"
              "cost only a fraction of the full query's epsilon and rows.\n");
  return 0;
}
