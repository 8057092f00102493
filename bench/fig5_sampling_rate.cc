// Figure 5 reproduction: relative error and speed-up vs sampling rate.
//
// Workloads (m, 4) per dataset and aggregation, sampling rate swept over
// {5, 10, 15, 20}%. The paper's shape: error falls and speed-up falls as
// the rate grows (accuracy/speed trade-off), with Amazon showing larger
// speed-ups than Adult.
//
//   ./fig5_sampling_rate [--rows=N] [--queries=M] [--seed=S] [--full]

#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t queries = flags.GetInt("queries", full ? 100 : 20);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 5);

  std::printf("# Figure 5: sampling-rate-based analysis\n");
  std::printf("%-12s %-6s %-6s %11s %11s %11s\n", "dataset", "agg", "sr%",
              "mean90_err%", "speed_up", "work_ratio");

  for (Dataset dataset : {Dataset::kAdult, Dataset::kAmazon}) {
    const size_t rows = flags.GetInt(
        "rows", dataset == Dataset::kAdult ? (full ? 2400000 : 1200000)
                                           : (full ? 5000000 : 2500000));
    FederationConfig protocol;
    protocol.per_query_budget = {1.0, 1e-3};
    protocol.sampling_rate = 0.1;
    std::unique_ptr<Federation> fed =
        OpenPaperFederation(dataset, rows, providers, seed, protocol);
    if (!fed) return 1;

    for (Aggregation agg : {Aggregation::kSum, Aggregation::kCount}) {
      Result<std::vector<RangeQuery>> workload =
          PaperWorkload(fed.get(), queries, 4, agg, seed + 13);
      if (!workload.ok()) {
        std::fprintf(stderr, "workload failed: %s\n",
                     workload.status().ToString().c_str());
        continue;
      }
      for (double sr : {0.05, 0.10, 0.15, 0.20}) {
        FederationConfig config = protocol;
        config.sampling_rate = sr;
        Result<std::unique_ptr<FederationClient>> client =
            Client(fed->provider_ptrs(), config);
        if (!client.ok()) return 1;
        Result<std::vector<QueryMeasurement>> ms =
            RunWorkload(**client, kBenchAnalyst, *workload);
        if (!ms.ok()) return 1;
        WorkloadMetrics metrics = Summarize(*ms);
        std::printf("%-12s %-6s %-6.0f %10.2f%% %10.2fx %10.2fx\n",
                    DatasetName(dataset), AggName(agg), sr * 100.0,
                    100.0 * metrics.trimmed_mean_relative_error, metrics.mean_speedup,
                    metrics.mean_work_ratio);
      }
    }
  }
  std::printf("# paper shape: error falls and speed-up falls as sr grows;\n"
              "# amazon speed-ups exceed adult's (bigger tables win more)\n");
  return 0;
}
