// Figure 8 reproduction: SMC effect on speed-up and accuracy.
//
// Five random two-dimensional COUNT queries on Adult, each repeated five
// times with and without SMC result sharing. Reported per query: the range
// of Laplace noise injected in each mode and the speed-ups. The paper's
// shape: SMC's single perturbation spans a tighter range than the sum of
// per-provider noises, at a small constant runtime overhead.
//
//   ./fig8_smc_noise [--rows=N] [--seed=S] [--full]

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", flags.Has("full") ? 2000000 : 800000);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 8);
  const size_t kQueries = 5;
  const size_t kReps = 5;

  FederationConfig protocol;
  protocol.sampling_rate = 0.15;
  protocol.per_query_budget = {1.0, 1e-3};
  std::unique_ptr<Federation> fed =
      OpenPaperFederation(Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;

  Result<std::vector<RangeQuery>> queries =
      PaperWorkload(fed.get(), kQueries, 2, Aggregation::kCount, seed + 3);
  if (!queries.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 queries.status().ToString().c_str());
    return 1;
  }

  std::printf("# Figure 8: SMC effect on noise range and speed-up\n");
  std::printf("%-5s %-9s %14s %14s %11s\n", "query", "mode", "noise_min",
              "noise_max", "speed_up");

  for (size_t qi = 0; qi < queries->size(); ++qi) {
    const RangeQuery& q = (*queries)[qi];
    for (ReleaseMode mode : {ReleaseMode::kSmc, ReleaseMode::kLocalDp}) {
      FederationConfig config = protocol;
      config.mode = mode;
      Result<QueryOrchestrator> orch = Orchestrate(fed.get(), config);
      if (!orch.ok()) return 1;

      Result<QueryResponse> exact = orch->ExecuteExact(q);
      if (!exact.ok()) return 1;

      double noise_min = 1e300, noise_max = -1e300, speed_acc = 0.0;
      for (size_t rep = 0; rep < kReps; ++rep) {
        // Noise-free reference for this protocol run is unavailable from
        // the outside, so the injected "noise" is measured against the
        // unnoised expectation: re-run the estimate pipeline many times
        // and take deviation from the exact answer as the perturbation
        // envelope (sampling error + Laplace noise, exactly what the
        // analyst experiences).
        Result<QueryResponse> resp = ExecuteQuery(*orch, q);
        if (!resp.ok()) return 1;
        double noise = resp->estimate - exact->estimate;
        noise_min = std::min(noise_min, noise);
        noise_max = std::max(noise_max, noise);
        double speedup = resp->breakdown.TotalSeconds() > 0
                             ? exact->breakdown.TotalSeconds() /
                                   resp->breakdown.TotalSeconds()
                             : 0.0;
        speed_acc += speedup;
      }
      std::printf("Q%-4zu %-9s %14.1f %14.1f %10.2fx\n", qi + 1,
                  mode == ReleaseMode::kSmc ? "SMC" : "DP-only", noise_min,
                  noise_max, speed_acc / static_cast<double>(kReps));
    }
  }
  std::printf("# paper shape: SMC's single noise has the tighter envelope;\n"
              "# speed-ups of the two modes are comparable\n");
  return 0;
}
