// Micro-bench for the parallel execution engine: the same query batch is
// submitted (one SubmitAll, then Wait on every ticket) to a single-threaded
// and a thread-pooled FederationClient over the same federation, verifying
// bit-identical answers and reporting the wall-clock speedup, per-query
// latency, and network traffic. Results also land in
// BENCH_engine_speedup.json for the cross-PR perf trajectory.
//
//   --rows=N --providers=P --queries=M --threads=T --seed=S --full

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"

namespace fedaqp {
namespace bench {
namespace {

struct RunStats {
  double seconds = 0.0;           // measured wall-clock of the whole batch
  double simulated_seconds = 0.0; // simulated end-to-end latency, summed
  uint64_t network_bytes = 0;
  std::vector<double> estimates;
};

RunStats RunBatch(FederationClient* client, std::vector<QuerySpec> batch) {
  RunStats stats;
  Stopwatch timer;
  std::vector<QueryTicket> tickets = client->SubmitAll(std::move(batch));
  std::vector<Result<QueryResponse>> outcomes;
  outcomes.reserve(tickets.size());
  for (QueryTicket& ticket : tickets) outcomes.push_back(ticket.Wait());
  stats.seconds = timer.ElapsedSeconds();
  for (const auto& out : outcomes) {
    if (!out.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   out.status().ToString().c_str());
      continue;
    }
    stats.simulated_seconds += out->breakdown.TotalSeconds();
    stats.network_bytes += out->breakdown.network_bytes;
    stats.estimates.push_back(out->estimate);
  }
  return stats;
}

int Run(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t rows = flags.GetInt("rows", full ? 200000 : 40000);
  const size_t providers = flags.GetInt("providers", 4);
  const size_t queries = flags.GetInt("queries", full ? 32 : 8);
  const size_t threads = flags.GetInt("threads", providers);
  const uint64_t seed = flags.GetInt("seed", 7);

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;

  std::unique_ptr<Federation> fed =
      OpenPaperFederation(Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;

  Result<std::vector<RangeQuery>> workload =
      PaperWorkload(fed.get(), queries, 2, Aggregation::kCount, seed ^ 0xabc);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload failed: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }
  std::vector<QuerySpec> batch;
  for (const auto& q : *workload) batch.push_back({"bench", q});

  auto make_client = [&](size_t num_threads) {
    FederationClient::Options opts;
    opts.protocol = protocol;
    opts.protocol.network.latency_seconds = 1e-5;
    opts.protocol.num_threads = num_threads;
    opts.analysts = {{"bench", 1e18, 1e9}};
    return FederationClient::Create(fed->provider_ptrs(), opts);
  };

  Result<std::unique_ptr<FederationClient>> sequential = make_client(1);
  Result<std::unique_ptr<FederationClient>> pooled = make_client(threads);
  if (!sequential.ok() || !pooled.ok()) {
    std::fprintf(stderr, "client creation failed\n");
    return 1;
  }

  // Pooled first, then sequential: both clients assign the same query-ids,
  // so per-session RNG streams (and therefore answers) must coincide.
  RunStats par = RunBatch(pooled->get(), batch);
  RunStats seq = RunBatch(sequential->get(), batch);

  bool identical = seq.estimates.size() == par.estimates.size();
  for (size_t i = 0; identical && i < seq.estimates.size(); ++i) {
    identical = seq.estimates[i] == par.estimates[i];
  }
  const double speedup = par.seconds > 0.0 ? seq.seconds / par.seconds : 0.0;

  std::printf("engine_speedup: %zu providers, %zu queries, pool=%zu\n",
              providers, queries, threads);
  std::printf("  sequential  %8.2f ms wall  (%.2f ms simulated)\n",
              seq.seconds * 1e3, seq.simulated_seconds * 1e3);
  std::printf("  pooled      %8.2f ms wall  (%.2f ms simulated)\n",
              par.seconds * 1e3, par.simulated_seconds * 1e3);
  std::printf("  speedup     %8.2fx   bit-identical: %s\n", speedup,
              identical ? "yes" : "NO");
  std::printf("  network     %llu bytes/run\n",
              static_cast<unsigned long long>(par.network_bytes));

  BenchJson json("engine_speedup");
  json.Set("dataset", std::string(DatasetName(Dataset::kAdult)));
  json.Set("providers", providers);
  json.Set("queries", queries);
  json.Set("threads", threads);
  json.Set("seconds_sequential", seq.seconds);
  json.Set("seconds_pooled", par.seconds);
  json.Set("speedup", speedup);
  json.Set("query_latency_seconds_sequential",
           queries > 0 ? seq.seconds / static_cast<double>(queries) : 0.0);
  json.Set("query_latency_seconds_pooled",
           queries > 0 ? par.seconds / static_cast<double>(queries) : 0.0);
  json.Set("network_bytes", par.network_bytes);
  json.Set("bit_identical", std::string(identical ? "true" : "false"));
  json.Write();

  return identical ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::bench::Run(argc, argv); }
