#ifndef FEDAQP_FEDERATION_ORCHESTRATOR_H_
#define FEDAQP_FEDERATION_ORCHESTRATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/result.h"
#include "dp/budget.h"
#include "exec/cancel.h"
#include "exec/endpoint.h"
#include "exec/thread_pool.h"
#include "federation/aggregator.h"
#include "federation/provider.h"
#include "net/sim_network.h"
#include "smc/protocol.h"

namespace fedaqp {

/// How the final result is protected (Fig. 3 steps 6-7).
enum class ReleaseMode {
  /// Each provider perturbs its local estimate (step 6); the aggregator
  /// just sums (per-provider noise accumulates or cancels, Fig. 8).
  kLocalDp = 0,
  /// Providers hand clean estimates + sensitivities to an SMC sum/max;
  /// one Laplace perturbation with the max sensitivity (step 7).
  kSmc = 1,
};

/// How ExecuteBatchSpecs schedules the protocol's provider/coordinator steps.
enum class BatchScheduler {
  /// Dependency-tracked (query, provider, phase, shard) task graph
  /// (exec/task_graph.h): barrier-free — query q+1's cover tasks run
  /// while query q's estimates are still in flight on other providers,
  /// and shard fan-outs share the same scheduler. The default.
  kTaskGraph = 0,
  /// Lock-step phases: every query waits at a ParallelFor barrier for
  /// the slowest provider before the next phase starts. Kept as the
  /// reference scheduler that determinism tests and
  /// bench_pipeline_speedup compare the task graph against.
  kPhaseBarrier = 1,
};

/// Federation-level execution configuration.
struct FederationConfig {
  /// Total per-query privacy budget (epsilon, delta).
  PrivacyBudget per_query_budget{1.0, 1e-3};
  /// hp1/hp2/hp3 split of epsilon across allocation/sampling/estimate.
  BudgetSplit split;
  /// Fraction of the global covering set to sample, sr in (0,1).
  double sampling_rate = 0.1;
  ReleaseMode mode = ReleaseMode::kLocalDp;
  /// The analyst grant (xi, psi) a Federation registers its one analyst
  /// with (the shell likewise grants each analyst it meets). The
  /// orchestrator charges nothing; FederationClient's ledger does.
  double total_xi = 100.0;
  double total_psi = 1.0;
  NetworkOptions network;
  SmcCostModel smc_cost;
  /// Seed for aggregator-side randomness.
  uint64_t seed = 42;
  /// Worker threads running the per-provider protocol steps. <= 1 executes
  /// inline on the calling thread. Results are bit-identical for every
  /// value: each provider endpoint owns an independent RNG stream and
  /// receives its calls in the same order regardless of scheduling.
  size_t num_threads = 1;
  /// Worker shards each provider's own scan work (EvaluateExact,
  /// ScanClusters, the metadata Cover pass, the sampled-cluster scans)
  /// splits into. 0 keeps each provider's configured
  /// ClusterStoreOptions::num_scan_shards. Shard tasks run on the same
  /// `num_threads` pool as cross-provider orchestration — one bounded pool,
  /// no oversubscription — so with num_threads <= 1 sharding only changes
  /// the (max-over-shards) cost model, not wall time. Answers are
  /// bit-identical for every shard count: per-shard partials merge in
  /// fixed shard order and shard bodies draw no shared randomness.
  size_t num_scan_shards = 0;
  /// Batch scheduling strategy. Answers, ledgers, and simulated network
  /// accounting are bit-identical across schedulers (pinned by
  /// tests/task_graph_test.cc); only wall-clock scheduling differs.
  BatchScheduler scheduler = BatchScheduler::kTaskGraph;
};

/// Cost breakdown of one executed query.
struct QueryBreakdown {
  /// Max over providers (they work in parallel in the deployment); when
  /// the protocol has two provider phases (summary, estimate) this is the
  /// sum of the two per-phase maxima, matching a deployment where phases
  /// are separated by an aggregator barrier.
  double provider_compute_seconds = 0.0;
  double aggregator_compute_seconds = 0.0;
  /// Simulated network time of every protocol round.
  double network_seconds = 0.0;
  /// Deterministic work counters summed across providers.
  size_t clusters_scanned = 0;
  size_t rows_scanned = 0;
  uint64_t network_bytes = 0;
  uint64_t network_messages = 0;

  /// End-to-end simulated latency.
  double TotalSeconds() const {
    return provider_compute_seconds + aggregator_compute_seconds +
           network_seconds;
  }
};

/// The answer returned to the analyst.
struct QueryResponse {
  double estimate = 0.0;
  /// Standard error of the estimate: sqrt of the summed provider
  /// variances (independent sampling + independent noise draws). An
  /// analyst-facing extension; 0 when unavailable (SMC mode keeps the
  /// per-provider spread oblivious).
  double stderr_estimate = 0.0;
  /// False when every provider took the exact path (N^Q < N_min).
  bool approximated = false;
  /// Privacy charged for this query (parallel composition over providers).
  PrivacyBudget spent{0.0, 0.0};
  QueryBreakdown breakdown;
  /// Per-provider allocation (diagnostics; itself DP post-processing).
  std::vector<size_t> allocation;
};

/// Wall-clock profile of the most recent batch, for benches comparing
/// schedulers. `critical_path_seconds` is the longest dependency chain
/// weighted by measured per-task seconds — the latency floor no
/// parallelism can beat; under the barrier scheduler (which has no task
/// graph to walk) it equals the measured wall time. The task graph's
/// ready-queue profile lives in the metric registry (`scheduler.*`).
struct BatchRunStats {
  double wall_seconds = 0.0;
  double critical_path_seconds = 0.0;
  size_t num_tasks = 0;
};

/// One query's result inside a batch: either a response or the status that
/// stopped it (invalid query, provider failure, exhausted budget upstream).
struct BatchOutcome {
  Status status = Status::OK();
  QueryResponse response;

  bool ok() const { return status.ok(); }
};

/// One query of a spec-level batch — the unit the async session layer
/// (FederationClient) feeds the scheduler. Extends the plain RangeQuery
/// batch with the execution hints the client API threads through: the
/// exact (non-private baseline) path flag, scheduling urgency (TaskGraph
/// ready-queue order), a stage-tracked cancellation token, and an
/// optional per-query completion callback.
struct QueryExecSpec {
  RangeQuery query;
  /// Plain-text exact federated execution (the ExecuteExact baseline)
  /// instead of the private protocol: full scans + result sharing, no
  /// sessions, no budget — scheduled as (scan per provider) -> combine
  /// graph nodes, so exact and approximate queries share one scheduler.
  bool exact = false;
  /// Per-query privacy budget override (the budget planner's knob):
  /// epsilon > 0 replaces FederationConfig::per_query_budget for this
  /// query's eps split and noise calibration. epsilon <= 0 inherits the
  /// config. The caller charges whatever it admitted; this field only
  /// controls what the protocol spends.
  PrivacyBudget budget{0.0, 0.0};
  /// Session-id reservation for a query answered from the noisy-answer
  /// cache: the spec consumes its session id (keeping the noise streams
  /// of every later query identical to a run without the cache) but
  /// schedules no provider work, charges no network, and invokes no
  /// callback — the session layer delivers the cached answer itself.
  bool reserve_session_only = false;
  /// 0 = most urgent; the client maps high/normal/low to 0/1/2.
  uint8_t priority = 1;
  /// Absolute deadline on the caller's clock, used only for ready-queue
  /// ordering (earlier = sooner); infinity = none. Expiry is the
  /// caller's to enforce at admission — the scheduler never drops work.
  double deadline = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation (see exec/cancel.h): once the token fires,
  /// protocol steps that have not yet claimed their stage skip their
  /// provider calls and the query resolves to kCancelled; the stage the
  /// token froze at tells the session layer which budget share is
  /// refundable under the paper's composition accounting.
  std::shared_ptr<QueryCancelToken> cancel;
  /// Invoked exactly once with this query's final (status, response) as
  /// soon as they are known — under the task-graph scheduler that is the
  /// moment the query's combine finishes, possibly long before the rest
  /// of the batch, from whichever thread ran it (must be thread-safe).
  std::function<void(const Status&, const QueryResponse&)> on_done;
};

/// Drives the full 7-step online protocol of Fig. 3 over a set of provider
/// endpoints, charging the simulated network per message. A pure
/// executor: it admits and charges no privacy budget — FederationClient,
/// the only admission path, validates and charges each query against its
/// analyst's ledger before handing it over. Batch execution builds a
/// (query, provider, phase, shard) task graph drained by a fixed-size
/// thread pool when `FederationConfig::num_threads` > 1 (`scheduler`
/// selects the reference phase-barrier path instead; answers are
/// identical either way). ExecuteExact and the FederationClient both run
/// through ExecuteBatchSpecs.
///
/// Concurrency: one orchestrator parallelizes *across providers* but its
/// public methods are not themselves thread-safe; callers (the
/// FederationClient's admission thread) issue queries from a single
/// coordinating thread.
class QueryOrchestrator {
 public:
  /// In-process convenience: wraps each DataProvider in an
  /// InProcessEndpoint. Providers must all use the same schema and cluster
  /// capacity (the paper's shared-S requirement); validated here.
  static Result<QueryOrchestrator> Create(std::vector<DataProvider*> providers,
                                          const FederationConfig& config);

  /// Transport-agnostic construction from endpoints (same validation).
  /// Named distinctly so brace-initialized provider lists at existing call
  /// sites don't become ambiguous.
  static Result<QueryOrchestrator> CreateFromEndpoints(
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
      const FederationConfig& config);

  /// Detaches the shared scan pool from the endpoints (they fall back to
  /// inline sharding) before the pool dies with this orchestrator —
  /// endpoints are shared_ptrs a caller may legitimately outlive us with.
  /// A moved-from orchestrator holds no endpoints, so move construction
  /// stays safe; move *assignment* is deleted because it would destroy the
  /// target's pool without detaching the target's previous endpoints.
  ~QueryOrchestrator();
  QueryOrchestrator(QueryOrchestrator&&) = default;
  QueryOrchestrator& operator=(QueryOrchestrator&&) = delete;

  /// The batch executor: runs `specs` as one batch, overlapping different
  /// queries' provider work across the pool (endpoint i can be on query
  /// q+1's cover while endpoint j still runs query q's estimate — under
  /// the task-graph scheduler there is no barrier between phases at all).
  /// Charges nothing: the caller (the FederationClient's per-analyst
  /// ledger) admits. Each entry carries its own
  /// exact/approximate flavor, scheduling urgency, cancellation token,
  /// and completion callback. Under the task-graph scheduler, session
  /// cleanup (EndQuery) is pipelined as per-endpoint kRelease nodes of
  /// the same graph instead of a sequential post-batch loop; the barrier
  /// scheduler keeps the sequential reference loop (inside the measured
  /// wall). Outcomes are positionally aligned with `specs`; answers are
  /// bit-identical across schedulers, pool sizes, and batch splits for
  /// the same admission sequence.
  std::vector<BatchOutcome> ExecuteBatchSpecs(
      const std::vector<QueryExecSpec>& specs);

  /// Plain-text exact federated execution: full scans + result sharing.
  /// The baseline both for accuracy (relative error) and for the paper's
  /// Speed-UP metric. Does not consume privacy budget (it is the
  /// non-private comparator). Runs on the configured batch scheduler —
  /// under the task graph, exact scans are endpoint-bound graph nodes
  /// exactly like the private phases.
  Result<QueryResponse> ExecuteExact(const RangeQuery& query);

  const FederationConfig& config() const { return config_; }
  /// Scheduling profile of the most recent batch (see BatchRunStats).
  const BatchRunStats& last_batch_stats() const { return last_batch_stats_; }
  size_t num_providers() const { return endpoints_.size(); }
  /// The federation's shared public schema.
  const Schema& schema() const { return endpoints_[0]->info().schema; }

 private:
  QueryOrchestrator(std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
                    const FederationConfig& config);

  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints_;
  FederationConfig config_;
  Aggregator aggregator_;
  /// Lazily absent when num_threads <= 1 (ParallelFor then runs inline).
  std::unique_ptr<ThreadPool> pool_;
  /// Monotonic query-session ids handed to endpoints.
  uint64_t next_query_id_ = 1;
  /// Exact (sessionless) queries get TaskKey ids from a separate
  /// tagged namespace so interleaving them never shifts the session-id —
  /// and therefore noise-stream — sequence of private queries.
  uint64_t next_exact_id_ = 1;
  BatchRunStats last_batch_stats_;
};

}  // namespace fedaqp

#endif  // FEDAQP_FEDERATION_ORCHESTRATOR_H_
