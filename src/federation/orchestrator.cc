#include "federation/orchestrator.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "exec/in_process_endpoint.h"
#include "exec/task_graph.h"
#include "rpc/wire.h"

namespace fedaqp {

namespace {

/// Exact (sessionless) queries live in a tagged TaskKey-id namespace; see
/// QueryOrchestrator::next_exact_id_.
constexpr uint64_t kExactQueryIdTag = 1ull << 63;

/// Mutable per-query execution state of the batched protocol. Slots are
/// indexed by endpoint so that parallel phases write disjoint memory.
struct QueryState {
  bool active = false;
  bool exact = false;
  /// Consumed a session id for cache determinism but runs nothing.
  bool reserved = false;
  /// Providers noise their estimates (local-DP mode, and every
  /// progressive round); otherwise the SMC combine releases.
  bool local_noise = true;
  /// The round steps 4-7 are running (1-based) of the query's rounds (1
  /// unless progressive); `refining` is set by RunCombine when another
  /// round follows the one it combined.
  size_t round = 1;
  size_t rounds = 1;
  bool refining = false;
  uint64_t id = 0;
  uint64_t nonce = 0;
  /// Effective per-query budget (config default or the spec's override)
  /// and its split shares — per-state so a planner-assigned epsilon
  /// calibrates this query's noise without touching its batch peers.
  PrivacyBudget budget{0.0, 0.0};
  double eps_o = 0.0;
  double eps_s = 0.0;
  double eps_e = 0.0;
  double delta = 0.0;
  /// One round's share of (eps_e, delta).
  double eps_e_round = 0.0;
  double delta_round = 0.0;
  /// The driving spec (owned by the ExecuteBatchSpecs caller, alive for
  /// the whole batch): query text, urgency, cancel token, callback.
  const QueryExecSpec* spec = nullptr;
  Status status = Status::OK();
  std::unique_ptr<SimNetwork> network;
  std::vector<CoverReply> covers;
  std::vector<ProviderSummary> summaries;
  std::vector<LocalEstimate> estimates;
  std::vector<ExactScanReply> exact_scans;
  std::vector<Status> phase1_status;
  std::vector<Status> phase2_status;
  AllocationPlan plan;
  QueryResponse response;

  /// Downgrades the query to failed (keeps only the first error).
  void Fail(const Status& s) {
    if (status.ok()) status = s;
    active = false;
  }
};

/// Batch-wide constants shared by every per-unit protocol step, so the
/// barrier and task-graph schedulers run the exact same bodies — answers,
/// statuses, and SimNetwork charges stay bit-identical by construction.
struct BatchContext {
  const std::vector<std::shared_ptr<ProviderEndpoint>>* endpoints = nullptr;
  Aggregator* aggregator = nullptr;
  const FederationConfig* config = nullptr;

  size_t num_endpoints() const { return endpoints->size(); }
};

/// Steps 4-5 requests out, once per round: the allocation travels inside
/// the Approximate frame; providers below N_min get the (smaller) exact
/// bypass frame instead — a per-link Round, not a uniform one.
void ChargeEstimateRequests(const BatchContext& ctx, QueryState& st) {
  std::vector<size_t> request_bytes(ctx.num_endpoints());
  for (size_t e = 0; e < request_bytes.size(); ++e) {
    request_bytes[e] = st.covers[e].should_approximate
                           ? WireSize(ApproximateRequest{})
                           : WireSize(ExactAnswerRequest{});
  }
  st.network->Round(request_bytes);
}

/// Steps 1-2 for one (query, endpoint): cover identification + DP summary.
/// Any exception an endpoint lets escape — e.g. a sharded scan rethrowing
/// a shard failure — is converted to a per-endpoint Status here, because
/// the body often runs on pool workers whose tasks must not throw.
/// Claims the kSummaryPublished composition stage first: once any
/// endpoint passes this point, eps_O is irrevocably spent, and a
/// cancellation that lands earlier makes the call never happen.
void RunPhase1(const BatchContext& ctx, QueryState& st, size_t e) {
  if (!st.active || st.exact) return;
  QueryCancelToken* cancel = st.spec->cancel.get();
  if (cancel != nullptr && !cancel->Claim(QueryStage::kSummaryPublished)) {
    st.phase1_status[e] =
        Status::Cancelled("query cancelled before its DP summary");
    return;
  }
  ProviderEndpoint* endpoint = (*ctx.endpoints)[e].get();
  try {
    Result<CoverReply> cover =
        endpoint->Cover(CoverRequest{st.id, st.nonce, st.spec->query});
    if (!cover.ok()) {
      st.phase1_status[e] = cover.status();
      return;
    }
    SummaryRequest req;
    req.query_id = st.id;
    req.eps_allocation = st.eps_o;
    Result<SummaryReply> summary = endpoint->PublishSummary(req);
    if (!summary.ok()) {
      st.phase1_status[e] = summary.status();
      return;
    }
    st.covers[e] = std::move(cover).value();
    st.summaries[e] = std::move(summary).value().summary;
    st.summaries[e].work += st.covers[e].work;
  } catch (const std::exception& ex) {
    st.phase1_status[e] =
        Status::Internal(std::string("summary phase threw: ") + ex.what());
  } catch (...) {
    st.phase1_status[e] = Status::Internal("summary phase threw");
  }
}

/// Step 3 for one query: phase-1 gather, allocation at the aggregator,
/// steps 4-5 request fan-out. Coordinator-side; requires every phase-1
/// slot of this query to be final.
void RunAllocation(const BatchContext& ctx, QueryState& st) {
  if (!st.active || st.exact) return;
  const size_t num_endpoints = ctx.num_endpoints();
  double phase1_max = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase1_status[e].ok()) {
      st.Fail(st.phase1_status[e]);
      break;
    }
    const ProviderWorkStats& work = st.summaries[e].work;
    phase1_max = std::max(phase1_max, work.compute_seconds);
    st.response.breakdown.clusters_scanned += work.clusters_scanned;
    st.response.breakdown.rows_scanned += work.rows_scanned;
  }
  if (!st.active) return;
  st.response.breakdown.provider_compute_seconds = phase1_max;
  // Phase-1 reply gather, then the summary request/reply round-trip.
  // Sizes are value-independent, so default-constructed instances
  // measure them.
  st.network->UniformRound(num_endpoints, WireSize(CoverReply{}));
  st.network->UniformRound(num_endpoints, WireSize(SummaryRequest{}));
  st.network->UniformRound(num_endpoints, WireSize(SummaryReply{}));

  Stopwatch agg_timer;
  Result<AllocationPlan> plan =
      ctx.aggregator->Allocate(st.summaries, ctx.config->sampling_rate);
  st.response.breakdown.aggregator_compute_seconds += agg_timer.ElapsedSeconds();
  if (!plan.ok()) {
    st.Fail(plan.status());
    return;
  }
  st.plan = std::move(plan).value();
  st.response.allocation = st.plan.sample_sizes;
  ChargeEstimateRequests(ctx, st);
}

/// Steps 4-6 for one (query, endpoint) and the query's current round:
/// sample/scan/estimate or the exact bypass — or, for exact-flavored
/// specs, the sessionless full scan. Requires this query's allocation
/// (and its previous round) to be final (approximate only). Claims the
/// kEstimateReleased composition stage first: past this point the
/// estimate budget of every round that runs is spent, and cancellation
/// can refund only the rounds a progressive query never releases.
void RunPhase2(const BatchContext& ctx, QueryState& st, size_t e) {
  if (!st.active) return;
  ProviderEndpoint* endpoint = (*ctx.endpoints)[e].get();
  QueryCancelToken* cancel = st.spec->cancel.get();
  if (cancel != nullptr && !cancel->Claim(QueryStage::kEstimateReleased)) {
    st.phase2_status[e] =
        Status::Cancelled("query cancelled before its estimate");
    return;
  }
  if (st.exact) {
    try {
      Result<ExactScanReply> scan =
          endpoint->ExactFullScan(ExactScanRequest{st.spec->query});
      if (!scan.ok()) {
        st.phase2_status[e] = scan.status();
      } else {
        st.exact_scans[e] = std::move(scan).value();
      }
    } catch (const std::exception& ex) {
      st.phase2_status[e] =
          Status::Internal(std::string("exact scan threw: ") + ex.what());
    } catch (...) {
      st.phase2_status[e] = Status::Internal("exact scan threw");
    }
    return;
  }
  try {
    Result<EstimateReply> reply = [&]() -> Result<EstimateReply> {
      if (!st.covers[e].should_approximate) {
        ExactAnswerRequest req;
        req.query_id = st.id;
        req.eps_estimate = st.eps_e_round;
        req.add_noise = st.local_noise;
        return endpoint->ExactAnswer(req);
      }
      // Eq. 6 bounds every participating provider's allocation below by
      // 1; noisy ~N^Q can zero out a provider's solver share, in which
      // case the provider still samples minimally rather than falling
      // back to a full covering-set scan — one draw per round.
      ApproximateRequest req;
      req.query_id = st.id;
      req.sample_size = std::max<size_t>(st.plan.sample_sizes[e], st.rounds);
      req.eps_sampling = st.eps_s;
      req.eps_estimate = st.eps_e_round;
      req.delta = st.delta_round;
      req.add_noise = st.local_noise;
      req.round = static_cast<uint32_t>(st.round);
      req.rounds = static_cast<uint32_t>(st.rounds);
      return endpoint->Approximate(req);
    }();
    if (!reply.ok()) {
      st.phase2_status[e] = reply.status();
      return;
    }
    st.estimates[e] = std::move(reply).value().estimate;
  } catch (const std::exception& ex) {
    st.phase2_status[e] =
        Status::Internal(std::string("estimate phase threw: ") + ex.what());
  } catch (...) {
    st.phase2_status[e] = Status::Internal("estimate phase threw");
  }
}

/// True when a cancellation provably left no session anywhere: the
/// token froze at kNotStarted, so no endpoint's phase-1 claim ever
/// succeeded and Cover never ran. The session-release round is then a
/// guaranteed no-op and both schedulers skip it (a later-stage
/// cancellation may have opened sessions, so EndQuery still runs).
bool NoSessionWasOpened(const QueryState& st) {
  const QueryCancelToken* cancel = st.spec->cancel.get();
  return cancel != nullptr && cancel->cancelled() &&
         cancel->stage() == QueryStage::kNotStarted;
}

/// Exact-spec step 7: scan gather, plain-text sum, response finalization.
/// Mirrors the accounting of the historical ExecuteExact loop: provider
/// seconds are the max across endpoints, and the only wire traffic is the
/// scan request broadcast (charged at admission) plus one framed scan
/// reply per provider.
void RunExactCombine(const BatchContext& ctx, QueryState& st) {
  const size_t num_endpoints = ctx.num_endpoints();
  double provider_max = 0.0;
  double total = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase2_status[e].ok()) {
      st.Fail(st.phase2_status[e]);
      break;
    }
    const ExactScanReply& scan = st.exact_scans[e];
    total += scan.value;
    provider_max = std::max(provider_max, scan.work.compute_seconds);
    st.response.breakdown.clusters_scanned += scan.work.clusters_scanned;
    st.response.breakdown.rows_scanned += scan.work.rows_scanned;
  }
  if (!st.active) return;
  // Plain-text result sharing: one framed scan reply per provider.
  st.network->UniformRound(num_endpoints, WireSize(ExactScanReply{}));
  st.response.estimate = total;
  st.response.approximated = false;
  st.response.breakdown.provider_compute_seconds = provider_max;
  st.response.breakdown.network_seconds = st.network->stats().seconds;
  st.response.breakdown.network_bytes = st.network->stats().bytes;
  st.response.breakdown.network_messages = st.network->stats().messages;
}

/// Step 7 for one query's current round: estimate gather, combination,
/// then either the next round (a progressive query whose callback asked
/// for more sets `refining`) or session-release accounting and response
/// finalization. Coordinator-side; requires every phase-2 slot of this
/// query to be final. CombineSmc draws from the aggregator's one RNG
/// stream, so in SMC mode combines must run in submission order across
/// queries — the task graph chains them explicitly (local-DP combines are
/// pure sums and stay unchained).
void RunCombine(const BatchContext& ctx, QueryState& st) {
  st.refining = false;
  if (!st.active) return;
  if (st.exact) {
    RunExactCombine(ctx, st);
    return;
  }
  const size_t num_endpoints = ctx.num_endpoints();
  double phase2_max = 0.0;
  for (size_t e = 0; e < num_endpoints; ++e) {
    if (!st.phase2_status[e].ok()) {
      st.Fail(st.phase2_status[e]);
      break;
    }
    const ProviderWorkStats& work = st.estimates[e].work;
    phase2_max = std::max(phase2_max, work.compute_seconds);
    st.response.breakdown.clusters_scanned += work.clusters_scanned;
    st.response.breakdown.rows_scanned += work.rows_scanned;
    if (!st.estimates[e].exact) st.response.approximated = true;
  }
  if (!st.active) return;
  st.response.breakdown.provider_compute_seconds += phase2_max;

  // Estimate-reply gather (both modes: SMC still moves the clean
  // estimate struct to the aggregator; the oblivious combine charges
  // its share exchanges on top).
  st.network->UniformRound(num_endpoints, WireSize(EstimateReply{}));
  Stopwatch agg_timer;
  if (st.local_noise) {
    st.response.estimate = ctx.aggregator->CombineNoisy(st.estimates);
    double variance = 0.0;
    for (const auto& est : st.estimates) variance += est.variance;
    st.response.stderr_estimate = std::sqrt(variance);
  } else {
    SmcProtocol protocol(FixedPoint(), ctx.config->smc_cost);
    Result<double> combined = ctx.aggregator->CombineSmc(
        st.estimates, st.eps_e, protocol, st.network.get());
    if (!combined.ok()) {
      st.Fail(combined.status());
      return;
    }
    st.response.estimate = *combined;
  }
  st.response.breakdown.aggregator_compute_seconds += agg_timer.ElapsedSeconds();
  // The budget less the estimate shares of the rounds not yet released:
  // the whole budget once the last round is out.
  const double unreleased = static_cast<double>(st.rounds - st.round);
  st.response.spent = {st.budget.epsilon - unreleased * st.eps_e_round,
                       st.budget.delta - unreleased * st.delta_round};
  if (st.spec->on_round != nullptr) {
    const bool more = st.spec->on_round(ProgressiveRound{
        st.round, st.response.estimate, st.response.stderr_estimate,
        st.response.spent, st.response.breakdown.clusters_scanned});
    if (more && st.round < st.rounds) {
      ++st.round;
      ChargeEstimateRequests(ctx, st);
      st.refining = true;
      return;
    }
  }

  // Session release: EndQuery request + empty ack per endpoint. The
  // calls are issued in the cleanup loop after the batch; charged here so
  // each query's breakdown owns its full wire footprint.
  st.network->UniformRound(num_endpoints, WireSize(EndQueryRequest{st.id}));
  st.network->UniformRound(num_endpoints, WireSize(Empty{}));

  st.response.breakdown.network_seconds = st.network->stats().seconds;
  st.response.breakdown.network_bytes = st.network->stats().bytes;
  st.response.breakdown.network_messages = st.network->stats().messages;
}

/// Lock-step reference scheduler: two ParallelFor phase barriers with
/// coordinator loops between them (the pre-task-graph execution shape).
/// Exact-flavored specs skip phase 1 and allocation inside the shared
/// bodies, so both schedulers run one code path per step.
void RunBatchBarrier(const BatchContext& ctx, ThreadPool* pool,
                     std::vector<QueryState>& states) {
  const size_t num_endpoints = ctx.num_endpoints();
  // Steps 1-2 provider side. Each endpoint runs on its own ParallelFor
  // index and walks the batch in submission order.
  ParallelFor(pool, num_endpoints, [&](size_t e) {
    for (size_t q = 0; q < states.size(); ++q) {
      RunPhase1(ctx, states[q], e);
    }
  });
  // Step 3 at the aggregator (coordinator, submission order).
  for (QueryState& st : states) RunAllocation(ctx, st);
  // Steps 4-6 provider side, then step 7 (coordinator, submission order —
  // the aggregator's own RNG stream stays deterministic); once more per
  // further round of a progressive query.
  std::vector<QueryState*> live;
  for (QueryState& st : states) live.push_back(&st);
  while (!live.empty()) {
    ParallelFor(pool, num_endpoints, [&](size_t e) {
      for (QueryState* st : live) RunPhase2(ctx, *st, e);
    });
    for (QueryState* st : live) RunCombine(ctx, *st);
    live.erase(std::remove_if(live.begin(), live.end(),
                              [](const QueryState* st) { return !st->refining; }),
               live.end());
  }
  // Per-query delivery, submission order (the graph scheduler instead
  // delivers each query the moment its combine finishes).
  for (QueryState& st : states) {
    if (st.reserved) continue;
    if (st.spec->on_done) st.spec->on_done(st.status, st.response);
  }
  // Sequential session-release reference loop (the graph scheduler
  // pipelines these as per-endpoint kRelease nodes).
  for (QueryState& st : states) {
    if (st.id == 0 || st.exact || st.reserved || NoSessionWasOpened(st)) {
      continue;
    }
    for (const auto& endpoint : *ctx.endpoints) endpoint->EndQuery(st.id);
  }
}

/// A query's node urgency; `claim_stage` above kNotStarted also attaches
/// its cancel token. The token rides ONLY the endpoint-bound phase and
/// release nodes, whose bodies self-skip via their stage claim — the
/// graph's dispatch bypass (TaskOptions::claim_stage) assumes exactly
/// that. Coordinator nodes keep running normally.
TaskOptions NodeOptions(const QueryState& st,
                        QueryStage claim_stage = QueryStage::kNotStarted) {
  TaskOptions opts;
  opts.priority = st.spec->priority;
  opts.deadline = st.spec->deadline;
  if (claim_stage != QueryStage::kNotStarted) {
    opts.cancel = st.spec->cancel;
    opts.claim_stage = claim_stage;
  }
  return opts;
}

/// Adds the nodes that finish query `st` after `combine`: the outcome
/// callback and the pipelined session release (EndQuery per endpoint),
/// which overlaps other queries' phases instead of running in a
/// post-batch loop (RunCombine already charged these rounds to
/// SimNetwork). claim_stage = kSummaryPublished makes the dispatch bypass
/// fire exactly when NoSessionWasOpened() — the body is then a guaranteed
/// no-op and runs inline; a cancellation that may have left real sessions
/// still dispatches the release normally.
void AddTail(TaskGraph& graph, const BatchContext& ctx, QueryState& st,
             TaskGraph::TaskId combine) {
  const QueryExecSpec& spec = *st.spec;
  if (spec.on_done) {
    graph.Add(TaskKey{st.id, TaskPhase::kDeliver, TaskKey::kCoordinator, 0},
              [&st, &spec] {
                spec.on_done(st.status, st.response);
                return Status::OK();
              },
              {combine}, nullptr, NodeOptions(st));
  }
  if (st.exact) return;
  const TaskOptions release_opts =
      NodeOptions(st, QueryStage::kSummaryPublished);
  for (size_t e = 0; e < ctx.num_endpoints(); ++e) {
    graph.Add(TaskKey{st.id, TaskPhase::kRelease, static_cast<uint32_t>(e), 0},
              [&ctx, &st, e] {
                if (!NoSessionWasOpened(st)) {
                  (*ctx.endpoints)[e]->EndQuery(st.id);
                }
                return Status::OK();
              },
              {combine}, (*ctx.endpoints)[e].get(), release_opts);
  }
}

/// Adds one round of query `st`'s steps 4-7: an estimate node per
/// endpoint after `deps`, then the combine after them (and after
/// `prev_combine`, when given). A progressive query's combine adds the
/// next round after itself, or its tail after the last round, from
/// inside the running graph; the caller adds a one-shot query's tail.
TaskGraph::TaskId AddRound(TaskGraph& graph, const BatchContext& ctx,
                           QueryState& st,
                           const std::vector<TaskGraph::TaskId>& deps,
                           TaskGraph::TaskId prev_combine) {
  const size_t num_endpoints = ctx.num_endpoints();
  const TaskOptions estimate_opts =
      NodeOptions(st, QueryStage::kEstimateReleased);
  std::vector<TaskGraph::TaskId> combine_deps(num_endpoints);
  for (size_t e = 0; e < num_endpoints; ++e) {
    combine_deps[e] = graph.Add(
        TaskKey{st.id, TaskPhase::kEstimate, static_cast<uint32_t>(e), 0},
        [&ctx, &st, e] {
          RunPhase2(ctx, st, e);
          return st.phase2_status[e];
        },
        deps, (*ctx.endpoints)[e].get(), estimate_opts);
  }
  if (prev_combine != TaskGraph::kNoTask) combine_deps.push_back(prev_combine);
  return graph.Add(
      TaskKey{st.id, TaskPhase::kCombine, TaskKey::kCoordinator, 0},
      [&graph, &ctx, &st] {
        RunCombine(ctx, st);
        if (st.refining) {
          AddRound(graph, ctx, st, {TaskGraph::CurrentTask()},
                   TaskGraph::kNoTask);
        } else if (st.spec->on_round != nullptr) {
          AddTail(graph, ctx, st, TaskGraph::CurrentTask());
        }
        return st.status;
      },
      combine_deps, nullptr, NodeOptions(st));
}

/// Barrier-free scheduler: one dependency graph over every (query,
/// provider, phase) node of the batch, drained by the shared pool. Within
/// an approximate query: phase1(e) -> allocate -> phase2(e) -> combine ->
/// {deliver, endquery(e)}, with phase2(e) -> combine repeated per round
/// of a progressive query; an exact query is just scan(e) -> combine ->
/// deliver. Across queries, only SMC-mode combines are chained (the
/// aggregator's single RNG stream); everything else overlaps freely, in
/// ready-queue urgency order (per-spec priority, then deadline). Shard
/// fan-outs inside endpoint calls become child work of their phase node
/// (see ShardedScanExecutor::ForEachShard).
void RunBatchTaskGraph(const BatchContext& ctx, ThreadPool* pool,
                       std::vector<QueryState>& states,
                       BatchRunStats* stats) {
  const size_t num_endpoints = ctx.num_endpoints();
  TaskGraph graph(pool);
  TaskGraph::TaskId prev_combine = TaskGraph::kNoTask;
  for (QueryState& st : states) {
    if (!st.active) {
      // Refused at admission (or a cache reservation): nothing to
      // schedule, deliver immediately (the barrier path delivers these
      // in its per-query loop).
      if (!st.reserved && st.spec->on_done) {
        st.spec->on_done(st.status, st.response);
      }
      continue;
    }
    std::vector<TaskGraph::TaskId> estimate_deps;
    if (!st.exact) {
      const TaskOptions summary_opts =
          NodeOptions(st, QueryStage::kSummaryPublished);
      std::vector<TaskGraph::TaskId> phase1(num_endpoints);
      for (size_t e = 0; e < num_endpoints; ++e) {
        phase1[e] = graph.Add(
            TaskKey{st.id, TaskPhase::kSummary, static_cast<uint32_t>(e), 0},
            [&ctx, &st, e] {
              RunPhase1(ctx, st, e);
              return st.phase1_status[e];
            },
            {}, (*ctx.endpoints)[e].get(), summary_opts);
      }
      estimate_deps.push_back(graph.Add(
          TaskKey{st.id, TaskPhase::kAllocate, TaskKey::kCoordinator, 0},
          [&ctx, &st] {
            RunAllocation(ctx, st);
            return st.status;
          },
          phase1, nullptr, NodeOptions(st)));
    }
    // Chain combines only when the combine itself draws from the
    // aggregator's RNG (SMC mode): the local-DP combine is a pure sum,
    // so a high-priority query's release never waits behind earlier
    // submissions.
    const bool smc = !st.exact && !st.local_noise;
    const TaskGraph::TaskId combine = AddRound(
        graph, ctx, st, estimate_deps, smc ? prev_combine : TaskGraph::kNoTask);
    if (smc) prev_combine = combine;
    if (st.spec->on_round == nullptr) AddTail(graph, ctx, st, combine);
  }
  graph.Run();
  stats->critical_path_seconds = graph.CriticalPathSeconds();
  stats->num_tasks = graph.num_tasks();
}

}  // namespace

QueryOrchestrator::QueryOrchestrator(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const FederationConfig& config)
    : endpoints_(std::move(endpoints)),
      config_(config),
      aggregator_(config.seed) {
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }
  // Provider-side scans share the orchestration pool (in-process endpoints
  // only; remote backends ignore the hint). pool_'s address survives the
  // orchestrator being moved, so the endpoints' pointers stay valid.
  for (const auto& endpoint : endpoints_) {
    endpoint->ConfigureScanSharding(pool_.get(), config_.num_scan_shards);
  }
}

QueryOrchestrator::~QueryOrchestrator() {
  for (const auto& endpoint : endpoints_) {
    endpoint->ConfigureScanSharding(nullptr, config_.num_scan_shards);
  }
}

Result<QueryOrchestrator> QueryOrchestrator::Create(
    std::vector<DataProvider*> providers, const FederationConfig& config) {
  FEDAQP_ASSIGN_OR_RETURN(std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
                          MakeInProcessEndpoints(providers));
  return CreateFromEndpoints(std::move(endpoints), config);
}

Result<QueryOrchestrator> QueryOrchestrator::CreateFromEndpoints(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const FederationConfig& config) {
  if (endpoints.empty()) {
    return Status::InvalidArgument("federation: need at least one provider");
  }
  for (const auto& e : endpoints) {
    if (e == nullptr) {
      return Status::InvalidArgument("federation: null endpoint");
    }
  }
  const EndpointInfo& first = endpoints[0]->info();
  for (const auto& e : endpoints) {
    if (!(e->info().schema == first.schema)) {
      return Status::FailedPrecondition(
          "federation: providers must share one public schema");
    }
    if (e->info().cluster_capacity != first.cluster_capacity) {
      return Status::FailedPrecondition(
          "federation: providers must agree on the cluster capacity S "
          "(Sec. 7 of the paper)");
    }
  }
  if (config.sampling_rate <= 0.0 || config.sampling_rate >= 1.0) {
    return Status::InvalidArgument("federation: sampling rate must be in (0,1)");
  }
  FEDAQP_RETURN_IF_ERROR(config.per_query_budget.Validate());
  FEDAQP_RETURN_IF_ERROR(config.split.Validate());
  return QueryOrchestrator(std::move(endpoints), config);
}

std::vector<BatchOutcome> QueryOrchestrator::ExecuteBatchSpecs(
    const std::vector<QueryExecSpec>& specs) {
  const size_t num_endpoints = endpoints_.size();
  const size_t num_queries = specs.size();

  BatchContext ctx;
  ctx.endpoints = &endpoints_;
  ctx.aggregator = &aggregator_;
  ctx.config = &config_;

  // Admission (coordinator, in submission order — deterministic). The
  // re-validation is defense-in-depth for direct callers; queries routed
  // through the FederationClient arrive already validated. Session ids
  // come from the submission sequence alone (exact specs draw from their
  // own tagged namespace), so the same admission sequence yields the
  // same noise streams regardless of how it was split into batches.
  std::vector<QueryState> states(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& st = states[q];
    st.spec = &specs[q];
    st.exact = specs[q].exact;
    Status valid = specs[q].query.Validate(endpoints_[0]->info().schema);
    if (!valid.ok()) {
      st.Fail(valid);
      continue;
    }
    st.budget = specs[q].budget.epsilon > 0.0 ? specs[q].budget
                                              : config_.per_query_budget;
    st.eps_o = config_.split.hp_allocation * st.budget.epsilon;
    st.eps_s = config_.split.hp_sampling * st.budget.epsilon;
    st.eps_e = config_.split.hp_estimate * st.budget.epsilon;
    st.delta = st.budget.delta;
    if (specs[q].on_round != nullptr) {
      st.rounds = std::max<size_t>(1, specs[q].rounds);
    } else {
      st.local_noise = config_.mode == ReleaseMode::kLocalDp;
    }
    st.eps_e_round = st.eps_e / static_cast<double>(st.rounds);
    st.delta_round = st.delta / static_cast<double>(st.rounds);
    if (specs[q].reserve_session_only) {
      // Cache-served query: burn the session id it would have used so
      // every later query's (provider seed, session id)-keyed noise
      // stream matches a cache-less run of the same admission sequence.
      // Nothing is scheduled and nothing is charged to the network.
      st.reserved = true;
      st.id = next_query_id_++;
      continue;
    }
    st.active = true;
    st.network = std::make_unique<SimNetwork>(config_.network);
    st.phase2_status.assign(num_endpoints, Status::OK());
    if (st.exact) {
      st.id = kExactQueryIdTag | next_exact_id_++;
      st.exact_scans.resize(num_endpoints);
      // Scan request broadcast (sessionless; no cover round).
      st.network->UniformRound(num_endpoints,
                               WireSize(ExactScanRequest{specs[q].query}));
      continue;
    }
    st.id = next_query_id_++;
    // Session nonce: ties the providers' per-session noise streams to
    // this orchestrator's seed, so coordinators with different seeds
    // never replay each other's noise (same-id sessions included).
    st.nonce = MixSeeds(config_.seed, st.id);
    st.covers.resize(num_endpoints);
    st.summaries.resize(num_endpoints);
    st.estimates.resize(num_endpoints);
    st.phase1_status.assign(num_endpoints, Status::OK());

    // Step 1: broadcast the framed cover request (it carries the query
    // plus the session ids). All network rounds charge the wire codec's
    // exact framed sizes, so the simulator's byte counts equal what the
    // RPC transport moves for the same protocol by construction.
    st.network->UniformRound(
        num_endpoints,
        WireSize(CoverRequest{st.id, st.nonce, specs[q].query}));
  }

  // Run the batch under the configured scheduler. Both run the same
  // per-unit bodies; only their scheduling (and therefore wall time)
  // differs — answers, statuses, and per-query SimNetwork charges are
  // bit-identical. Both schedulers' walls include session cleanup (the
  // graph runs it as pipelined kRelease nodes, the barrier as its
  // sequential reference loop).
  Stopwatch batch_timer;
  last_batch_stats_ = BatchRunStats{};
  if (config_.scheduler == BatchScheduler::kPhaseBarrier) {
    RunBatchBarrier(ctx, pool_.get(), states);
    last_batch_stats_.wall_seconds = batch_timer.ElapsedSeconds();
    // No task graph to walk: the measured wall IS the critical path.
    last_batch_stats_.critical_path_seconds = last_batch_stats_.wall_seconds;
  } else {
    RunBatchTaskGraph(ctx, pool_.get(), states, &last_batch_stats_);
    last_batch_stats_.wall_seconds = batch_timer.ElapsedSeconds();
  }

  // Outcome packaging (session cleanup already ran under the scheduler).
  std::vector<BatchOutcome> outcomes(num_queries);
  for (size_t q = 0; q < num_queries; ++q) {
    QueryState& st = states[q];
    outcomes[q].status = st.status;
    if (st.status.ok()) outcomes[q].response = std::move(st.response);
  }
  return outcomes;
}

Result<QueryResponse> QueryOrchestrator::ExecuteExact(
    const RangeQuery& query) {
  std::vector<QueryExecSpec> specs(1);
  specs[0].query = query;
  specs[0].exact = true;
  std::vector<BatchOutcome> outcomes = ExecuteBatchSpecs(specs);
  if (!outcomes[0].status.ok()) return outcomes[0].status;
  return std::move(outcomes[0].response);
}

}  // namespace fedaqp
