#include "exec/federation_client.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "exec/in_process_endpoint.h"
#include "federation/provider.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/fair_queue.h"

namespace fedaqp {

namespace {

obs::Counter& SubmittedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("client.submitted");
  return *c;
}
obs::Counter& DeliveredCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("client.delivered");
  return *c;
}
obs::Counter& RoundsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("client.admission_rounds");
  return *c;
}
obs::Histogram& QueryWallHistogram() {
  static obs::Histogram* h = obs::MetricRegistry::Global().GetHistogram(
      "client.query_wall_seconds");
  return *h;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("serve.evictions");
  return *c;
}

}  // namespace

namespace internal {

/// Shared state behind a QueryTicket: written by the client's admission
/// thread (and, under the task-graph scheduler, by whichever worker runs
/// the query's deliver node), read by any number of handle holders.
struct TicketState {
  QuerySpec spec;
  uint64_t seq = 0;
  std::shared_ptr<QueryCancelToken> cancel;
  double submit_seconds = 0.0;
  double deadline_abs = std::numeric_limits<double>::infinity();
  /// Set by the admission thread before execution; tells Deliver whether
  /// a cancellation has anything to refund.
  bool charged = false;
  /// The (eps, delta) this query charges (override, planner, or config);
  /// the refund base when a charged query is cancelled, the recorded
  /// saving when the cache serves it free.
  PrivacyBudget effective{0.0, 0.0};
  /// Cache decision for this ticket (kMiss with no purchase when the
  /// cache is off). Admission-thread only until delivery.
  NoisyAnswerCache::Decision cache;
  bool from_cache = false;
  uint32_t sub_answers = 0;

  mutable std::mutex m;
  std::condition_variable cv;
  bool done = false;
  /// True once the admission-round stats fields are final. Set with
  /// `done` for every path except round-executed queries, which are
  /// delivered from a graph worker and sealed by RunGroup right after
  /// the round returns; Stats() blocks on the seal once done.
  bool stats_sealed = false;
  Status status = Status::OK();
  QueryResponse response;
  TicketStats stats;
  std::vector<ProgressiveRound> rounds;
  /// Progressive only: a cancellation asked refinement to stop after the
  /// round in flight; and the last released round ends the query (its
  /// callback declined another). Both guarded by `m`, which orders them
  /// against Cancel().
  bool stop_requested = false;
  bool last_round_released = false;
  /// A composed query's executed-remainder outcome, stashed by its graph
  /// callback and folded into the final answer post-round.
  Status rem_status = Status::OK();
  QueryResponse rem_response;
};

}  // namespace internal

using internal::TicketState;

namespace {

/// The refundable share of the per-query budget when a charged query is
/// cancelled at `stage` — the paper's composition accounting: only the
/// releases that actually happened consumed anything. Publishing the DP
/// summaries spends eps_O (pure Laplace, no delta); the sampling and
/// estimate shares (and the smooth-sensitivity delta) are spent by the
/// estimate release.
PrivacyBudget RefundableShare(const FederationConfig& config,
                              const PrivacyBudget& full, QueryStage stage) {
  switch (stage) {
    case QueryStage::kNotStarted:
      return full;
    case QueryStage::kSummaryPublished:
      return PrivacyBudget{
          (config.split.hp_sampling + config.split.hp_estimate) * full.epsilon,
          full.delta};
    case QueryStage::kEstimateReleased:
      break;
  }
  return PrivacyBudget{0.0, 0.0};
}

bool NonZero(const PrivacyBudget& b) {
  return b.epsilon > 0.0 || b.delta > 0.0;
}

/// Rounds a progressive spec runs (0 means 1).
size_t RoundsOf(const QuerySpec& spec) {
  return std::max<size_t>(1, spec.progressive_rounds);
}

/// Cached parts folded, in part order, into one answer: estimates and
/// variances add over disjoint sub-ranges.
struct FoldedParts {
  double estimate = 0.0;
  double variance = 0.0;
  bool approximated = false;
  /// Some part has no outcome yet.
  bool pending = false;
  /// The first part without a successful outcome (a pending one fails
  /// as Internal).
  Status failed = Status::OK();
};

FoldedParts FoldParts(const std::vector<std::shared_ptr<CacheEntry>>& parts) {
  FoldedParts folded;
  for (const auto& part : parts) {
    std::lock_guard<std::mutex> lock(part->m);
    if (!part->terminal || !part->status.ok()) {
      folded.pending = folded.pending || !part->terminal;
      if (folded.failed.ok()) {
        folded.failed = part->terminal
                            ? part->status
                            : Status::Internal("cache: part not terminal");
      }
      continue;
    }
    folded.estimate += part->estimate;
    folded.variance += part->variance;
    folded.approximated = folded.approximated || part->approximated;
  }
  return folded;
}

/// Publishes a purchased query's outcome into its cache entry.
void PublishOutcome(CacheEntry& entry, const Status& status,
                    const QueryResponse& response) {
  NoisyAnswerCache::Publish(
      entry, status, response.estimate,
      response.stderr_estimate * response.stderr_estimate,
      response.approximated);
}

}  // namespace

// ---------------------------------------------------------------- QueryTicket

QueryTicket::QueryTicket() = default;
QueryTicket::QueryTicket(const QueryTicket&) = default;
QueryTicket::QueryTicket(QueryTicket&&) noexcept = default;
QueryTicket& QueryTicket::operator=(const QueryTicket&) = default;
QueryTicket& QueryTicket::operator=(QueryTicket&&) noexcept = default;
QueryTicket::~QueryTicket() = default;

QueryTicket::QueryTicket(std::shared_ptr<internal::TicketState> state)
    : state_(std::move(state)) {}

uint64_t QueryTicket::id() const { return state_ ? state_->seq : 0; }

const QuerySpec& QueryTicket::spec() const {
  static const QuerySpec kEmpty;
  return state_ ? state_->spec : kEmpty;
}

bool QueryTicket::Done() const {
  if (!state_) return false;
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->done;
}

Result<QueryResponse> QueryTicket::Wait() {
  if (!state_) return Status::FailedPrecondition("ticket: empty handle");
  std::unique_lock<std::mutex> lock(state_->m);
  state_->cv.wait(lock, [&] { return state_->done; });
  if (!state_->status.ok()) return state_->status;
  return state_->response;
}

Result<QueryResponse> QueryTicket::TryGet() const {
  if (!state_) return Status::FailedPrecondition("ticket: empty handle");
  std::lock_guard<std::mutex> lock(state_->m);
  if (!state_->done) return Status::Unavailable("ticket: query still pending");
  if (!state_->status.ok()) return state_->status;
  return state_->response;
}

bool QueryTicket::Cancel() {
  if (!state_) return false;
  // Fire the token first: this linearizes against the protocol bodies'
  // stage claims, freezing the stage the refund is computed from.
  const QueryStage stage = state_->cancel->Cancel();
  std::lock_guard<std::mutex> lock(state_->m);
  if (state_->done) return false;  // outcome already delivered
  if (state_->spec.kind != QueryKind::kProgressive ||
      stage < QueryStage::kEstimateReleased) {
    return stage < QueryStage::kEstimateReleased;
  }
  // Round 1 is out or in flight: the round callback, which runs under
  // this lock, stops after the round in flight. That changes the outcome
  // only when the last released round did not already end the query and
  // a round remains after the one in flight.
  if (state_->last_round_released) return false;
  state_->stop_requested = true;
  return state_->rounds.size() + 1 < RoundsOf(state_->spec);
}

TicketStats QueryTicket::Stats() const {
  if (!state_) return TicketStats{};
  std::unique_lock<std::mutex> lock(state_->m);
  // A delivered-but-unsealed ticket is mid-hand-off from its admission
  // round; wait the (tiny) window out so every field is final once Done()
  // or Wait() observed completion. Pending tickets return current zeros.
  state_->cv.wait(lock,
                  [&] { return !state_->done || state_->stats_sealed; });
  return state_->stats;
}

std::vector<ProgressiveRound> QueryTicket::Refinements() const {
  if (!state_) return {};
  std::lock_guard<std::mutex> lock(state_->m);
  return state_->rounds;
}

// ----------------------------------------------------------- FederationClient

Result<std::unique_ptr<FederationClient>> FederationClient::CreateImpl(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const Options& options, std::vector<std::vector<Value>> cut_points) {
  Result<QueryOrchestrator> orchestrator =
      QueryOrchestrator::CreateFromEndpoints(std::move(endpoints),
                                             options.protocol);
  if (!orchestrator.ok()) return orchestrator.status();
  std::unique_ptr<FederationClient> client(new FederationClient(
      std::move(orchestrator).value(), options, std::move(cut_points)));
  for (const auto& grant : options.analysts) {
    FEDAQP_RETURN_IF_ERROR(
        client->RegisterAnalyst(grant.analyst, grant.xi, grant.psi));
    client->SetAnalystWeight(grant.analyst, grant.weight);
  }
  return client;
}

Result<std::unique_ptr<FederationClient>> FederationClient::Create(
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
    const Options& options) {
  return CreateImpl(std::move(endpoints), options, /*cut_points=*/{});
}

Result<std::unique_ptr<FederationClient>> FederationClient::Create(
    std::vector<DataProvider*> providers, const Options& options) {
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
      MakeInProcessEndpoints(providers));
  std::vector<std::vector<Value>> cut_points;
  if (options.enable_cache && options.cache_align_to_metadata &&
      !providers.empty()) {
    // Union of every provider's cluster cut points per dimension — the
    // coordinator-visible layout the demotion heuristic aligns to.
    cut_points.resize(providers[0]->store().schema().num_dims());
    for (size_t d = 0; d < cut_points.size(); ++d) {
      std::vector<Value>& merged = cut_points[d];
      for (DataProvider* provider : providers) {
        std::vector<Value> pts = provider->metadata().CutPoints(d);
        merged.insert(merged.end(), pts.begin(), pts.end());
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    }
  }
  return CreateImpl(std::move(endpoints), options, std::move(cut_points));
}

FederationClient::FederationClient(QueryOrchestrator orchestrator,
                                   Options options,
                                   std::vector<std::vector<Value>> cut_points)
    : options_(std::move(options)),
      orchestrator_(std::move(orchestrator)),
      live_ledger_{
          [this](const std::string& analyst) {
            return budget_->Knows(analyst);
          },
          [this](const std::string& analyst) {
            return budget_->Remaining(analyst);
          }},
      planner_(options_.protocol.per_query_budget),
      paused_(options_.start_paused) {
  // Attach before any registration or charge: the audit log must see the
  // ledger's full history for Replay to reproduce it.
  ledger_.AttachAuditLog(&audit_log_);
  // All admission-path budget ops route through budget_: the in-process
  // ledger by default, the shared ledger service when configured.
  budget_ = options_.shared_ledger != nullptr ? options_.shared_ledger.get()
                                              : &local_budget_;
  if (options_.enable_cache) {
    NoisyAnswerCache::Options copts;
    copts.cut_points = std::move(cut_points);
    cache_ = std::make_unique<NoisyAnswerCache>(orchestrator_.schema(),
                                                std::move(copts));
  }
  admission_ = std::thread([this] { AdmissionLoop(); });
}

FederationClient::~FederationClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;  // overrides Pause: the drain must finish
  }
  cv_.notify_all();
  admission_.join();
}

QueryTicket FederationClient::EnqueueLocked(QuerySpec spec) {
  SubmittedCounter().Add();
  auto ticket = std::make_shared<TicketState>();
  ticket->spec = std::move(spec);
  if (ticket->spec.weight > 0) {
    // A weight update rides the arrival sequence: replays that submit
    // the same specs in the same order see the same weights.
    fair_queue_.SetWeight(ticket->spec.analyst, ticket->spec.weight);
  }
  ticket->cancel = std::make_shared<QueryCancelToken>();
  ticket->seq = next_seq_++;
  ticket->submit_seconds = clock_.ElapsedSeconds();
  if (ticket->spec.deadline_seconds > 0.0) {
    ticket->deadline_abs =
        ticket->submit_seconds + ticket->spec.deadline_seconds;
  }
  if (stopping_) {
    ticket->done = true;
    ticket->stats_sealed = true;
    ticket->status = Status::Unavailable("client: shutting down");
  } else {
    pending_.push_back(ticket);
  }
  return QueryTicket(ticket);
}

QueryTicket FederationClient::Submit(QuerySpec spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  QueryTicket ticket = EnqueueLocked(std::move(spec));
  cv_.notify_one();
  return ticket;
}

std::vector<QueryTicket> FederationClient::SubmitAll(
    std::vector<QuerySpec> specs) {
  std::vector<QueryTicket> tickets;
  tickets.reserve(specs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  for (QuerySpec& spec : specs) {
    tickets.push_back(EnqueueLocked(std::move(spec)));
  }
  cv_.notify_one();
  return tickets;
}

void FederationClient::Pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void FederationClient::Resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

void FederationClient::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [&] {
    return !busy_ && (pending_.empty() || (paused_ && !stopping_));
  });
}

uint64_t FederationClient::num_batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return num_batches_;
}

Status FederationClient::RegisterAnalyst(const std::string& analyst, double xi,
                                         double psi) {
  return budget_->Register(analyst, xi, psi);
}

void FederationClient::SetAnalystWeight(const std::string& analyst,
                                        uint32_t weight) {
  std::lock_guard<std::mutex> lock(mutex_);
  fair_queue_.SetWeight(analyst, weight);
}

std::vector<uint64_t> FederationClient::admission_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return admitted_order_;
}

FederationClient::AdmissionDecision FederationClient::Admit(
    const QuerySpec& spec, uint64_t seq, bool cancelled, bool expired,
    const LedgerView& ledger, NoisyAnswerCache* cache) const {
  AdmissionDecision d;
  if (cancelled) {
    d.refusal = Status::Cancelled("client: cancelled before execution");
    return d;
  }
  if (expired) {
    d.refusal =
        Status::DeadlineExceeded("client: deadline passed before admission");
    return d;
  }
  const bool exact = spec.kind == QueryKind::kExact;
  if (!exact) {
    Result<bool> known = ledger.knows(spec.analyst);
    if (!known.ok()) {
      // Shared-ledger backend unreachable: fail with the transport's
      // status, never "unknown analyst".
      d.refusal = known.status();
      return d;
    }
    if (!*known) {
      d.refusal =
          Status::NotFound("client: unknown analyst '" + spec.analyst + "'");
      return d;
    }
  }
  d.refusal = spec.query.Validate(orchestrator_.schema());
  if (!d.refusal.ok() || exact) return d;
  if (spec.kind == QueryKind::kProgressive) {
    if (spec.progressive_rounds > kMaxProgressiveRounds) {
      d.refusal = Status::InvalidArgument(
          "client: progressive_rounds above " +
          std::to_string(kMaxProgressiveRounds));
      return d;
    }
    if (!(spec.target_relative_stderr >= 0.0)) {
      d.refusal = Status::InvalidArgument(
          "client: target_relative_stderr must be >= 0");
      return d;
    }
  }
  // The charge is part of the admission sequence, so replays (which see
  // the same ledger states in the same order) agree. Remaining is read
  // only when the horizon rule applies; when it fails, the default does.
  if (spec.budget.epsilon > 0.0) {
    d.refusal = spec.budget.Validate();
    if (!d.refusal.ok()) return d;
    d.charge = spec.budget;
  } else {
    d.charge = options_.protocol.per_query_budget;
    if (options_.plan_horizon > 0) {
      Result<PrivacyBudget> left = ledger.remaining(spec.analyst);
      if (left.ok()) {
        d.charge = planner_.NextQueryBudget(*left, options_.plan_horizon);
      }
    }
  }
  // Exact repeats and fully composed ranges are served for zero fresh
  // budget; a partial overlap executes (and charges) only its uncovered
  // remainder.
  if (cache != nullptr && spec.kind == QueryKind::kApproximate) {
    d.cache = cache->Resolve(spec.analyst, spec.query, d.charge, seq);
  }
  return d;
}

BudgetPlanner::WorkloadPlan FederationClient::PlanOnSnapshot(
    const std::string& analyst, const std::vector<RangeQuery>& workload,
    const PrivacyBudget& requested, PrivacyBudget spent,
    const PrivacyBudget& total) const {
  std::unique_ptr<NoisyAnswerCache> cache =
      cache_ != nullptr ? cache_->Snapshot() : nullptr;
  const LedgerView snapshot{
      [](const std::string&) -> Result<bool> { return true; },
      // What AnalystLedger::Remaining reports for this account.
      [&](const std::string&) -> Result<PrivacyBudget> {
        return PrivacyBudget{std::max(0.0, total.epsilon - spent.epsilon),
                             std::max(0.0, total.delta - spent.delta)};
      }};
  BudgetPlanner::WorkloadPlan plan;
  plan.queries.resize(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    QuerySpec spec;
    spec.analyst = analyst;
    spec.query = workload[i];
    spec.budget = requested;
    const AdmissionDecision d =
        Admit(spec, /*seq=*/0, /*cancelled=*/false, /*expired=*/false,
              snapshot, cache.get());
    BudgetPlanner::PlannedQuery& q = plan.queries[i];
    if (d.refusal.ok() && d.cache.ServedFree()) {
      // Submitted with the budget it was resolved at, the hit resolves
      // to the same entry; at another budget it may not.
      q.budget = d.charge;
      q.predicted_cached = true;
      ++plan.predicted_hits;
      ++plan.answerable;
      continue;
    }
    if (d.refusal.ok() && plan.eps_per_query == 0.0) {
      plan.eps_per_query = d.charge.epsilon;
    }
    q.answerable =
        d.refusal.ok() && AnalystLedger::Affords(spent, total, d.charge);
    if (!q.answerable) {
      // As RunGroup does when the ledger refuses the charge.
      if (d.cache.purchase != nullptr) {
        cache->Invalidate(d.cache.purchase, analyst);
      }
      continue;
    }
    q.budget = d.charge;
    ++plan.answerable;
    plan.projected_spend = plan.projected_spend + d.charge;
    spent = spent + d.charge;
  }
  return plan;
}

Result<BudgetPlanner::WorkloadPlan> FederationClient::PlanWorkload(
    const std::string& analyst,
    const std::vector<RangeQuery>& workload) const {
  FEDAQP_ASSIGN_OR_RETURN(const PrivacyBudget spent,
                          budget_->Spent(analyst));
  FEDAQP_ASSIGN_OR_RETURN(const PrivacyBudget remaining,
                          budget_->Remaining(analyst));
  PrivacyBudget requested{0.0, 0.0};
  if (options_.plan_horizon == 0) {
    // Spread what is left over the queries that charge at the configured
    // budget when the grant is no limit.
    constexpr double kNoLimit = std::numeric_limits<double>::infinity();
    const BudgetPlanner::WorkloadPlan unlimited = PlanOnSnapshot(
        analyst, workload, requested, spent, {kNoLimit, kNoLimit});
    const size_t chargeable = unlimited.answerable - unlimited.predicted_hits;
    if (chargeable > 0) {
      requested = planner_.NextQueryBudget(remaining, chargeable);
    }
  }
  return PlanOnSnapshot(analyst, workload, requested, spent,
                        spent + remaining);
}

void FederationClient::AdmissionLoop() {
  for (;;) {
    std::vector<std::shared_ptr<TicketState>> round;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      busy_ = false;
      idle_cv_.notify_all();
      cv_.wait(lock, [&] {
        return stopping_ || (!paused_ && !pending_.empty());
      });
      if (pending_.empty()) {
        if (stopping_) return;
        continue;
      }
      size_t take = pending_.size();
      if (options_.max_batch_queries > 0) {
        take = std::min(take, options_.max_batch_queries);
      }
      if (!options_.fair_admission) {
        round.assign(std::make_move_iterator(pending_.begin()),
                     std::make_move_iterator(pending_.begin() +
                                             static_cast<long>(take)));
        pending_.erase(pending_.begin(),
                       pending_.begin() + static_cast<long>(take));
      } else {
        SelectFairLocked(take, &round);
      }
      busy_ = true;
    }
    RunGroup(round);
  }
}

void FederationClient::SelectFairLocked(
    size_t take, std::vector<std::shared_ptr<TicketState>>* round) {
  // Feed newly arrived entries into the persistent DWRR state.
  std::map<uint64_t, size_t> position;
  for (size_t i = 0; i < pending_.size(); ++i) {
    const uint64_t seq = pending_[i]->seq;
    if (seq > fair_enqueued_up_to_) {
      fair_queue_.Push(seq, pending_[i]->spec.analyst);
      fair_enqueued_up_to_ = seq;
    }
    position[seq] = i;
  }
  const std::vector<uint64_t> order = fair_queue_.PopBatch(take);
  std::vector<bool> taken(pending_.size(), false);
  round->reserve(round->size() + order.size());
  for (uint64_t seq : order) {
    const size_t i = position[seq];
    taken[i] = true;
    round->push_back(std::move(pending_[i]));
  }
  // Unselected entries keep their arrival positions for the next round.
  std::deque<std::shared_ptr<TicketState>> rest;
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!taken[i]) rest.push_back(std::move(pending_[i]));
  }
  pending_.swap(rest);
}

void FederationClient::RunGroup(
    std::vector<std::shared_ptr<TicketState>>& group) {
  if (group.empty()) return;
  RoundsCounter().Add();
  // Session = the round's first admission seq: correlates the round span
  // with the per-task spans of every query it ran.
  obs::ScopedSpan round_span("client", "admission_round",
                             group.front()->seq);
  std::vector<QueryExecSpec> specs;
  /// Round-executed tickets: delivered unsealed by their graph callback,
  /// sealed here once the round's batch stats exist.
  std::vector<TicketState*> running;
  /// Tickets finished after the round, in admission order: cache serves
  /// deferred on a same-round purchase, and composed queries waiting for
  /// their executed remainder.
  std::vector<TicketState*> post;
  specs.reserve(group.size());
  running.reserve(group.size());
  const QueryResponse kNoResponse;
  {
    // Record the executed admission order (fair or FIFO) — the
    // determinism pins compare this sequence across runs.
    std::lock_guard<std::mutex> lock(mutex_);
    admitted_order_.reserve(admitted_order_.size() + group.size());
    for (const auto& ticket : group) admitted_order_.push_back(ticket->seq);
  }
  // Drops a purchase whose answer was never bought, so later queries
  // re-purchase instead of linking to it.
  auto drop_purchase = [this](TicketState* t) {
    cache_->Invalidate(t->cache.purchase, t->spec.analyst);
    NoisyAnswerCache::CountInvalidation();
  };
  for (const auto& ticket : group) {
    TicketState* t = ticket.get();
    // Admission, strictly in arrival order; this loop only applies the
    // decisions.
    AdmissionDecision admitted =
        Admit(t->spec, t->seq, t->cancel->cancelled(),
              t->deadline_abs < clock_.ElapsedSeconds(), live_ledger_,
              cache_.get());
    if (!admitted.refusal.ok()) {
      Deliver(t, admitted.refusal, kNoResponse);
      continue;
    }
    const bool exact = t->spec.kind == QueryKind::kExact;
    t->effective = admitted.charge;
    t->cache = std::move(admitted.cache);
    // Progressive queries skip the cache (their answer is a sequence of
    // rounds, not one reusable release).
    if (t->spec.kind == QueryKind::kApproximate && cache_ != nullptr) {
      NoisyAnswerCache::CountLookup(t->cache);
      if (t->cache.ServedFree()) {
        t->from_cache = true;
        t->sub_answers =
            t->cache.hit ? 0 : static_cast<uint32_t>(t->cache.parts.size());
        // Burn the session id this query would have consumed, so every
        // later miss draws the same (provider seed, session id)-keyed
        // noise as a cache-less run of the same admission sequence.
        QueryExecSpec reserve;
        reserve.query = t->spec.query;
        reserve.budget = t->effective;
        reserve.reserve_session_only = true;
        specs.push_back(std::move(reserve));
        // Sources purchased in earlier rounds are terminal: serve now.
        // A link to a purchase admitted earlier in THIS round resolves
        // once the round ran.
        if (!TryServeCached(t)) post.push_back(t);
        continue;
      }
    }
    const bool composed =
        t->cache.kind == NoisyAnswerCache::Decision::Kind::kComposed;
    if (!exact) {
      Status charged = budget_->Charge(t->spec.analyst, t->effective, t->seq);
      if (!charged.ok()) {
        // Admit registered this query's purchase; drop it so later
        // queries never link to an answer that was never bought.
        if (t->cache.purchase != nullptr) {
          drop_purchase(t);
          t->cache.purchase = nullptr;
        }
        Deliver(t, charged, kNoResponse);
        continue;
      }
      t->charged = true;
    }
    QueryExecSpec spec;
    spec.query = composed ? t->cache.remainder_query : t->spec.query;
    spec.exact = exact;
    if (!exact) spec.budget = t->effective;
    spec.priority = static_cast<uint8_t>(t->spec.priority);
    spec.deadline = t->deadline_abs;
    spec.cancel = t->cancel;
    if (t->spec.kind == QueryKind::kProgressive) {
      spec.rounds = RoundsOf(t->spec);
      spec.on_round = [t, rounds = spec.rounds](const ProgressiveRound& round) {
        std::lock_guard<std::mutex> lock(t->m);
        t->rounds.push_back(round);
        const double target = t->spec.target_relative_stderr;
        const bool met = target > 0.0 && round.estimate != 0.0 &&
                         round.stderr_estimate / std::abs(round.estimate) <=
                             target;
        t->last_round_released =
            t->stop_requested || met || round.round >= rounds;
        t->cv.notify_all();
        return !t->last_round_released;
      };
    }
    if (composed) {
      // Charged in full for the remainder; the cached parts ride along
      // free. The callback only stashes the remainder outcome (and
      // publishes the purchase) — composition needs the same-round parts
      // terminal, so it happens post-round, in admission order.
      t->sub_answers = static_cast<uint32_t>(t->cache.parts.size());
      spec.on_done = [t](const Status& status, const QueryResponse& response) {
        if (t->cache.purchase != nullptr) {
          PublishOutcome(*t->cache.purchase, status, response);
        }
        std::lock_guard<std::mutex> lock(t->m);
        t->rem_status = status;
        t->rem_response = response;
      };
      post.push_back(t);
    } else {
      spec.on_done = [this, t](const Status& status,
                               const QueryResponse& response) {
        if (t->cache.purchase != nullptr) {
          PublishOutcome(*t->cache.purchase, status, response);
        }
        Deliver(t, status, response, /*seal=*/false);
      };
      running.push_back(t);
    }
    specs.push_back(std::move(spec));
  }
  // Deadline eviction (Options::evict_expired): while the round executes,
  // a watcher cancels any charged query whose deadline passes before its
  // first stage claim. CancelIfNotStarted is a single CAS from the
  // pristine token state, so it can never abort started work: an evicted
  // query resolves as cancelled at the frozen kNotStarted stage, which
  // Deliver refunds in full and translates to kDeadlineExceeded.
  std::thread evictor;
  std::mutex evict_mutex;
  std::condition_variable evict_cv;
  bool round_over = false;
  if (options_.evict_expired) {
    std::vector<std::pair<double, TicketState*>> expiring;
    auto consider = [&expiring](TicketState* t) {
      if (t->charged && std::isfinite(t->deadline_abs)) {
        expiring.emplace_back(t->deadline_abs, t);
      }
    };
    for (TicketState* t : running) consider(t);
    for (TicketState* t : post) consider(t);
    std::sort(expiring.begin(), expiring.end(),
              [](const std::pair<double, TicketState*>& a,
                 const std::pair<double, TicketState*>& b) {
                return a.first != b.first ? a.first < b.first
                                          : a.second->seq < b.second->seq;
              });
    if (!expiring.empty()) {
      evictor = std::thread([this, expiring = std::move(expiring),
                             &evict_mutex, &evict_cv, &round_over] {
        std::unique_lock<std::mutex> lk(evict_mutex);
        for (const auto& entry : expiring) {
          while (!round_over && clock_.ElapsedSeconds() < entry.first) {
            const double wait = entry.first - clock_.ElapsedSeconds();
            evict_cv.wait_for(
                lk, std::chrono::duration<double>(std::min(wait, 0.01)));
          }
          if (round_over) return;
          // Counted in Deliver (the ticket observes its own eviction).
          entry.second->cancel->CancelIfNotStarted();
        }
      });
    }
  }
  double batch_wall = 0.0;
  double batch_critical_path = 0.0;
  if (!specs.empty()) {
    obs::ScopedSpan exec_span("client", "execute_round",
                              group.front()->seq);
    orchestrator_.ExecuteBatchSpecs(specs);
    const BatchRunStats stats = orchestrator_.last_batch_stats();
    batch_wall = stats.wall_seconds;
    batch_critical_path = stats.critical_path_seconds;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++num_batches_;
    }
  }
  if (evictor.joinable()) {
    {
      std::lock_guard<std::mutex> lock(evict_mutex);
      round_over = true;
    }
    evict_cv.notify_all();
    evictor.join();
  }
  // Seal round-executed tickets: the batch stats publish under each
  // ticket's lock, atomically unblocking any Stats() reader that saw
  // `done` already.
  for (TicketState* t : running) {
    SealTicket(t, batch_wall, batch_critical_path);
  }
  // Finish deferred tickets in admission order. Every source entry is
  // terminal now: its purchasing query either ran in this round (the
  // orchestrator invokes every spec's callback before returning) or in
  // an earlier one.
  for (TicketState* t : post) {
    if (t->from_cache) {
      TryServeCached(t);  // cannot defer again
    } else {
      std::lock_guard<std::mutex> lock(t->m);
      t->stats.batch_wall_seconds = batch_wall;
      t->stats.critical_path_seconds = batch_critical_path;
    }
    if (!t->from_cache) FinishComposed(t);
  }
  // Drop purchases whose queries failed or were cancelled: the refund
  // machinery returned their budget, so the answers were never bought
  // and later admissions must re-purchase, not link.
  if (cache_ != nullptr) {
    auto invalidate_if_failed = [&drop_purchase](TicketState* t) {
      if (t->cache.purchase == nullptr) return;
      bool bought;
      {
        std::lock_guard<std::mutex> lock(t->cache.purchase->m);
        bought = t->cache.purchase->terminal && t->cache.purchase->status.ok();
      }
      if (!bought) drop_purchase(t);
    };
    for (TicketState* t : running) invalidate_if_failed(t);
    for (TicketState* t : post) invalidate_if_failed(t);
  }
}

bool FederationClient::TryServeCached(TicketState* t) {
  const QueryResponse kNoResponse;
  const FoldedParts folded = FoldParts(
      t->cache.hit != nullptr
          ? std::vector<std::shared_ptr<CacheEntry>>{t->cache.hit}
          : t->cache.parts);
  if (folded.pending) return false;
  if (!folded.failed.ok()) {
    // The linked same-round purchase never released an answer; nothing
    // was charged here, so there is nothing to refund — just propagate.
    Deliver(t,
            Status::Unavailable("cache: linked purchase failed: " +
                                folded.failed.message()),
            kNoResponse);
    return true;
  }
  QueryResponse response;
  response.estimate = folded.estimate;
  response.stderr_estimate = std::sqrt(folded.variance);
  response.approximated = folded.approximated;
  response.spent = PrivacyBudget{0.0, 0.0};
  budget_->RecordSaving(t->spec.analyst, t->effective, t->seq);
  Deliver(t, Status::OK(), response);
  return true;
}

void FederationClient::FinishComposed(TicketState* t) {
  const QueryResponse kNoResponse;
  Status rem_status = Status::OK();
  QueryResponse rem_response;
  {
    std::lock_guard<std::mutex> lock(t->m);
    rem_status = t->rem_status;
    rem_response = t->rem_response;
  }
  if (!rem_status.ok()) {
    // Cancellation refunds via the token's frozen stage (the full
    // effective charge covered only the remainder); provider failures
    // keep the charge, as everywhere else.
    Deliver(t, rem_status, kNoResponse);
    return;
  }
  const FoldedParts folded = FoldParts(t->cache.parts);
  if (!folded.failed.ok()) {
    // The remainder was bought (and stays cached for future reuse), but
    // a linked same-round part failed, so this composition cannot be
    // released. The charge stands, like any provider failure.
    Deliver(t,
            Status::Unavailable("cache: composed sub-answer failed: " +
                                folded.failed.message()),
            kNoResponse);
    return;
  }
  QueryResponse response = rem_response;
  response.estimate = folded.estimate + rem_response.estimate;
  response.stderr_estimate =
      std::sqrt(folded.variance +
                rem_response.stderr_estimate * rem_response.stderr_estimate);
  response.approximated = folded.approximated || rem_response.approximated;
  Deliver(t, Status::OK(), response);
}

void FederationClient::Deliver(internal::TicketState* ticket,
                               const Status& status,
                               const QueryResponse& response, bool seal) {
  PrivacyBudget refund{0.0, 0.0};
  if (ticket->charged && status.ok()) {
    // What the released answer did not spend: nothing for a one-shot
    // query (spent == the charge, bit for bit), the estimate shares of
    // the rounds a progressive query never released.
    refund = {std::max(0.0, ticket->effective.epsilon - response.spent.epsilon),
              std::max(0.0, ticket->effective.delta - response.spent.delta)};
  } else if (ticket->charged && ticket->cancel->cancelled()) {
    // Refund keys off the token's frozen stage, not the winning status:
    // when a cancellation and a provider failure race, the failure may
    // name the outcome, but a stage the token froze below
    // kEstimateReleased provably never released its shares either way
    // (every claim past the frozen stage failed), so the promise
    // Cancel() made still holds. RefundableShare is {0,0} at
    // kEstimateReleased, so a too-late cancel refunds nothing here too.
    refund = RefundableShare(options_.protocol, ticket->effective,
                             ticket->cancel->stage());
  }
  if (NonZero(refund)) {
    // The backend is thread-safe; Deliver may run on a graph worker.
    budget_->Refund(ticket->spec.analyst, refund, ticket->seq);
  }
  // An eviction is a cancellation the deadline watcher issued, not the
  // caller: surface it as the deadline miss it is.
  const bool evicted = !status.ok() && ticket->cancel != nullptr &&
                       ticket->cancel->evicted();
  if (evicted) EvictionsCounter().Add();
  std::lock_guard<std::mutex> lock(ticket->m);
  ticket->status = evicted ? Status::DeadlineExceeded(
                                 "client: deadline passed while queued "
                                 "(evicted before start)")
                           : status;
  if (status.ok()) ticket->response = response;
  ticket->stats.wall_seconds =
      clock_.ElapsedSeconds() - ticket->submit_seconds;
  DeliveredCounter().Add();
  QueryWallHistogram().Record(ticket->stats.wall_seconds);
  ticket->stats.simulated_seconds = response.breakdown.TotalSeconds();
  ticket->stats.simulated_network_bytes = response.breakdown.network_bytes;
  ticket->stats.refunded = refund;
  ticket->stats.served_from_cache = ticket->from_cache;
  ticket->stats.cache_sub_answers = ticket->sub_answers;
  ticket->stats.evicted = evicted;
  ticket->done = true;
  if (seal) ticket->stats_sealed = true;
  ticket->cv.notify_all();
}

void FederationClient::SealTicket(internal::TicketState* ticket,
                                  double batch_wall_seconds,
                                  double critical_path_seconds) {
  std::lock_guard<std::mutex> lock(ticket->m);
  ticket->stats.batch_wall_seconds = batch_wall_seconds;
  ticket->stats.critical_path_seconds = critical_path_seconds;
  ticket->stats_sealed = true;
  ticket->cv.notify_all();
}

}  // namespace fedaqp
