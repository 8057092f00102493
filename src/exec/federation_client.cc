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
  if (state_->spec.kind == QueryKind::kProgressive) {
    // Effective before anything ran (full refund), or while at least
    // one round beyond the possibly-in-flight one remains to be skipped
    // (the stop check runs between rounds, so the current round always
    // completes). With the final round already computing, nothing can
    // be prevented — the full result will stand.
    if (stage == QueryStage::kNotStarted) return true;
    const size_t requested =
        std::max<size_t>(1, state_->spec.progressive_rounds);
    return state_->rounds.size() + 1 < requested;
  }
  return stage < QueryStage::kEstimateReleased;
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
    const Options& options, std::vector<DataProvider*> providers) {
  Result<QueryOrchestrator> orchestrator =
      QueryOrchestrator::CreateFromEndpoints(std::move(endpoints),
                                             options.protocol);
  if (!orchestrator.ok()) return orchestrator.status();
  std::unique_ptr<FederationClient> client(new FederationClient(
      std::move(orchestrator).value(), options, std::move(providers)));
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
  return CreateImpl(std::move(endpoints), options, /*providers=*/{});
}

Result<std::unique_ptr<FederationClient>> FederationClient::Create(
    std::vector<DataProvider*> providers, const Options& options) {
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
      MakeInProcessEndpoints(providers));
  return CreateImpl(std::move(endpoints), options, std::move(providers));
}

FederationClient::FederationClient(QueryOrchestrator orchestrator,
                                   Options options,
                                   std::vector<DataProvider*> providers)
    : options_(std::move(options)),
      orchestrator_(std::move(orchestrator)),
      planner_(BudgetPlanner::PlannerOptions{
          options_.protocol.per_query_budget, options_.plan_eps_floor}),
      providers_(std::move(providers)),
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
    if (options_.cache_align_to_metadata && !providers_.empty()) {
      // Union of every provider's cluster cut points per dimension — the
      // coordinator-visible layout the demotion heuristic aligns to.
      const Schema& schema = orchestrator_.schema();
      copts.cut_points.resize(schema.num_dims());
      for (size_t d = 0; d < schema.num_dims(); ++d) {
        std::vector<Value>& merged = copts.cut_points[d];
        for (DataProvider* provider : providers_) {
          std::vector<Value> pts = provider->metadata().CutPoints(d);
          merged.insert(merged.end(), pts.begin(), pts.end());
        }
        std::sort(merged.begin(), merged.end());
        merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      }
    }
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

PrivacyBudget FederationClient::QueryCharge(
    const PrivacyBudget& requested,
    const std::function<Result<PrivacyBudget>()>& remaining) const {
  if (requested.epsilon > 0.0) return requested;
  if (options_.plan_horizon > 0) {
    Result<PrivacyBudget> left = remaining();
    if (left.ok()) {
      return planner_.NextQueryBudget(*left, options_.plan_horizon);
    }
  }
  return options_.protocol.per_query_budget;
}

Result<BudgetPlanner::WorkloadPlan> FederationClient::PlanWorkload(
    const std::string& analyst,
    const std::vector<RangeQuery>& workload) const {
  FEDAQP_ASSIGN_OR_RETURN(PrivacyBudget remaining,
                          budget_->Remaining(analyst));
  if (options_.plan_horizon == 0) {
    return planner_.Plan(analyst, workload, remaining, cache_.get());
  }
  // Under a horizon every charge depends on the grant left when the query
  // is admitted, so walk the workload in admission order, as RunGroup
  // will: each query is charged by the same rule, and an answerable one
  // leaves less for the next.
  BudgetPlanner::WorkloadPlan plan;
  plan.queries.resize(workload.size());
  std::vector<PrivacyBudget> budgets;
  budgets.reserve(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    const PrivacyBudget charge =
        QueryCharge(PrivacyBudget{0.0, 0.0},
                    [&] { return Result<PrivacyBudget>(remaining); });
    budgets.push_back(charge);
    BudgetPlanner::PlannedQuery& q = plan.queries[i];
    if (cache_ != nullptr) {
      // Resolved as admission would: after the purchases planned so far.
      const std::vector<RangeQuery> prefix(workload.begin(),
                                           workload.begin() + i + 1);
      q.predicted_cached =
          !cache_->PredictChargeable(analyst, prefix, budgets).back();
    }
    if (q.predicted_cached) {
      ++plan.predicted_hits;
      ++plan.answerable;
      continue;
    }
    q.answerable = charge.epsilon <= remaining.epsilon &&
                   charge.delta <= remaining.delta;
    if (!q.answerable) continue;
    q.budget = charge;
    if (plan.eps_per_query == 0.0) plan.eps_per_query = charge.epsilon;
    ++plan.answerable;
    plan.projected_spend = plan.projected_spend + charge;
    remaining.epsilon -= charge.epsilon;
    remaining.delta -= charge.delta;
  }
  return plan;
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
    // Process the round in arrival order, batching contiguous
    // graph-runnable specs; progressive queries act as sequence points
    // (the admission — and therefore charge — order is preserved
    // exactly).
    std::vector<std::shared_ptr<TicketState>> group;
    for (std::shared_ptr<TicketState>& ticket : round) {
      if (ticket->spec.kind == QueryKind::kProgressive) {
        RunGroup(group);
        group.clear();
        RunProgressive(ticket);
        continue;
      }
      group.push_back(std::move(ticket));
    }
    RunGroup(group);
  }
}

void FederationClient::SelectFairLocked(
    size_t take, std::vector<std::shared_ptr<TicketState>>* round) {
  // Progressive specs are sequence barriers (RunGroup splits on them);
  // fairness reorders only within the longest barrier-free prefix of the
  // backlog, so nothing ever crosses a barrier.
  size_t prefix = 0;
  while (prefix < pending_.size() &&
         pending_[prefix]->spec.kind != QueryKind::kProgressive) {
    ++prefix;
  }
  if (prefix == 0) {
    // A barrier heads the backlog: admit it alone, in arrival order.
    // (fair_queue_ is empty here — every query before the barrier was
    // popped by an earlier round.)
    round->push_back(std::move(pending_.front()));
    pending_.pop_front();
    return;
  }
  // Feed newly arrived prefix entries into the persistent DWRR state;
  // entries behind a barrier wait until the barrier clears.
  std::map<uint64_t, size_t> position;
  for (size_t i = 0; i < prefix; ++i) {
    const uint64_t seq = pending_[i]->seq;
    if (seq > fair_enqueued_up_to_) {
      fair_queue_.Push(seq, pending_[i]->spec.analyst);
      fair_enqueued_up_to_ = seq;
    }
    position[seq] = i;
  }
  const std::vector<uint64_t> order = fair_queue_.PopBatch(
      std::min(prefix, take));
  std::vector<bool> taken(prefix, false);
  round->reserve(round->size() + order.size());
  for (uint64_t seq : order) {
    const size_t i = position[seq];
    taken[i] = true;
    round->push_back(std::move(pending_[i]));
  }
  // Unselected entries keep their arrival positions for the next round.
  std::deque<std::shared_ptr<TicketState>> rest;
  for (size_t i = 0; i < prefix; ++i) {
    if (!taken[i]) rest.push_back(std::move(pending_[i]));
  }
  for (size_t i = prefix; i < pending_.size(); ++i) {
    rest.push_back(std::move(pending_[i]));
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
  for (const auto& ticket : group) {
    TicketState* t = ticket.get();
    // Admission, strictly in arrival order. Refusals: cancellation and
    // deadline first (nothing charged), then identity before validation
    // (unknown callers learn nothing about the schema), then validity
    // before budget (malformed queries never consume budget).
    if (t->cancel->cancelled()) {
      Deliver(t, Status::Cancelled("client: cancelled before execution"),
              kNoResponse);
      continue;
    }
    if (t->deadline_abs < clock_.ElapsedSeconds()) {
      Deliver(t,
              Status::DeadlineExceeded(
                  "client: deadline passed before admission"),
              kNoResponse);
      continue;
    }
    const bool exact = t->spec.kind == QueryKind::kExact;
    if (!exact) {
      Result<bool> known = budget_->Knows(t->spec.analyst);
      if (!known.ok()) {
        // Shared-ledger backend unreachable: fail with the transport's
        // status, never "unknown analyst".
        Deliver(t, known.status(), kNoResponse);
        continue;
      }
      if (!*known) {
        Deliver(t,
                Status::NotFound("client: unknown analyst '" +
                                 t->spec.analyst + "'"),
                kNoResponse);
        continue;
      }
    }
    Status valid = t->spec.query.Validate(orchestrator_.schema());
    if (!valid.ok()) {
      Deliver(t, valid, kNoResponse);
      continue;
    }
    // Effective per-query budget (QueryCharge). Part of the admission
    // sequence, so replays (which see the same ledger states in the same
    // order) agree.
    if (!exact) {
      if (t->spec.budget.epsilon > 0.0) {
        Status budget_ok = t->spec.budget.Validate();
        if (!budget_ok.ok()) {
          Deliver(t, budget_ok, kNoResponse);
          continue;
        }
      }
      t->effective = QueryCharge(t->spec.budget, [&] {
        return budget_->Remaining(t->spec.analyst);
      });
    }
    // Cache resolve: exact repeats and fully composed ranges are served
    // for zero fresh budget; a partial overlap executes (and charges)
    // only its uncovered remainder.
    if (!exact && cache_ != nullptr) {
      t->cache = cache_->Resolve(t->spec.analyst, t->spec.query, t->effective,
                                 t->seq);
      const bool free_serve =
          t->cache.kind == NoisyAnswerCache::Decision::Kind::kHit ||
          (t->cache.kind == NoisyAnswerCache::Decision::Kind::kComposed &&
           !t->cache.has_remainder);
      if (free_serve) {
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
        // Resolve registered this query's purchase; drop it so later
        // queries never link to an answer that was never bought.
        if (t->cache.purchase != nullptr) {
          cache_->Invalidate(t->cache.purchase, t->spec.analyst);
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
        Deliver(t, status, response, /*precomputed_refund=*/nullptr,
                /*seal=*/false);
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
    auto invalidate_if_failed = [this](TicketState* t) {
      if (t->cache.purchase == nullptr) return;
      bool bought;
      {
        std::lock_guard<std::mutex> lock(t->cache.purchase->m);
        bought = t->cache.purchase->terminal && t->cache.purchase->status.ok();
      }
      if (!bought) cache_->Invalidate(t->cache.purchase, t->spec.analyst);
    };
    for (TicketState* t : running) invalidate_if_failed(t);
    for (TicketState* t : post) invalidate_if_failed(t);
  }
}

bool FederationClient::TryServeCached(TicketState* t) {
  const QueryResponse kNoResponse;
  double estimate = 0.0;
  double variance = 0.0;
  bool approximated = false;
  bool all_terminal = true;
  Status failed = Status::OK();
  auto fold = [&](CacheEntry& entry) {
    std::lock_guard<std::mutex> lock(entry.m);
    if (!entry.terminal) {
      all_terminal = false;
      return;
    }
    if (!entry.status.ok()) {
      if (failed.ok()) failed = entry.status;
      return;
    }
    estimate += entry.estimate;
    variance += entry.variance;
    approximated = approximated || entry.approximated;
  };
  if (t->cache.hit != nullptr) {
    fold(*t->cache.hit);
  } else {
    for (const auto& part : t->cache.parts) fold(*part);
  }
  if (!all_terminal) return false;
  if (!failed.ok()) {
    // The linked same-round purchase never released an answer; nothing
    // was charged here, so there is nothing to refund — just propagate.
    Deliver(t,
            Status::Unavailable("cache: linked purchase failed: " +
                                failed.message()),
            kNoResponse);
    return true;
  }
  QueryResponse response;
  response.estimate = estimate;
  response.stderr_estimate = std::sqrt(variance);
  response.approximated = approximated;
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
  double estimate = 0.0;
  double variance = 0.0;
  bool approximated = false;
  Status failed = Status::OK();
  for (const auto& part : t->cache.parts) {
    std::lock_guard<std::mutex> lock(part->m);
    if (!part->terminal || !part->status.ok()) {
      if (failed.ok()) {
        failed = part->terminal ? part->status
                                : Status::Internal("cache: part not terminal");
      }
      continue;
    }
    estimate += part->estimate;
    variance += part->variance;
    approximated = approximated || part->approximated;
  }
  if (!failed.ok()) {
    // The remainder was bought (and stays cached for future reuse), but
    // a linked same-round part failed, so this composition cannot be
    // released. The charge stands, like any provider failure.
    Deliver(t,
            Status::Unavailable("cache: composed sub-answer failed: " +
                                failed.message()),
            kNoResponse);
    return;
  }
  QueryResponse response = rem_response;
  response.estimate = estimate + rem_response.estimate;
  response.stderr_estimate = std::sqrt(
      variance + rem_response.stderr_estimate * rem_response.stderr_estimate);
  response.approximated = approximated || rem_response.approximated;
  Deliver(t, Status::OK(), response);
}

void FederationClient::RunProgressive(
    const std::shared_ptr<TicketState>& ticket) {
  TicketState* t = ticket.get();
  const QueryResponse kNoResponse;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    admitted_order_.push_back(t->seq);
  }
  if (t->cancel->cancelled()) {
    Deliver(t, Status::Cancelled("client: cancelled before execution"),
            kNoResponse);
    return;
  }
  if (t->deadline_abs < clock_.ElapsedSeconds()) {
    Deliver(t,
            Status::DeadlineExceeded("client: deadline passed before admission"),
            kNoResponse);
    return;
  }
  if (providers_.empty()) {
    Deliver(t,
            Status::FailedPrecondition(
                "client: progressive queries need in-process providers "
                "(client was built over endpoints)"),
            kNoResponse);
    return;
  }
  {
    Result<bool> known = budget_->Knows(t->spec.analyst);
    if (!known.ok()) {
      Deliver(t, known.status(), kNoResponse);
      return;
    }
    if (!*known) {
      Deliver(t,
              Status::NotFound("client: unknown analyst '" + t->spec.analyst +
                               "'"),
              kNoResponse);
      return;
    }
  }
  Status valid = t->spec.query.Validate(orchestrator_.schema());
  if (!valid.ok()) {
    Deliver(t, valid, kNoResponse);
    return;
  }
  const PrivacyBudget full = t->spec.budget.epsilon > 0.0
                                 ? t->spec.budget
                                 : options_.protocol.per_query_budget;
  Status budget_ok = full.Validate();
  if (!budget_ok.ok()) {
    Deliver(t, budget_ok, kNoResponse);
    return;
  }
  Status charged = budget_->Charge(t->spec.analyst, full, t->seq);
  if (!charged.ok()) {
    Deliver(t, charged, kNoResponse);
    return;
  }
  t->charged = true;
  t->effective = full;
  if (!t->cancel->Claim(QueryStage::kSummaryPublished)) {
    // Cancelled between charge and start: full refund via the frozen
    // kNotStarted stage.
    Deliver(t, Status::Cancelled("client: cancelled before execution"),
            kNoResponse);
    return;
  }

  ProgressiveOptions popts;
  popts.rounds = std::max<size_t>(1, t->spec.progressive_rounds);
  popts.sampling_rate = options_.protocol.sampling_rate;
  popts.budget = full;
  popts.split = options_.protocol.split;
  popts.num_threads = options_.protocol.num_threads;
  popts.on_round = [t](const ProgressiveRound& round) {
    {
      std::lock_guard<std::mutex> lock(t->m);
      t->rounds.push_back(round);
      t->cv.notify_all();
    }
    return !t->cancel->cancelled();
  };
  Result<std::vector<ProgressiveRound>> rounds =
      ExecuteProgressive(providers_, t->spec.query, popts);
  if (!rounds.ok()) {
    // Provider failures keep the charge, like batch failures do.
    Deliver(t, rounds.status(), kNoResponse);
    return;
  }
  // At least round 1 was released (on_round can only stop *between*
  // rounds). A stop before the last round refunds the rounds never
  // released: full budget minus what the last released round had spent.
  const ProgressiveRound& last = rounds->back();
  PrivacyBudget refund{0.0, 0.0};
  if (rounds->size() < popts.rounds) {
    refund.epsilon = std::max(0.0, full.epsilon - last.spent.epsilon);
    refund.delta = std::max(0.0, full.delta - last.spent.delta);
  }
  QueryResponse response;
  response.estimate = last.estimate;
  response.stderr_estimate = last.stderr_estimate;
  response.approximated = true;
  response.spent = last.spent;
  Deliver(t, Status::OK(), response, &refund);
}

void FederationClient::Deliver(internal::TicketState* ticket,
                               const Status& status,
                               const QueryResponse& response,
                               const PrivacyBudget* precomputed_refund,
                               bool seal) {
  PrivacyBudget refund{0.0, 0.0};
  if (precomputed_refund != nullptr) {
    refund = *precomputed_refund;
  } else if (ticket->charged && !status.ok() &&
             ticket->cancel->cancelled()) {
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
