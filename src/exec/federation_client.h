#ifndef FEDAQP_EXEC_FEDERATION_CLIENT_H_
#define FEDAQP_EXEC_FEDERATION_CLIENT_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cache/answer_cache.h"
#include "cache/budget_planner.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "dp/accountant.h"
#include "exec/cancel.h"
#include "exec/endpoint.h"
#include "federation/orchestrator.h"
#include "federation/progressive.h"
#include "obs/audit_log.h"
#include "serve/fair_queue.h"
#include "serve/ledger_backend.h"

namespace fedaqp {

/// A named analyst's total (xi, psi) grant (Sec. 5.4), plus the serving
/// weight fair admission gives them (see Options::fair_admission).
struct AnalystGrant {
  std::string analyst;
  double xi = 0.0;
  double psi = 0.0;
  /// Deficit-weighted round-robin share: per fair-queue rotation this
  /// analyst admits up to `weight` queries. Clamped to >= 1; ignored
  /// while fair admission is off.
  uint32_t weight = 1;
};

/// Which execution flavor a submitted query requests. One submission
/// surface covers all three — the redesign's unification point.
enum class QueryKind : uint8_t {
  /// The paper's private approximate protocol (default).
  kApproximate = 0,
  /// Plain-text exact federated execution: the non-private baseline.
  /// No analyst budget involved; `analyst` is ignored.
  kExact = 1,
  /// Online aggregation: the answer refines round by round, each round
  /// surfaced on the ticket as it is released (Refinements()). Requires
  /// a client built over in-process providers.
  kProgressive = 2,
};

/// Scheduling urgency class. High-priority queries' task-graph nodes are
/// drained before normal ones, normal before low, whenever both are
/// simultaneously ready — admission order (and therefore budget charging
/// and noise streams) is NOT affected, only scheduling.
enum class QueryPriority : uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// One submitted query: the unified request struct of the async client
/// API. Approximate, exact, and progressive requests all travel through
/// it.
struct QuerySpec {
  /// Whose (xi, psi) grant the query charges (kApproximate/kProgressive).
  std::string analyst;
  RangeQuery query;
  QueryKind kind = QueryKind::kApproximate;
  QueryPriority priority = QueryPriority::kNormal;
  /// Optional deadline, in seconds after Submit. <= 0 means none. A
  /// query whose deadline has already passed when the admission thread
  /// reaches it is refused with kDeadlineExceeded before any budget is
  /// charged; an admitted query's deadline additionally sharpens its
  /// ready-queue order (earlier deadline first within a priority class).
  /// Deadlines never abort work already admitted.
  double deadline_seconds = 0.0;
  /// Refinement rounds for kProgressive (ignored otherwise; min 1).
  size_t progressive_rounds = 4;
  /// Per-query budget override (the planner's output): epsilon > 0
  /// replaces the configured per-query (eps, delta) for this query's
  /// charge and noise calibration; epsilon <= 0 inherits the config (or
  /// the Options::plan_horizon knob's choice when that is active).
  PrivacyBudget budget{0.0, 0.0};
  /// When > 0, updates the submitting analyst's fair-admission weight as
  /// of this query's arrival position (a deterministic point of the
  /// admission sequence). 0 keeps the current weight.
  uint32_t weight = 0;
};

/// Per-query execution statistics exposed on the ticket once the query
/// completes. Every field — including the admission-round fields — is
/// published atomically with outcome delivery: once Wait() (or Done())
/// observes completion, Stats() returns final values.
struct TicketStats {
  /// Submit() to outcome delivery, on the client's clock.
  double wall_seconds = 0.0;
  /// Wall time of the admission round (batch) that executed the query.
  /// Zero for a query the cache served without executing anything.
  double batch_wall_seconds = 0.0;
  /// Critical-path seconds of that round's task graph.
  double critical_path_seconds = 0.0;
  /// True when the noisy-answer cache answered this query with zero
  /// fresh budget (an exact repeat, or a range fully composed from
  /// previously purchased sub-answers). The ledger was not charged.
  bool served_from_cache = false;
  /// Cached sub-answers composed into this answer (0 = none; > 0 with
  /// served_from_cache false means a partial composition that executed
  /// and charged only the uncovered remainder).
  uint32_t cache_sub_answers = 0;
  /// This query's simulated end-to-end latency (provider + aggregator +
  /// network model).
  double simulated_seconds = 0.0;
  /// This query's simulated wire traffic (== real RPC bytes for the
  /// same protocol, by construction).
  uint64_t simulated_network_bytes = 0;
  /// Budget returned to the analyst's grant by a cancellation (the
  /// unexercised shares under the paper's composition accounting).
  PrivacyBudget refunded{0.0, 0.0};
  /// True when deadline eviction cancelled this query before any
  /// protocol stage ran (Options::evict_expired): it resolved to
  /// kDeadlineExceeded and its full charge was refunded.
  bool evicted = false;
};

namespace internal {
struct TicketState;
}  // namespace internal

/// Handle to one submitted query. Cheap to copy (shared state); safe to
/// use from any thread, concurrently with the query executing.
class QueryTicket {
 public:
  QueryTicket();
  QueryTicket(const QueryTicket&);
  QueryTicket(QueryTicket&&) noexcept;
  QueryTicket& operator=(const QueryTicket&);
  QueryTicket& operator=(QueryTicket&&) noexcept;
  ~QueryTicket();

  /// False for a default-constructed handle.
  bool valid() const { return state_ != nullptr; }

  /// The query's arrival sequence number — the position in the client's
  /// deterministic admission order. Unique per client; 0 for an invalid
  /// handle.
  uint64_t id() const;

  /// The spec as submitted (immutable after Submit).
  const QuerySpec& spec() const;

  /// True once the outcome (success or failure) has been delivered.
  bool Done() const;

  /// Blocks until the query completes; returns its response or the
  /// status that stopped it (kCancelled, kDeadlineExceeded, kNotFound
  /// for an unknown analyst, kBudgetExhausted, provider failures, ...).
  Result<QueryResponse> Wait();

  /// Non-blocking Wait: kUnavailable while the query is still pending
  /// or running.
  Result<QueryResponse> TryGet() const;

  /// Requests cancellation. Returns true when the cancellation
  /// determines the outcome: the query had not yet released its
  /// estimate, so it will resolve to kCancelled (or, for a progressive
  /// query, stop refining after the current round) and the unexercised
  /// budget shares flow back to the analyst's grant — the full
  /// (eps, delta) when nothing ran, eps_S + eps_E + delta when only the
  /// summaries were published. Returns false when it is too late (the
  /// estimate was already released, or the query already completed);
  /// the result then stays available and nothing is refunded.
  bool Cancel();

  /// Execution statistics; see TicketStats for field availability.
  TicketStats Stats() const;

  /// Progressive refinement rounds released so far (kProgressive only).
  /// Grows while the query runs; safe to poll.
  std::vector<ProgressiveRound> Refinements() const;

 private:
  friend class FederationClient;
  explicit QueryTicket(std::shared_ptr<internal::TicketState> state);

  std::shared_ptr<internal::TicketState> state_;
};

/// Async, thread-safe session layer over the federation — the public
/// client API. Callers on any thread Submit() QuerySpecs and get
/// QueryTicket handles back immediately; an internal admission thread
/// batches concurrently submitted specs and feeds them through the
/// orchestrator's task-graph scheduler with per-query priority, deadline
/// ordering, and cancellation. It is the one admission path: every
/// private query — from Federation::Query, RunWorkload, the derived and
/// GROUP-BY helpers or the attack harness alike — is charged here, on the
/// ledger whose audit log replays it.
///
/// Determinism contract: specs are admitted — identity-checked,
/// validated, charged against the analyst's ledger, and assigned their
/// provider session ids — strictly in arrival sequence order (the
/// number Submit() assigned under its lock, exposed as QueryTicket::id),
/// never in lock-acquisition or completion order. Because every
/// session's randomness is keyed by (provider seed, session id) and the
/// SMC aggregator stream is chained by explicit graph edges, two runs
/// with the same admission sequence produce bit-identical answers and
/// ledgers regardless of submitter threading, pool size, scheduler,
/// priority mix, or how the sequence happened to split into admission
/// rounds — including a single-threaded phase-barrier client fed the
/// same sequence through one SubmitAll. Priorities and deadlines reorder
/// *scheduling* within a round, never admission.
///
/// Cancellation refunds the unspent budget shares per the paper's
/// composition accounting (see QueryTicket::Cancel). Destruction drains:
/// outstanding queries run to completion first.
class FederationClient {
 public:
  struct Options {
    /// Protocol/runtime configuration (scheduler, pool size, budgets).
    FederationConfig protocol;
    /// Analysts registered at Create (more can join via RegisterAnalyst).
    std::vector<AnalystGrant> analysts;
    /// Cap on specs admitted per round; 0 drains everything pending.
    size_t max_batch_queries = 0;
    /// Start with admission paused (Resume() releases it) — lets tests
    /// and benches build a deterministic burst before execution starts.
    bool start_paused = false;
    /// Enables the noisy-answer cache: exact repeats and fully composed
    /// ranges are served for zero fresh budget; partial overlaps charge
    /// only the uncovered remainder. Off by default — with it off, every
    /// query executes and charges exactly as before.
    bool enable_cache = false;
    /// With the cache enabled, align sub-range reuse to the providers'
    /// cluster cut points (in-process clients only): a remainder that
    /// would touch every cluster the full range touches is re-purchased
    /// whole instead. Leave off for shuffled layouts.
    bool cache_align_to_metadata = false;
    /// Workload-aware budgeting: when > 0, each admitted approximate
    /// query without an explicit QuerySpec::budget override is charged
    /// BudgetPlanner::NextQueryBudget(remaining, plan_horizon) instead of
    /// the configured per-query budget — the grant stretched over an
    /// expected horizon of further queries. 0 disables.
    size_t plan_horizon = 0;
    /// Smallest per-query epsilon the planner will stretch down to.
    double plan_eps_floor = 0.05;
    /// Weighted-fair admission: each round is ordered by deficit-
    /// weighted round-robin across analysts (serve::DeficitFairQueue)
    /// instead of strict arrival order. The fair schedule is a pure
    /// function of (admission sequence, weights), so a sequential replay
    /// of the recorded order stays bit-identical. Off by default — FIFO
    /// arrival order, exactly the pre-serving behavior.
    bool fair_admission = false;
    /// Deadline eviction: an admitted (charged) query whose deadline
    /// passes before any protocol stage ran is cancelled by a watcher,
    /// resolves to kDeadlineExceeded, and its full charge flows back
    /// (RefundableShare at kNotStarted). Never aborts started work. Off
    /// by default.
    bool evict_expired = false;
    /// When set, every budget operation (register/knows/charge/refund/
    /// saving/remaining) goes through this backend instead of the
    /// client's in-process ledger — plug in a serve::RemoteLedger so N
    /// coordinator processes share one LedgerService budget. The local
    /// ledger()/audit_log() accessors then stay empty; the authoritative
    /// state lives in the service.
    std::shared_ptr<serve::LedgerBackend> shared_ledger;
  };

  /// Builds the client over transport-agnostic endpoints. Progressive
  /// queries are unavailable in this mode (they need raw providers).
  static Result<std::unique_ptr<FederationClient>> Create(
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
      const Options& options);

  /// In-process convenience over raw providers; enables kProgressive.
  static Result<std::unique_ptr<FederationClient>> Create(
      std::vector<DataProvider*> providers, const Options& options);

  /// Drains: blocks until every outstanding query completed, then joins
  /// the admission thread.
  ~FederationClient();

  FederationClient(const FederationClient&) = delete;
  FederationClient& operator=(const FederationClient&) = delete;

  /// Enqueues `spec` and returns its handle immediately. Thread-safe.
  /// After shutdown begins, the ticket resolves to kUnavailable.
  QueryTicket Submit(QuerySpec spec);

  /// Atomically enqueues several specs with contiguous arrival sequence
  /// numbers, so a batch is one uninterrupted slice of the admission
  /// sequence (what a synchronous replay submits and then waits on).
  std::vector<QueryTicket> SubmitAll(std::vector<QuerySpec> specs);

  /// Grants a (new) analyst a total (xi, psi). Thread-safe.
  Status RegisterAnalyst(const std::string& analyst, double xi, double psi);

  /// Sets `analyst`'s fair-admission weight (clamped to >= 1) as of the
  /// current arrival position. Thread-safe; no-op semantics while
  /// Options::fair_admission is off.
  void SetAnalystWeight(const std::string& analyst, uint32_t weight);

  /// The executed admission order so far: every query's seq in the exact
  /// order the admission thread processed it (FIFO == arrival order;
  /// fair admission == the DWRR schedule). Replaying these seqs
  /// sequentially reproduces answers and ledgers bit-exactly. Thread-
  /// safe; call while idle for a complete view.
  std::vector<uint64_t> admission_order() const;

  /// Holds admission after the current round; queries queue up.
  void Pause();
  /// Releases a Pause().
  void Resume();
  /// Blocks until no spec is pending and no round is executing.
  void WaitIdle();

  /// Plans `workload` (in intended submission order) for `analyst`
  /// against their remaining grant: which queries the cache would serve
  /// free, what per-query epsilon covers the chargeable rest, and how
  /// many queries are answerable. With Options::plan_horizon set, each
  /// chargeable query is planned at the charge admission would apply
  /// (QueryCharge) to the grant left after the queries before it. Pure
  /// read — charges nothing. The shell's `plan` verb and the bench
  /// harness call this. Thread-safe.
  Result<BudgetPlanner::WorkloadPlan> PlanWorkload(
      const std::string& analyst,
      const std::vector<RangeQuery>& workload) const;

  const AnalystLedger& ledger() const { return ledger_; }
  /// Append-only record of every budget mutation the ledger applied, in
  /// apply order — replayable to reproduce the live ledger bit-exactly
  /// (see BudgetAuditLog). The shell's `audit` verb reads this.
  const obs::BudgetAuditLog& audit_log() const { return audit_log_; }
  /// Read-only view of the owned orchestrator. Only safe to *read*
  /// mutable state (last_batch_stats) while the client is idle;
  /// immutable state (config, schema) is always safe.
  const QueryOrchestrator& orchestrator() const { return orchestrator_; }
  const Schema& schema() const { return orchestrator_.schema(); }
  size_t num_providers() const { return orchestrator_.num_providers(); }
  /// Admission rounds executed so far (diagnostics).
  uint64_t num_batches() const;

 private:
  FederationClient(QueryOrchestrator orchestrator, Options options,
                   std::vector<DataProvider*> providers);

  /// Shared body of the two Create overloads: orchestrator construction
  /// plus initial analyst registration.
  static Result<std::unique_ptr<FederationClient>> CreateImpl(
      std::vector<std::shared_ptr<ProviderEndpoint>> endpoints,
      const Options& options, std::vector<DataProvider*> providers);

  /// Builds and enqueues one ticket under mutex_ (shared by Submit and
  /// SubmitAll; the caller notifies the admission thread).
  QueryTicket EnqueueLocked(QuerySpec spec);

  void AdmissionLoop();
  /// Fair-admission round selection: DWRR over the longest prefix of
  /// pending_ without a progressive spec (those stay FIFO barriers).
  /// Moves up to `take` entries into `round`; unselected entries keep
  /// their arrival positions. Caller holds mutex_.
  void SelectFairLocked(
      size_t take, std::vector<std::shared_ptr<internal::TicketState>>* round);
  /// The per-query charge rule, shared by admission and PlanWorkload:
  /// the spec's override (`requested`, when its epsilon is > 0), else the
  /// planner's stretch of the remaining grant over Options::plan_horizon,
  /// else the configured per-query budget. `remaining` is read only when
  /// the horizon rule applies; when it fails, the default applies.
  PrivacyBudget QueryCharge(
      const PrivacyBudget& requested,
      const std::function<Result<PrivacyBudget>()>& remaining) const;
  /// Admits and executes one contiguous group of batchable specs.
  void RunGroup(std::vector<std::shared_ptr<internal::TicketState>>& group);
  void RunProgressive(const std::shared_ptr<internal::TicketState>& ticket);
  /// Delivers the outcome (and any refund) to a ticket. `refund_set`
  /// passes a precomputed refund; otherwise a cancelled, charged query
  /// is refunded per its frozen composition stage. `seal` publishes the
  /// admission-round stats fields along with the outcome; a round-executed
  /// query is delivered unsealed from its graph-side callback and sealed
  /// by RunGroup once the round's batch stats exist — Stats()/Wait()
  /// block on the seal, so readers never race the admission thread.
  void Deliver(internal::TicketState* ticket, const Status& status,
               const QueryResponse& response,
               const PrivacyBudget* precomputed_refund = nullptr,
               bool seal = true);
  /// Publishes batch stats into a delivered-unsealed ticket and seals it.
  void SealTicket(internal::TicketState* ticket, double batch_wall_seconds,
                  double critical_path_seconds);
  /// Attempts to deliver a zero-budget cache serve (exact hit or full
  /// composition). False when a source entry is still pending in the
  /// current round — RunGroup retries after the round completed.
  bool TryServeCached(internal::TicketState* ticket);
  /// Folds a composed ticket's cached parts and executed remainder into
  /// its final answer. Post-round only: every source is terminal.
  void FinishComposed(internal::TicketState* ticket);

  Options options_;
  QueryOrchestrator orchestrator_;
  /// Declared before ledger_ so it outlives the ledger that points at it.
  obs::BudgetAuditLog audit_log_;
  AnalystLedger ledger_;
  /// Wraps ledger_; budget_ points here unless Options::shared_ledger
  /// overrides it. Every admission-path budget op goes through budget_.
  serve::LocalLedgerBackend local_budget_{&ledger_};
  serve::LedgerBackend* budget_ = nullptr;
  /// Present iff Options::enable_cache. Mutated on the admission thread.
  std::unique_ptr<NoisyAnswerCache> cache_;
  BudgetPlanner planner_;
  /// Non-empty only for the in-process overload; backs kProgressive.
  std::vector<DataProvider*> providers_;
  /// Monotonic clock shared by deadlines and wall stats.
  Stopwatch clock_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::shared_ptr<internal::TicketState>> pending_;
  /// Persistent DWRR state (Options::fair_admission): deficits and ring
  /// rotation carry across admission rounds, so a heavy backlog cannot
  /// re-win the rotation every round — the starvation bound holds even
  /// at max_batch_queries = 1. Weights update at deterministic sequence
  /// points (grant registration, SetAnalystWeight, QuerySpec::weight at
  /// its arrival). Guarded by mutex_.
  serve::DeficitFairQueue fair_queue_;
  /// Highest seq already pushed into fair_queue_ (entries behind a
  /// pending progressive barrier are pushed only once the barrier
  /// clears). Guarded by mutex_.
  uint64_t fair_enqueued_up_to_ = 0;
  /// Seqs in executed admission order (see admission_order()).
  std::vector<uint64_t> admitted_order_;
  uint64_t next_seq_ = 1;
  uint64_t num_batches_ = 0;
  bool paused_ = false;
  bool stopping_ = false;
  bool busy_ = false;
  std::thread admission_;
};

}  // namespace fedaqp

#endif  // FEDAQP_EXEC_FEDERATION_CLIENT_H_
