#ifndef FEDAQP_EXEC_TASK_GRAPH_H_
#define FEDAQP_EXEC_TASK_GRAPH_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "common/status.h"
#include "exec/cancel.h"

namespace fedaqp {

class ProviderEndpoint;
class ThreadPool;

/// Which protocol step a task node performs. Part of the node key and of
/// the deterministic first-error order (lower phases report first).
enum class TaskPhase : uint8_t {
  kSummary = 0,   // provider-side cover + DP summary (steps 1-2)
  kAllocate = 1,  // aggregator-side allocation (step 3)
  kEstimate = 2,  // provider-side sample/scan/estimate or exact bypass (4-6)
  kCombine = 3,   // aggregator-side combination + release (step 7)
  kDeliver = 4,   // per-query outcome callback to the session layer
  kRelease = 5,   // EndQuery session cleanup, pipelined per endpoint
  kScan = 6,      // intra-provider shard work fanned under a phase node
  kGeneric = 7,   // anything outside the protocol (tests, tools)
};

const char* TaskPhaseName(TaskPhase phase);

/// Node key of the unified scheduler: (query, phase, provider, shard).
/// Keys need not be unique — they name work for diagnostics and order
/// failures deterministically; identity is the TaskId. The shard slot
/// keys explicitly materialized shard nodes (phase kScan); the common
/// shard path — FanOut below — instead runs shards as anonymous child
/// work whose time and errors are attributed to the owning phase node.
struct TaskKey {
  /// Provider slot used by aggregator/coordinator-side nodes.
  static constexpr uint32_t kCoordinator = 0xffffffffu;

  uint64_t query = 0;
  TaskPhase phase = TaskPhase::kGeneric;
  uint32_t provider = kCoordinator;
  uint32_t shard = 0;

  std::string ToString() const;
};

/// Deterministic node order for first-error reporting: by query, then
/// phase, then provider, then shard — never by completion time.
bool TaskKeyLess(const TaskKey& a, const TaskKey& b);

/// Scheduling hints attached to a node at Add time. Ready nodes are
/// drained most-urgent-first: lower `priority` value first, then earlier
/// `deadline`, then smaller TaskKey, then insertion order — a total
/// order, so the drain sequence is deterministic for a given graph (the
/// property the deadline/priority tests pin). Dependencies always
/// dominate: urgency only orders nodes that are simultaneously ready,
/// it never runs a node before its deps.
struct TaskOptions {
  /// 0 = most urgent. The session layer maps high/normal/low to 0/1/2.
  uint8_t priority = 1;
  /// Absolute deadline on the caller's clock; only compared against
  /// other nodes' deadlines (earlier = more urgent), never against the
  /// wall clock. Infinity = none.
  double deadline = std::numeric_limits<double>::infinity();
  /// Cooperative cancellation. When, at pop time, the token is
  /// cancelled AND the frozen stage is still below `claim_stage` — so
  /// the body's own Claim(claim_stage) is guaranteed to fail and the
  /// body to self-skip — the node skips the per-endpoint admission gate
  /// and the endpoint's async dispatch queue entirely and runs inline
  /// on the draining worker: a dead stub never occupies a transport
  /// dispatch thread behind live traffic. A cancelled node whose stage
  /// was already granted to a peer does real work and goes through the
  /// gate normally. The body runs exactly once either way.
  std::shared_ptr<QueryCancelToken> cancel;
  /// The stage `cancel`-guarded bodies claim before doing real work;
  /// the default (kNotStarted — always already granted) never bypasses.
  QueryStage claim_stage = QueryStage::kNotStarted;
};

/// Ready-queue implementation selector (see TaskGraph constructor).
/// `kAuto` picks sharded when the pool has 2+ workers and centralized
/// otherwise; the explicit values exist so benchmarks can pit the two
/// against each other on the same graph shape.
enum class ReadyQueueKind : uint8_t { kAuto = 0, kCentralized = 1,
                                      kSharded = 2 };

/// Dependency-tracking scheduler over (query, provider, phase, shard) task
/// nodes: the barrier-free replacement for the orchestrator's lock-step
/// `ParallelFor` phases. Nodes become ready when every dependency has
/// finished (successfully or not — dependents run regardless and inspect
/// shared state themselves, which is how the orchestrator keeps its
/// per-query failure semantics identical to the barrier path) and are
/// drained by the pool's workers plus the `Run` caller. Endpoint-bound
/// nodes are issued through `ProviderEndpoint::IssueAsync`, so a
/// transport-backed endpoint can park the call on its own dispatch thread
/// and free the worker — one slow provider never stalls the graph.
///
/// Ready-queue layout: with 2+ workers the graph runs a sharded
/// work-stealing queue — each worker owns a deque whose front is its LIFO
/// local slot (nodes added from inside a running body land there, still
/// cache-hot) and whose back is the FIFO steal side for idle peers.
/// Urgency still wins globally: claim tokens, high-priority and
/// deadline-bearing nodes go through a central urgent heap every worker
/// checks first, and low-priority nodes sink to a central backlog heap
/// checked only when stealing found nothing — so priority/deadline work
/// is never buried in a busy worker's local deque. With 0–1 workers
/// everything routes through the central heap and the drain order is the
/// exact strict total order (claim, priority, deadline, TaskKey, seq) the
/// PR 5 tests pin — single-threaded drains are bit-for-bit reproducible.
/// Wakeups are batched: a burst of newly-ready nodes costs one condvar
/// signal, and sleepers are signalled only when someone is actually
/// asleep. Each pop adds to one of the registry's `scheduler.local_pops`,
/// `scheduler.steals`, `scheduler.urgent_pops` or `scheduler.backlog_pops`
/// counters as it happens.
///
/// Error containment: a node body returns Status (exceptions are caught
/// and converted); failures never cancel other nodes. `FirstError()`
/// reports the failed node that is smallest in deterministic key order,
/// independent of scheduling.
///
/// Determinism contract: like ParallelFor, the graph guarantees nothing
/// about the order in which *independent* nodes run, only that each runs
/// exactly once after its dependencies. Callers needing reproducible
/// output must key any randomness per node/session, never share a stream
/// across unordered nodes — the federation code is structured this way
/// (per-session provider RNG, aggregator draws chained by explicit
/// dependencies), which is what keeps answers bit-identical for every
/// pool size, priority mix, and schedule interleaving.
///
/// Lifecycle: build with Add (deps must already exist), call Run() exactly
/// once, then read statuses. Task bodies may Add further nodes and may
/// call FanOut; both are thread-safe. The graph must outlive Run() only —
/// it joins nothing at destruction (Run returns only after every worker
/// has left the graph).
class TaskGraph {
 public:
  using TaskId = size_t;
  static constexpr TaskId kNoTask = std::numeric_limits<size_t>::max();

  /// A null (or single-thread) pool runs the whole graph inline on the
  /// Run() caller, in deterministic ready-queue (urgency) order. `queue`
  /// selects the ready-queue implementation; kSharded still needs 2+
  /// workers to actually shard (there is nobody to steal from otherwise).
  explicit TaskGraph(ThreadPool* pool,
                     ReadyQueueKind queue = ReadyQueueKind::kAuto);

  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node that runs `body` once every task in `deps` has finished.
  /// When `endpoint` is non-null the ready node is issued through
  /// `endpoint->IssueAsync` instead of running directly on the draining
  /// worker. `options` carries the node's urgency and cancellation token.
  /// Safe to call from inside running task bodies; `deps` must name
  /// already-added tasks.
  TaskId Add(const TaskKey& key, std::function<Status()> body,
             const std::vector<TaskId>& deps = {},
             ProviderEndpoint* endpoint = nullptr,
             const TaskOptions& options = {});

  /// Runs every node (including ones added while running) to completion.
  /// The caller participates in draining; pool workers help. Call once.
  void Run();

  /// Post-Run introspection.
  size_t num_tasks() const;
  Status status(TaskId id) const;
  /// Status of the smallest-keyed failed node (OK when none failed).
  Status FirstError() const;
  /// Longest dependency chain, weighted by measured per-node body seconds
  /// (async dispatch wait excluded): the latency floor no amount of
  /// parallelism can beat for this batch.
  double CriticalPathSeconds() const;

  /// From inside a running task: runs body(0..n-1) as shard children of
  /// the current node, sharing the graph's ready queue and workers with
  /// every other node (one scheduler for intra- and inter-provider work),
  /// and returns when all n ran. Children are claim tokens, not keyed
  /// nodes: their wall time lands in the parent's measured seconds (the
  /// parent blocks on them) and their errors are the parent's to report.
  /// Claim tokens outrank every queued node — they extend work already
  /// running, so finishing them first unblocks parents soonest. The
  /// caller drains its own children while waiting, so this cannot
  /// deadlock even when every worker is busy. Bodies must not throw
  /// (wrap and rethrow caller-side, as ForEachShard does).
  void FanOut(size_t n, const std::function<void(size_t)>& body);

  /// The graph whose task is executing on the current thread; null
  /// outside task bodies. How blocking code deep in the storage layer
  /// (ForEachShard) discovers it should fan out onto the graph instead
  /// of nesting a second ParallelFor layer.
  static TaskGraph* Current();

  /// The node whose body is executing on the current thread; kNoTask
  /// outside task bodies. A body that adds its own successors names it
  /// as their dependency.
  static TaskId CurrentTask();

 private:
  struct Node {
    TaskKey key;
    std::function<Status()> body;
    ProviderEndpoint* endpoint = nullptr;
    TaskOptions options;
    std::vector<TaskId> deps;
    std::vector<TaskId> dependents;
    size_t unmet_deps = 0;
    bool done = false;
    /// True while this node occupies its endpoint's admission gate (set
    /// on admission or promotion; cancelled bypass nodes never take it).
    bool holds_gate = false;
    Status result = Status::OK();
    double seconds = 0.0;
  };

  /// One in-task fan-out: an index dispenser shared by the parent and any
  /// worker that pops a claim token from the ready queue. Tokens popped
  /// after the batch drained are no-ops, so stale tokens are harmless.
  struct ChildBatch {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    size_t n = 0;
    const std::function<void(size_t)>* body = nullptr;
  };

  /// Ready-queue entry: a node, or a claim token for a child batch,
  /// carrying the urgency fields the heap orders by (copied from the
  /// node so ordering needs no nodes_ lookups).
  struct ReadyItem {
    TaskId node = kNoTask;
    std::shared_ptr<ChildBatch> batch;
    uint8_t priority = 0;
    double deadline = -std::numeric_limits<double>::infinity();
    TaskKey key;
    uint64_t seq = 0;
  };

  /// Heap order: claim tokens first, then (priority, deadline, TaskKey,
  /// insertion seq) — a strict weak ordering with no ties, so the drain
  /// order is deterministic. priority_queue pops its largest element, so
  /// operator() returns true when `a` is LESS urgent than `b`.
  struct LessUrgent {
    bool operator()(const ReadyItem& a, const ReadyItem& b) const;
  };

  /// One worker's slice of the sharded ready queue. Only the owning
  /// worker pushes/pops the front (LIFO, cache-hot); thieves pop the back
  /// (FIFO). Padded so neighboring shards never share a cache line.
  struct alignas(64) Shard {
    std::mutex m;
    std::deque<ReadyItem> dq;
  };

  /// Routes a ready item to the right queue (central heap or a shard) and
  /// bumps the ready count. Caller holds mutex_.
  void PushItemLocked(ReadyItem&& item);
  void PushNodeReadyLocked(TaskId id);
  /// Wakes sleepers for `pushed` newly-ready items: nothing when nobody
  /// sleeps, one signal for one item, a broadcast for a burst — never one
  /// signal per item. Caller holds mutex_.
  void WakeForReadyLocked(size_t pushed);
  /// Pops the most appropriate ready item for worker `slot`: urgent heap,
  /// then own shard front, then other shards' backs, then the backlog
  /// heap. False when every queue looked empty.
  bool TryPop(size_t slot, ReadyItem* item);
  /// Admission/bypass bookkeeping for a popped item, then execution.
  void ProcessItem(ReadyItem& item);
  void DrainUntilFinished();
  void ExecuteNode(TaskId id);
  void OnNodeDone(TaskId id, const Status& status, double seconds);
  void DrainBatch(ChildBatch* batch);
  /// Per-endpoint admission: at most `endpoint->max_concurrent_calls()`
  /// nodes per endpoint execute (or sit on its dispatch threads) at a
  /// time — one for mutex-serialized endpoints, where admitting more
  /// would only park pool workers on that mutex, a small window for
  /// transport endpoints whose dispatch coalesces concurrent calls into
  /// batched wire exchanges. Returns false (and parks the node) when the
  /// endpoint is at capacity; a busy node's completion promotes the most
  /// urgent parked node. Nodes whose cancel token fired bypass the gate
  /// entirely (see TaskOptions).
  bool TryAdmitEndpointNode(TaskId id, ProviderEndpoint* endpoint);
  /// Hands `endpoint`'s admission slot to its most urgent parked node
  /// (re-queued holding the gate) or shrinks the in-flight count. The
  /// caller holds mutex_ and has already cleared the releasing node's
  /// holds_gate.
  void ReleaseEndpointGateLocked(ProviderEndpoint* endpoint);
  /// True when parked node `a` outranks parked node `b` (same order as
  /// the ready heap, with TaskId as the insertion-order tie-break).
  bool MoreUrgentNode(TaskId a, TaskId b) const;

  ThreadPool* pool_;
  /// True when the sharded work-stealing queue is active (2+ workers and
  /// the queue kind allows it); frozen at construction.
  bool sharded_ = false;
  size_t num_shards_ = 0;
  std::unique_ptr<Shard[]> shards_;

  /// Guards nodes_, the central heaps, endpoint gates, and the lifecycle
  /// flags. Shard deques have their own locks; lock order is always
  /// mutex_ -> shard (never the reverse).
  mutable std::mutex mutex_;
  /// Signalled when ready items appear or the graph finishes; waited on
  /// by idle drainers only.
  std::condition_variable cv_ready_;
  /// Signalled on child-batch completion and helper exit; waited on by
  /// FanOut parents and Run. Split from cv_ready_ so a single targeted
  /// ready signal can never be swallowed by a parent's predicate check.
  std::condition_variable cv_done_;
  /// deque: node addresses stay stable across Add while bodies run.
  std::deque<Node> nodes_;
  /// Claim tokens, high-priority and deadline-bearing nodes — and, in
  /// centralized mode, every ready item — in strict LessUrgent order.
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, LessUrgent> ready_;
  /// Low-priority (priority > 1) nodes, drained only when nothing else is
  /// available anywhere.
  std::priority_queue<ReadyItem, std::vector<ReadyItem>, LessUrgent> backlog_;
  uint64_t ready_seq_ = 0;
  /// Round-robin cursor for shard pushes from non-worker threads.
  size_t rr_cursor_ = 0;
  /// Lock-free mirrors of queue occupancy, so the pop path only takes
  /// mutex_ when the central heaps are actually non-empty and the sleep
  /// path can re-check readiness under mutex_ without scanning shards.
  std::atomic<size_t> urgent_count_{0};
  std::atomic<size_t> backlog_count_{0};
  std::atomic<size_t> ready_count_{0};
  /// Next worker slot DrainUntilFinished hands out (caller + helpers).
  std::atomic<size_t> next_slot_{0};
  /// Idle drainers currently in (or entering) cv_ready_ wait. Read and
  /// written under mutex_.
  size_t idle_count_ = 0;

  /// Nodes parked behind endpoint gates right now; its high-water mark
  /// is the registry's `scheduler.parked_peak`.
  size_t parked_count_ = 0;

  /// Per-endpoint admission gate: nodes in flight and nodes parked
  /// waiting for a slot.
  struct EndpointGate {
    size_t in_flight = 0;
    std::vector<TaskId> parked;
  };
  std::map<ProviderEndpoint*, EndpointGate> endpoint_gates_;
  size_t pending_ = 0;
  bool running_ = false;
  bool finished_ = false;
  size_t live_helpers_ = 0;
};

}  // namespace fedaqp

#endif  // FEDAQP_EXEC_TASK_GRAPH_H_
