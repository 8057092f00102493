#include "exec/task_graph.h"

#include <algorithm>
#include <exception>
#include <tuple>
#include <utility>

#include "common/stopwatch.h"
#include "exec/endpoint.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedaqp {

namespace {

/// The graph, and the node, whose task body is running on this thread
/// (TaskGraph::Current, TaskGraph::CurrentTask). Set around body
/// execution (including on an endpoint's dispatch thread), restored on
/// exit, so nested graphs — not that anything nests them today — would
/// unwind correctly.
thread_local TaskGraph* tls_current_graph = nullptr;
thread_local TaskGraph::TaskId tls_current_task = TaskGraph::kNoTask;

/// The graph this thread is currently draining for, and its shard slot —
/// how PushItemLocked knows whether the pusher owns a LIFO local slot.
/// Distinct from tls_current_graph: an endpoint dispatch thread runs
/// bodies (and pushes dependents) without ever being a drainer.
thread_local TaskGraph* tls_worker_graph = nullptr;
thread_local size_t tls_worker_slot = 0;

/// Three-way compare over the urgency prefix shared by the ready heap
/// and the parked endpoint queues: negative = a more urgent, positive =
/// b more urgent, 0 = tie (the caller resolves ties by its own
/// insertion-order field). One definition, so heap order and parked-node
/// promotion can never drift apart.
/// Per-phase latency histograms, resolved once (enum values are dense,
/// 0..7, so an index lookup keeps the hot path lock-free).
obs::Histogram& PhaseHistogram(TaskPhase phase) {
  static obs::Histogram* hists[] = {
      obs::MetricRegistry::Global().GetHistogram("task.seconds.summary"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.allocate"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.estimate"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.combine"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.deliver"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.release"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.scan"),
      obs::MetricRegistry::Global().GetHistogram("task.seconds.generic"),
  };
  return *hists[static_cast<uint8_t>(phase)];
}

obs::Counter& CompletedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("task.completed");
  return *c;
}

/// The registry's `scheduler.*` metrics, resolved once. They are the only
/// scheduler counters: pops add where they happen, across every graph.
struct SchedulerMetrics {
  obs::MetricRegistry& reg = obs::MetricRegistry::Global();
  obs::Counter* steals = reg.GetCounter("scheduler.steals");
  obs::Counter* local_pops = reg.GetCounter("scheduler.local_pops");
  obs::Counter* urgent_pops = reg.GetCounter("scheduler.urgent_pops");
  obs::Counter* backlog_pops = reg.GetCounter("scheduler.backlog_pops");
  obs::Counter* graphs_run = reg.GetCounter("scheduler.graphs_run");
  obs::Gauge* parked_peak = reg.GetGauge("scheduler.parked_peak");
};
const SchedulerMetrics& Sched() {
  static const SchedulerMetrics metrics;
  return metrics;
}

int CompareUrgency(uint8_t priority_a, double deadline_a, const TaskKey& key_a,
                   uint8_t priority_b, double deadline_b,
                   const TaskKey& key_b) {
  if (priority_a != priority_b) return priority_a < priority_b ? -1 : 1;
  if (deadline_a != deadline_b) return deadline_a < deadline_b ? -1 : 1;
  if (TaskKeyLess(key_a, key_b)) return -1;
  if (TaskKeyLess(key_b, key_a)) return 1;
  return 0;
}

}  // namespace

const char* TaskPhaseName(TaskPhase phase) {
  switch (phase) {
    case TaskPhase::kSummary:
      return "summary";
    case TaskPhase::kAllocate:
      return "allocate";
    case TaskPhase::kEstimate:
      return "estimate";
    case TaskPhase::kCombine:
      return "combine";
    case TaskPhase::kDeliver:
      return "deliver";
    case TaskPhase::kRelease:
      return "release";
    case TaskPhase::kScan:
      return "scan";
    case TaskPhase::kGeneric:
      return "generic";
  }
  return "?";
}

std::string TaskKey::ToString() const {
  std::string out = "q" + std::to_string(query);
  out += "/";
  out += TaskPhaseName(phase);
  if (provider != kCoordinator) out += "/p" + std::to_string(provider);
  if (shard != 0) out += "/s" + std::to_string(shard);
  return out;
}

bool TaskKeyLess(const TaskKey& a, const TaskKey& b) {
  return std::make_tuple(a.query, static_cast<uint8_t>(a.phase), a.provider,
                         a.shard) < std::make_tuple(b.query,
                                                    static_cast<uint8_t>(
                                                        b.phase),
                                                    b.provider, b.shard);
}

bool TaskGraph::LessUrgent::operator()(const ReadyItem& a,
                                       const ReadyItem& b) const {
  const bool a_batch = a.batch != nullptr;
  const bool b_batch = b.batch != nullptr;
  if (a_batch != b_batch) return b_batch;  // claim tokens outrank nodes
  const int urgency = CompareUrgency(a.priority, a.deadline, a.key,
                                     b.priority, b.deadline, b.key);
  if (urgency != 0) return urgency > 0;
  return a.seq > b.seq;
}

TaskGraph* TaskGraph::Current() { return tls_current_graph; }

TaskGraph::TaskId TaskGraph::CurrentTask() { return tls_current_task; }

TaskGraph::TaskGraph(ThreadPool* pool, ReadyQueueKind queue) : pool_(pool) {
  sharded_ = queue != ReadyQueueKind::kCentralized && pool != nullptr &&
             pool->size() > 1;
  if (sharded_) {
    // One shard per pool worker plus one for the Run() caller.
    num_shards_ = pool->size() + 1;
    shards_ = std::make_unique<Shard[]>(num_shards_);
  }
}

TaskGraph::TaskId TaskGraph::Add(const TaskKey& key,
                                 std::function<Status()> body,
                                 const std::vector<TaskId>& deps,
                                 ProviderEndpoint* endpoint,
                                 const TaskOptions& options) {
  std::lock_guard<std::mutex> lock(mutex_);
  const TaskId id = nodes_.size();
  nodes_.emplace_back();
  Node& node = nodes_.back();
  node.key = key;
  node.body = std::move(body);
  node.endpoint = endpoint;
  node.options = options;
  node.deps = deps;
  for (TaskId dep : deps) {
    // Deps must pre-exist; a finished dep does not gate the new node.
    if (!nodes_[dep].done) {
      ++node.unmet_deps;
      nodes_[dep].dependents.push_back(id);
    }
  }
  ++pending_;
  if (node.unmet_deps == 0 && running_) {
    PushNodeReadyLocked(id);
    WakeForReadyLocked(1);
  }
  return id;
}

void TaskGraph::PushItemLocked(ReadyItem&& item) {
  // Caller holds mutex_. Routing: the central urgent heap gets claim
  // tokens, high-priority nodes, and deadline-bearing normal nodes (every
  // worker checks it first, so urgency is honored across shards); the
  // central backlog heap gets low-priority nodes (checked last, so they
  // can never be stolen ahead of normal work); everything else goes to a
  // shard — LIFO to the pushing worker's own (a just-unblocked dependent
  // is cache-hot there), round-robin FIFO when the pusher is not a
  // drainer. Centralized mode sends everything to the urgent heap, whose
  // pop order is the exact strict total order the sequential tests pin.
  const bool urgent =
      !sharded_ || item.batch != nullptr || item.priority < 1 ||
      (item.priority == 1 &&
       item.deadline < std::numeric_limits<double>::infinity());
  if (urgent) {
    ready_.push(std::move(item));
    urgent_count_.fetch_add(1, std::memory_order_release);
  } else if (item.priority > 1) {
    backlog_.push(std::move(item));
    backlog_count_.fetch_add(1, std::memory_order_release);
  } else if (tls_worker_graph == this) {
    Shard& shard = shards_[tls_worker_slot];
    std::lock_guard<std::mutex> shard_lock(shard.m);
    shard.dq.push_front(std::move(item));
  } else {
    Shard& shard = shards_[rr_cursor_++ % num_shards_];
    std::lock_guard<std::mutex> shard_lock(shard.m);
    shard.dq.push_back(std::move(item));
  }
  ready_count_.fetch_add(1, std::memory_order_release);
}

void TaskGraph::PushNodeReadyLocked(TaskId id) {
  const Node& node = nodes_[id];
  ReadyItem item;
  item.node = id;
  item.priority = node.options.priority;
  item.deadline = node.options.deadline;
  item.key = node.key;
  item.seq = ready_seq_++;
  PushItemLocked(std::move(item));
}

void TaskGraph::WakeForReadyLocked(size_t pushed) {
  // Caller holds mutex_, so idle_count_ is exact: sleepers increment it
  // before re-checking ready_count_ under the same mutex, which is what
  // makes skipping the signal when nobody sleeps race-free.
  if (pushed == 0 || idle_count_ == 0) return;
  if (pushed == 1) {
    cv_ready_.notify_one();
  } else {
    cv_ready_.notify_all();
  }
}

void TaskGraph::Run() {
  size_t helpers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    running_ = true;
    for (TaskId id = 0; id < nodes_.size(); ++id) {
      if (!nodes_[id].done && nodes_[id].unmet_deps == 0) {
        PushNodeReadyLocked(id);
      }
    }
    if (pending_ == 0) finished_ = true;
    // All pool workers help: during a batch the graph owns the pool (the
    // same exclusivity the ParallelFor phases assumed).
    if (!finished_ && pool_ != nullptr && pool_->size() > 1) {
      helpers = pool_->size();
    }
    live_helpers_ = helpers;
  }
  if (helpers > 0) {
    std::vector<std::function<void()>> burst;
    burst.reserve(helpers);
    for (size_t t = 0; t < helpers; ++t) {
      burst.emplace_back([this] {
        DrainUntilFinished();
        std::lock_guard<std::mutex> lock(mutex_);
        --live_helpers_;
        cv_done_.notify_all();
      });
    }
    pool_->SubmitBatch(std::move(burst));
  }
  DrainUntilFinished();
  // Wait for every helper to leave the graph before returning: the graph
  // (typically stack-allocated by the orchestrator) may be destroyed
  // immediately after.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return live_helpers_ == 0; });
    running_ = false;
  }
  Sched().graphs_run->Add();
}

bool TaskGraph::TryPop(size_t slot, ReadyItem* item) {
  // Urgent work first, from anywhere: the central heap orders claim
  // tokens and priority/deadline nodes globally.
  if (urgent_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ready_.empty()) {
      *item = ready_.top();
      ready_.pop();
      urgent_count_.fetch_sub(1, std::memory_order_release);
      ready_count_.fetch_sub(1, std::memory_order_release);
      Sched().urgent_pops->Add();
      return true;
    }
  }
  if (sharded_) {
    // Own shard, LIFO front: the node this worker just made ready.
    {
      Shard& shard = shards_[slot];
      std::lock_guard<std::mutex> shard_lock(shard.m);
      if (!shard.dq.empty()) {
        *item = std::move(shard.dq.front());
        shard.dq.pop_front();
        ready_count_.fetch_sub(1, std::memory_order_release);
        Sched().local_pops->Add();
        return true;
      }
    }
    // Steal round, FIFO backs: oldest work first, spreading the sweep
    // start so thieves do not convoy on one victim.
    for (size_t k = 1; k < num_shards_; ++k) {
      Shard& shard = shards_[(slot + k) % num_shards_];
      std::lock_guard<std::mutex> shard_lock(shard.m);
      if (!shard.dq.empty()) {
        *item = std::move(shard.dq.back());
        shard.dq.pop_back();
        ready_count_.fetch_sub(1, std::memory_order_release);
        Sched().steals->Add();
        return true;
      }
    }
  }
  // Low-priority backlog only when everything else ran dry.
  if (backlog_count_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!backlog_.empty()) {
      *item = backlog_.top();
      backlog_.pop();
      backlog_count_.fetch_sub(1, std::memory_order_release);
      ready_count_.fetch_sub(1, std::memory_order_release);
      Sched().backlog_pops->Add();
      return true;
    }
  }
  return false;
}

void TaskGraph::ProcessItem(ReadyItem& item) {
  if (item.batch != nullptr) {
    DrainBatch(item.batch.get());
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Node& node = nodes_[item.node];
    // A node whose doomed stage claim makes its body a self-skipping
    // stub (see TaskOptions::claim_stage) runs inline, never occupying
    // the endpoint gate or a transport dispatch thread behind live
    // traffic. Once cancelled the stage is frozen, so this test cannot
    // race with a peer's claim. A node whose token fired while it was
    // parked arrives holding an inherited gate — hand it straight to the
    // next parked node instead of dragging it through IssueAsync.
    const bool bypass = node.options.cancel != nullptr &&
                        node.options.cancel->cancelled() &&
                        node.options.cancel->stage() <
                            node.options.claim_stage;
    if (bypass && node.holds_gate) {
      node.holds_gate = false;
      ReleaseEndpointGateLocked(node.endpoint);
    }
    if (!bypass && !node.holds_gate && node.endpoint != nullptr) {
      if (!TryAdmitEndpointNode(item.node, node.endpoint)) {
        return;  // parked behind the endpoint's in-flight nodes
      }
      node.holds_gate = true;
    }
  }
  ExecuteNode(item.node);
}

void TaskGraph::DrainUntilFinished() {
  const size_t slot =
      sharded_ ? next_slot_.fetch_add(1, std::memory_order_relaxed) %
                     num_shards_
               : 0;
  TaskGraph* prev_graph = tls_worker_graph;
  const size_t prev_slot = tls_worker_slot;
  tls_worker_graph = this;
  tls_worker_slot = slot;
  for (;;) {
    ReadyItem item;
    if (TryPop(slot, &item)) {
      ProcessItem(item);
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (ready_count_.load(std::memory_order_acquire) == 0) {
      if (finished_) break;
      // idle_count_ is bumped under the same mutex_ every push holds, so
      // a pusher either sees us idle (and signals) or we see its count.
      ++idle_count_;
      cv_ready_.wait(lock, [&] {
        return ready_count_.load(std::memory_order_acquire) > 0 || finished_;
      });
      --idle_count_;
      if (finished_ && ready_count_.load(std::memory_order_acquire) == 0) {
        break;
      }
    }
    // ready_count_ > 0: something appeared (or a pop is still settling);
    // rescan the queues.
  }
  tls_worker_graph = prev_graph;
  tls_worker_slot = prev_slot;
}

bool TaskGraph::TryAdmitEndpointNode(TaskId id, ProviderEndpoint* endpoint) {
  // Caller holds mutex_.
  EndpointGate& gate = endpoint_gates_[endpoint];
  size_t capacity = endpoint->max_concurrent_calls();
  if (capacity == 0) capacity = 1;
  if (gate.in_flight < capacity) {
    ++gate.in_flight;
    return true;
  }
  gate.parked.push_back(id);
  ++parked_count_;
  Sched().parked_peak->SetMax(static_cast<double>(parked_count_));
  return false;
}

void TaskGraph::ReleaseEndpointGateLocked(ProviderEndpoint* endpoint) {
  // Caller holds mutex_ and has cleared the releasing node's holds_gate.
  // Promote the most urgent parked node (it inherits the slot — the
  // in-flight count stays) or shrink the count, dropping the gate
  // entirely once the endpoint is idle.
  auto it = endpoint_gates_.find(endpoint);
  if (it->second.parked.empty()) {
    if (--it->second.in_flight == 0) endpoint_gates_.erase(it);
    return;
  }
  std::vector<TaskId>& parked = it->second.parked;
  size_t best = 0;
  for (size_t i = 1; i < parked.size(); ++i) {
    if (MoreUrgentNode(parked[i], parked[best])) best = i;
  }
  const TaskId promoted = parked[best];
  parked.erase(parked.begin() + static_cast<long>(best));
  --parked_count_;
  nodes_[promoted].holds_gate = true;
  PushNodeReadyLocked(promoted);
  WakeForReadyLocked(1);
}

bool TaskGraph::MoreUrgentNode(TaskId a, TaskId b) const {
  // Caller holds mutex_. Same order as the ready heap; parked nodes have
  // no queue seq, so insertion order falls back to TaskId (Add order).
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  const int urgency =
      CompareUrgency(na.options.priority, na.options.deadline, na.key,
                     nb.options.priority, nb.options.deadline, nb.key);
  if (urgency != 0) return urgency < 0;
  return a < b;
}

void TaskGraph::ExecuteNode(TaskId id) {
  Node* node;
  {
    // Element addresses in the deque are stable, but indexing it races
    // with concurrent Add — resolve the node pointer under the lock once.
    std::lock_guard<std::mutex> lock(mutex_);
    node = &nodes_[id];
  }
  auto execute = [this, id, node] {
    TaskGraph* prev = tls_current_graph;
    const TaskId prev_task = tls_current_task;
    tls_current_graph = this;
    tls_current_task = id;
    Stopwatch timer;
    Status status = Status::OK();
    {
      obs::ScopedSpan span(
          "task", [node] { return node->key.ToString(); }, node->key.query);
      try {
        status = node->body();
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("task graph: node threw: ") +
                                  e.what());
      } catch (...) {
        status = Status::Internal("task graph: node threw");
      }
    }
    double seconds = timer.ElapsedSeconds();
    tls_current_graph = prev;
    tls_current_task = prev_task;
    if (obs::MetricsEnabled()) {
      PhaseHistogram(node->key.phase).Record(seconds);
      CompletedCounter().Add();
    }
    OnNodeDone(id, status, seconds);
  };
  if (node->holds_gate) {
    // Issue half of the async pair: the endpoint decides where the
    // blocking calls run (inline by default; a dispatch thread for
    // transport-backed endpoints). The complete half is OnNodeDone at the
    // closure's tail. Only gate-holding nodes dispatch — a cancelled
    // bypass node runs its (self-skipping) body inline right here.
    node->endpoint->IssueAsync(std::move(execute));
  } else {
    execute();
  }
}

void TaskGraph::OnNodeDone(TaskId id, const Status& status, double seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  Node& node = nodes_[id];
  node.done = true;
  node.result = status;
  node.seconds = seconds;
  size_t woke = 0;
  for (TaskId dep : node.dependents) {
    if (--nodes_[dep].unmet_deps == 0) {
      PushNodeReadyLocked(dep);
      ++woke;
    }
  }
  if (node.holds_gate) {
    node.holds_gate = false;
    ReleaseEndpointGateLocked(node.endpoint);
  }
  if (--pending_ == 0) {
    finished_ = true;
    // Everyone leaves: idle drainers must see finished_.
    cv_ready_.notify_all();
    return;
  }
  // One signal for the whole burst of newly-ready dependents, and only
  // when somebody is actually asleep — the notify_all-per-node here was
  // the scheduler's thundering-herd hotspot.
  WakeForReadyLocked(woke);
}

void TaskGraph::FanOut(size_t n, const std::function<void(size_t)>& body) {
  if (n == 0) return;
  if (n == 1 || pool_ == nullptr || pool_->size() <= 1) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  auto batch = std::make_shared<ChildBatch>();
  batch->n = n;
  batch->body = &body;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // One claim token per worker that could help; the parent needs none.
    // Tokens go through PushItemLocked, which routes them to the urgent
    // heap — globally visible, so any idle worker picks them up.
    const size_t tokens = std::min(pool_->size(), n);
    for (size_t t = 0; t < tokens; ++t) {
      ReadyItem item;
      item.batch = batch;
      item.seq = ready_seq_++;
      PushItemLocked(std::move(item));
    }
    WakeForReadyLocked(tokens);
  }
  DrainBatch(batch.get());
  std::unique_lock<std::mutex> lock(mutex_);
  cv_done_.wait(lock, [&] {
    return batch->done.load(std::memory_order_acquire) == n;
  });
}

void TaskGraph::DrainBatch(ChildBatch* batch) {
  for (;;) {
    const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->n) return;
    (*batch->body)(i);
    if (batch->done.fetch_add(1, std::memory_order_acq_rel) + 1 == batch->n) {
      std::lock_guard<std::mutex> lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

size_t TaskGraph::num_tasks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_.size();
}

Status TaskGraph::status(TaskId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return nodes_[id].result;
}

Status TaskGraph::FirstError() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Node* first = nullptr;
  for (const Node& node : nodes_) {
    if (node.result.ok()) continue;
    if (first == nullptr || TaskKeyLess(node.key, first->key)) first = &node;
  }
  return first != nullptr ? first->result : Status::OK();
}

double TaskGraph::CriticalPathSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Deps always precede dependents in id order (Add requires existing
  // ids), so a single forward pass is a topological DP.
  std::vector<double> longest(nodes_.size(), 0.0);
  double critical = 0.0;
  for (TaskId id = 0; id < nodes_.size(); ++id) {
    double start = 0.0;
    for (TaskId dep : nodes_[id].deps) {
      start = std::max(start, longest[dep]);
    }
    longest[id] = start + nodes_[id].seconds;
    critical = std::max(critical, longest[id]);
  }
  return critical;
}

}  // namespace fedaqp
