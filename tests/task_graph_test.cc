// Tests for the unified task-graph scheduler: graph mechanics (dependency
// order, dynamic fan-out, deterministic first-error reporting, async
// endpoint dispatch). That the barrier-free batch path answers bit for
// bit like the phase barrier, for every pool size, shard count and
// transport, is pinned by tests/determinism_matrix_test.cc.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "exec/task_graph.h"
#include "exec/thread_pool.h"
#include "execute_query.h"
#include "federation/orchestrator.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

/// The registry's scheduler pop counters, as deltas across one Run.
struct PopCounts {
  uint64_t local, steals, urgent, backlog;
};

PopCounts Pops(const RegistryDelta& delta) {
  return {delta("scheduler.local_pops"), delta("scheduler.steals"),
          delta("scheduler.urgent_pops"), delta("scheduler.backlog_pops")};
}

// ------------------------------------------------------------ graph basics --

TEST(TaskGraphTest, RunsDependentsAfterDependencies) {
  ThreadPool pool(4);
  TaskGraph graph(&pool);
  std::mutex mu;
  std::vector<int> order;
  auto record = [&](int id) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(id);
    return Status::OK();
  };
  TaskGraph::TaskId a =
      graph.Add(TaskKey{1, TaskPhase::kGeneric}, [&] { return record(0); });
  TaskGraph::TaskId b = graph.Add(TaskKey{2, TaskPhase::kGeneric},
                                  [&] { return record(1); }, {a});
  TaskGraph::TaskId c = graph.Add(TaskKey{3, TaskPhase::kGeneric},
                                  [&] { return record(2); }, {a});
  graph.Add(TaskKey{4, TaskPhase::kGeneric}, [&] { return record(3); },
            {b, c});
  graph.Run();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);  // the root first
  EXPECT_EQ(order.back(), 3);   // the join last
  EXPECT_TRUE(graph.FirstError().ok());
  EXPECT_EQ(graph.num_tasks(), 4u);
}

TEST(TaskGraphTest, RunsInlineWithoutPool) {
  TaskGraph graph(nullptr);
  const std::thread::id self = std::this_thread::get_id();
  std::vector<int> hits(16, 0);  // unsynchronized: must run on this thread
  for (size_t i = 0; i < hits.size(); ++i) {
    graph.Add(TaskKey{i, TaskPhase::kGeneric}, [&hits, i, self] {
      EXPECT_EQ(std::this_thread::get_id(), self);
      hits[i] += 1;
      return Status::OK();
    });
  }
  graph.Run();
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(TaskGraphTest, EmptyGraphRunReturns) {
  ThreadPool pool(2);
  TaskGraph graph(&pool);
  graph.Run();
  EXPECT_EQ(graph.num_tasks(), 0u);
}

TEST(TaskGraphTest, TasksMayAddTasksWhileRunning) {
  ThreadPool pool(2);
  TaskGraph graph(&pool);
  std::atomic<int> ran{0};
  graph.Add(TaskKey{0, TaskPhase::kGeneric}, [&] {
    for (uint64_t i = 1; i <= 8; ++i) {
      graph.Add(TaskKey{i, TaskPhase::kGeneric}, [&] {
        ran.fetch_add(1);
        return Status::OK();
      });
    }
    return Status::OK();
  });
  graph.Run();
  EXPECT_EQ(ran.load(), 8);
  EXPECT_EQ(graph.num_tasks(), 9u);
}

// Failures are contained per node: dependents still run (the orchestrator
// relies on this to keep its per-query failure semantics), and FirstError
// reports by deterministic key order — never completion order.
TEST(TaskGraphTest, FirstErrorIsDeterministicByKeyOrderNotCompletionOrder) {
  for (int rep = 0; rep < 5; ++rep) {
    ThreadPool pool(4);
    TaskGraph graph(&pool);
    std::atomic<int> dependents_ran{0};
    // The LOWER-keyed failure finishes LAST (it sleeps): key order must
    // still win over completion order.
    TaskGraph::TaskId slow_low =
        graph.Add(TaskKey{1, TaskPhase::kSummary, 0}, [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          return Status::Internal("low key, slow failure");
        });
    TaskGraph::TaskId fast_high =
        graph.Add(TaskKey{2, TaskPhase::kSummary, 1},
                  [&] { return Status::Internal("high key, fast failure"); });
    graph.Add(TaskKey{3, TaskPhase::kCombine}, [&] {
      dependents_ran.fetch_add(1);
      return Status::OK();
    }, {slow_low, fast_high});
    graph.Run();
    EXPECT_EQ(dependents_ran.load(), 1) << "rep " << rep;
    EXPECT_EQ(graph.FirstError().message(), "low key, slow failure")
        << "rep " << rep;
    EXPECT_FALSE(graph.status(slow_low).ok());
    EXPECT_FALSE(graph.status(fast_high).ok());
  }
}

// The shard component of the key orders failures within one phase: an
// explicitly materialized shard node (e.g. a future per-shard retry pass)
// with the lower shard id wins over a higher one that failed first.
TEST(TaskGraphTest, ShardKeyComponentBreaksTiesDeterministically) {
  ThreadPool pool(4);
  TaskGraph graph(&pool);
  graph.Add(TaskKey{1, TaskPhase::kScan, 0, /*shard=*/3},
            [] { return Status::Internal("shard 3 failed"); });
  graph.Add(TaskKey{1, TaskPhase::kScan, 0, /*shard=*/1}, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return Status::Internal("shard 1 failed");
  });
  graph.Run();
  EXPECT_EQ(graph.FirstError().message(), "shard 1 failed");
  EXPECT_EQ((TaskKey{1, TaskPhase::kScan, 0, 1}.ToString()),
            "q1/scan/p0/s1");
}

// Both ready-queue implementations must run the identical graph to the
// identical final state: every task exactly once, same statuses, same
// first error — the queues may only change *when* ready work runs, never
// *what* runs or the key-ordered error report.
TEST(TaskGraphTest, ShardedAndCentralizedQueuesAgreeOnFinalState) {
  auto run = [](ReadyQueueKind queue) {
    ThreadPool pool(4);
    TaskGraph graph(&pool, queue);
    std::atomic<uint64_t> runs{0};
    std::atomic<uint64_t> sum{0};
    for (size_t q = 0; q < 16; ++q) {
      TaskGraph::TaskId root = graph.Add(TaskKey{q, TaskPhase::kGeneric, 0, 0},
                                         [&runs] {
                                           runs.fetch_add(1);
                                           return Status::OK();
                                         });
      std::vector<TaskGraph::TaskId> children;
      for (uint32_t s = 0; s < 8; ++s) {
        children.push_back(graph.Add(
            TaskKey{q, TaskPhase::kGeneric, 1, s},
            [&runs, &sum, q, s] {
              runs.fetch_add(1);
              sum.fetch_add(q * 100 + s);
              if (q == 7 && s == 3) return Status::Internal("q7/s3");
              return Status::OK();
            },
            {root}));
      }
      graph.Add(TaskKey{q, TaskPhase::kGeneric, 2, 0},
                [&runs] {
                  runs.fetch_add(1);
                  return Status::OK();
                },
                children);
    }
    const RegistryDelta delta;
    graph.Run();
    const PopCounts pops = Pops(delta);
    EXPECT_EQ(runs.load(), graph.num_tasks());
    EXPECT_EQ(graph.FirstError().message(), "q7/s3");
    // Only the sharded queue pops from shards.
    EXPECT_EQ(pops.local + pops.steals > 0,
              queue == ReadyQueueKind::kSharded);
    return sum.load();
  };
  EXPECT_EQ(run(ReadyQueueKind::kCentralized), run(ReadyQueueKind::kSharded));
}

// The registry's pop counters must reflect the queue that actually ran:
// sharded pops land on the shards (modulo steals), priority>=2 nodes sink
// to the backlog heap, and the centralized queue books everything as
// urgent pops.
TEST(TaskGraphTest, SchedulerCountersAccountForEveryPop) {
  auto build_and_run = [](ReadyQueueKind queue) {
    ThreadPool pool(4);
    TaskGraph graph(&pool, queue);
    TaskOptions low;
    low.priority = 2;
    for (size_t q = 0; q < 32; ++q) {
      TaskGraph::TaskId root = graph.Add(TaskKey{q, TaskPhase::kGeneric, 0, 0},
                                         [] { return Status::OK(); });
      graph.Add(TaskKey{q, TaskPhase::kGeneric, 1, 0},
                [] { return Status::OK(); }, {root});
      graph.Add(TaskKey{q, TaskPhase::kGeneric, 2, 0},
                [] { return Status::OK(); }, {root}, nullptr, low);
    }
    const RegistryDelta delta;
    graph.Run();
    const PopCounts pops = Pops(delta);
    // Every task was popped from exactly one place.
    EXPECT_EQ(pops.local + pops.steals + pops.urgent + pops.backlog,
              graph.num_tasks());
    return pops;
  };

  const PopCounts central = build_and_run(ReadyQueueKind::kCentralized);
  EXPECT_EQ(central.local, 0u);
  EXPECT_EQ(central.steals, 0u);
  EXPECT_EQ(central.backlog, 0u);  // Centralized: one heap for all.
  EXPECT_EQ(central.urgent, 32u * 3u);

  const PopCounts sharded = build_and_run(ReadyQueueKind::kSharded);
  // The 32 low-priority nodes may only run from the backlog heap.
  EXPECT_EQ(sharded.backlog, 32u);
  // The rest came off the shards, locally or by stealing.
  EXPECT_GT(sharded.local + sharded.steals, 0u);
  EXPECT_EQ(sharded.local + sharded.steals + sharded.urgent, 32u * 2u);
}

// A single-worker pool must fall back to the centralized queue even when
// sharding is requested: with no second worker there is nobody to steal
// from, and the strict total order is the cheaper drain.
TEST(TaskGraphTest, ShardedRequestFallsBackToCentralizedOnOneWorker) {
  ThreadPool pool(1);
  TaskGraph graph(&pool, ReadyQueueKind::kSharded);
  for (size_t q = 0; q < 8; ++q) {
    graph.Add(TaskKey{q, TaskPhase::kGeneric}, [] { return Status::OK(); });
  }
  const RegistryDelta delta;
  graph.Run();
  const PopCounts pops = Pops(delta);
  EXPECT_EQ(pops.local + pops.steals, 0u);
  EXPECT_EQ(pops.urgent, 8u);
}

TEST(TaskGraphTest, ThrowingBodyBecomesStatus) {
  ThreadPool pool(2);
  TaskGraph graph(&pool);
  TaskGraph::TaskId id = graph.Add(TaskKey{7, TaskPhase::kGeneric},
                                   []() -> Status { throw 42; });
  graph.Run();
  EXPECT_EQ(graph.status(id).code(), StatusCode::kInternal);
}

// The in-task fan-out must complete every child without deadlock even
// when the pool is far smaller than the total fan-out — the parent drains
// its own children — mirroring the nested-ParallelFor stress of PR 2.
TEST(TaskGraphTest, FanOutFromManyNodesOnTinyPoolDoesNotDeadlock) {
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  ThreadPool pool(2);
  TaskGraph graph(&pool);
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  for (auto& h : hits) h.store(0);
  for (size_t o = 0; o < kOuter; ++o) {
    graph.Add(TaskKey{o, TaskPhase::kEstimate, static_cast<uint32_t>(o)},
              [&graph, &hits, o] {
                graph.FanOut(kInner, [&hits, o](size_t i) {
                  hits[o * kInner + i].fetch_add(1);
                });
                return Status::OK();
              });
  }
  graph.Run();
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// ForEachShard discovers the scheduler through TaskGraph::Current() and
// fans shards out as child work instead of nesting a ParallelFor whose
// helpers could never run while the graph owns the pool's workers.
TEST(TaskGraphTest, ForEachShardInsideTaskUsesGraphFanOut) {
  ThreadPool pool(3);
  TaskGraph graph(&pool);
  std::atomic<int> covered{0};
  graph.Add(TaskKey{1, TaskPhase::kSummary, 0}, [&] {
    EXPECT_NE(TaskGraph::Current(), nullptr);
    ShardedScanExecutor exec(4, &pool);
    std::vector<double> seconds =
        exec.ForEachShard(12, [&](size_t, ShardRange range) {
          covered.fetch_add(static_cast<int>(range.size()));
        });
    EXPECT_EQ(seconds.size(), 4u);
    return Status::OK();
  });
  graph.Run();
  EXPECT_EQ(covered.load(), 12);
  EXPECT_EQ(TaskGraph::Current(), nullptr);
}

// Shard exceptions keep their PR-2 contract under the graph: contained
// per shard, first-in-shard-order rethrown to the phase body (where the
// orchestrator converts them to a per-endpoint Status).
TEST(TaskGraphTest, ForEachShardExceptionOrderSurvivesGraphMode) {
  ThreadPool pool(3);
  TaskGraph graph(&pool);
  std::string caught;
  graph.Add(TaskKey{1, TaskPhase::kSummary, 0}, [&]() -> Status {
    ShardedScanExecutor exec(4, &pool);
    try {
      exec.ForEachShard(16, [&](size_t shard, ShardRange) {
        if (shard == 2 || shard == 1) {
          throw std::runtime_error("shard " + std::to_string(shard) +
                                   " failed");
        }
      });
    } catch (const std::runtime_error& e) {
      caught = e.what();
    }
    return Status::OK();
  });
  graph.Run();
  EXPECT_EQ(caught, "shard 1 failed");
}

// --------------------------------------------------------- async endpoints --

Schema TinySchema() {
  Schema schema;
  EXPECT_TRUE(schema.AddDimension("a", 100).ok());
  return schema;
}

/// Minimal scripted endpoint with a configurable per-call delay and a
/// RemoteEndpoint-style dispatch thread: IssueAsync parks the closure so
/// the scheduler worker returns immediately.
class AsyncFakeEndpoint : public ProviderEndpoint {
 public:
  AsyncFakeEndpoint(const std::string& name, const Schema& schema,
                    std::chrono::milliseconds delay)
      : delay_(delay) {
    info_.name = name;
    info_.schema = schema;
    info_.cluster_capacity = 64;
    info_.n_min = 4;
  }

  ~AsyncFakeEndpoint() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (worker_.joinable()) worker_.join();
  }

  const EndpointInfo& info() const override { return info_; }

  Result<CoverReply> Cover(const CoverRequest&) override {
    std::this_thread::sleep_for(delay_);
    CoverReply reply;
    reply.should_approximate = true;
    return reply;
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest&) override {
    SummaryReply reply;
    reply.summary.noisy_avg_r = 0.5;
    reply.summary.noisy_n_q = 10.0;
    return reply;
  }
  Result<EstimateReply> Approximate(const ApproximateRequest&) override {
    std::this_thread::sleep_for(delay_);
    EstimateReply reply;
    reply.estimate.estimate = 1.0;
    reply.estimate.noised = true;
    return reply;
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest&) override {
    EstimateReply reply;
    reply.estimate.estimate = 1.0;
    reply.estimate.exact = true;
    return reply;
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest&) override {
    return ExactScanReply{};
  }
  void EndQuery(uint64_t) override {}

  void IssueAsync(std::function<void()> call) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!worker_.joinable()) {
        worker_ = std::thread([this] { Loop(); });
      }
      queue_.push_back(std::move(call));
    }
    cv_.notify_one();
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;
      std::function<void()> call = std::move(queue_.front());
      queue_.pop_front();
      lock.unlock();
      call();
      lock.lock();
    }
  }

  EndpointInfo info_;
  std::chrono::milliseconds delay_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::thread worker_;
};

// With asynchronously issued endpoints, even a single-worker graph keeps
// several providers' round-trips in flight at once: a batch over two
// slow-ish endpoints must take ~max, not ~sum, of their serial times.
TEST(TaskGraphTest, AsyncIssueOverlapsSlowEndpointsDespiteOnePoolWorker) {
  Schema schema = TinySchema();
  const auto delay = std::chrono::milliseconds(30);
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
      std::make_shared<AsyncFakeEndpoint>("p0", schema, delay),
      std::make_shared<AsyncFakeEndpoint>("p1", schema, delay),
      std::make_shared<AsyncFakeEndpoint>("p2", schema, delay),
      std::make_shared<AsyncFakeEndpoint>("p3", schema, delay),
  };
  FederationConfig config;
  config.num_threads = 2;  // pool of 2 drives 4 concurrently-slow providers
  config.seed = 9;
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::CreateFromEndpoints(endpoints, config);
  ASSERT_TRUE(orch.ok()) << orch.status().ToString();
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 50).Build();

  Stopwatch timer;
  std::vector<BatchOutcome> outcomes = ExecuteQueries(*orch, {q, q});
  const double seconds = timer.ElapsedSeconds();
  for (const auto& out : outcomes) ASSERT_TRUE(out.ok());
  // Serial cost: 4 endpoints x 2 queries x (Cover 30ms + Approximate
  // 30ms) = 480ms. Overlapped, the batch pipeline depth is ~2 x 60ms;
  // allow generous slack for CI jitter while staying far below serial.
  // ThreadSanitizer inflates every cv/mutex handoff by tens of ms on a
  // loaded runner, so the wall-clock bound only holds uninstrumented —
  // TSan still gets full value from the run (it is hunting races).
#if defined(__SANITIZE_THREAD__)
  const bool timing_is_meaningful = false;
#elif defined(__has_feature)
  const bool timing_is_meaningful = !__has_feature(thread_sanitizer);
#else
  const bool timing_is_meaningful = true;
#endif
  if (timing_is_meaningful) {
    EXPECT_LT(seconds, 0.360) << "async issue failed to overlap endpoints";
  }
}

}  // namespace
}  // namespace fedaqp
