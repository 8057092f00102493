// Tests for the unified task-graph scheduler: graph mechanics (dependency
// order, dynamic fan-out, deterministic first-error reporting, async
// endpoint dispatch) and the execution-stack guarantee that the
// barrier-free batch path is bit-identical to the sequential and
// phase-barrier paths — answers, ledgers, and SimNetwork byte accounting
// — for every pool size, shard count, and schedule interleaving, both
// in-process and over loopback RPC.

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/stopwatch.h"
#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "exec/task_graph.h"
#include "exec/thread_pool.h"
#include "federation/orchestrator.h"
#include "registry_delta.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "workload/datagen.h"
#include "execute_query.h"

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

// -------------------------------------------- execution-stack determinism --

std::unique_ptr<DataProvider> MakeProvider(size_t rows, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 128;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.storage.shuffle_seed = seed;
  popts.n_min = 4;
  popts.seed = seed * 3 + 1;
  Result<std::unique_ptr<DataProvider>> p = DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

std::vector<std::unique_ptr<DataProvider>> MakeFederation(size_t providers) {
  std::vector<std::unique_ptr<DataProvider>> out;
  for (size_t i = 0; i < providers; ++i) {
    out.push_back(MakeProvider(5000, 301 + 17 * i));
  }
  return out;
}

std::vector<DataProvider*> Ptrs(
    std::vector<std::unique_ptr<DataProvider>>& providers) {
  std::vector<DataProvider*> out;
  for (auto& p : providers) out.push_back(p.get());
  return out;
}

FederationConfig BaseConfig(size_t threads, size_t shards,
                            BatchScheduler scheduler) {
  FederationConfig config;
  config.per_query_budget = {1.0, 1e-3};
  config.sampling_rate = 0.3;
  config.seed = 515;
  config.num_threads = threads;
  config.num_scan_shards = shards;
  config.scheduler = scheduler;
  return config;
}

std::vector<RangeQuery> MixedWorkload() {
  std::vector<RangeQuery> queries;
  for (int i = 0; i < 3; ++i) {
    queries.push_back(
        RangeQueryBuilder(Aggregation::kSum).Where(0, 18 + i, 178).Build());
    queries.push_back(
        RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 160 - i).Build());
  }
  return queries;
}

/// Everything a batch outcome exposes deterministically.
struct Fingerprint {
  std::vector<double> estimates;
  std::vector<std::vector<size_t>> allocations;
  std::vector<size_t> rows_scanned;
  std::vector<uint64_t> network_bytes;
  std::vector<uint64_t> network_messages;
  double spent_epsilon = 0.0;

  bool operator==(const Fingerprint& o) const {
    return estimates == o.estimates && allocations == o.allocations &&
           rows_scanned == o.rows_scanned && network_bytes == o.network_bytes &&
           network_messages == o.network_messages &&
           spent_epsilon == o.spent_epsilon;
  }
};

Fingerprint RunBatch(const FederationConfig& config,
                     const std::vector<RangeQuery>& queries) {
  auto providers = MakeFederation(3);
  Result<QueryOrchestrator> orch =
      QueryOrchestrator::Create(Ptrs(providers), config);
  EXPECT_TRUE(orch.ok());
  std::vector<BatchOutcome> outcomes = ExecuteQueries(*orch, queries);
  Fingerprint fp;
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.ok()) << out.status.ToString();
    fp.estimates.push_back(out.response.estimate);
    fp.allocations.push_back(out.response.allocation);
    fp.rows_scanned.push_back(out.response.breakdown.rows_scanned);
    fp.network_bytes.push_back(out.response.breakdown.network_bytes);
    fp.network_messages.push_back(out.response.breakdown.network_messages);
    fp.spent_epsilon += out.response.spent.epsilon;
  }
  return fp;
}

// The acceptance criterion of the refactor: the task-graph batch path is
// bit-identical to the sequential/batched-barrier paths — answers,
// ledgers, SimNetwork bytes — for pool sizes {1,2,8} x shard counts
// {1,3,16}, under whatever interleaving each run's scheduling produced.
TEST(TaskGraphDeterminismTest, BitIdenticalToBarrierAcrossPoolsAndShards) {
  const std::vector<RangeQuery> queries = MixedWorkload();
  // Reference: the lock-step barrier scheduler, single thread, unsharded.
  const Fingerprint reference =
      RunBatch(BaseConfig(1, 1, BatchScheduler::kPhaseBarrier), queries);
  ASSERT_EQ(reference.estimates.size(), queries.size());

  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t shards : {1u, 3u, 16u}) {
      Fingerprint graph = RunBatch(
          BaseConfig(threads, shards, BatchScheduler::kTaskGraph), queries);
      EXPECT_TRUE(graph == reference)
          << "task graph diverged at pool=" << threads << " shards=" << shards;
      // Same config under the barrier scheduler: also identical.
      Fingerprint barrier = RunBatch(
          BaseConfig(threads, shards, BatchScheduler::kPhaseBarrier), queries);
      EXPECT_TRUE(barrier == reference)
          << "barrier diverged at pool=" << threads << " shards=" << shards;
    }
  }

  // Sequential one-at-a-time execution ties the knot: same answers again.
  auto providers = MakeFederation(3);
  Result<QueryOrchestrator> seq = QueryOrchestrator::Create(
      Ptrs(providers), BaseConfig(1, 1, BatchScheduler::kTaskGraph));
  ASSERT_TRUE(seq.ok());
  for (size_t i = 0; i < queries.size(); ++i) {
    Result<QueryResponse> resp = ExecuteQuery(*seq, queries[i]);
    ASSERT_TRUE(resp.ok());
    EXPECT_DOUBLE_EQ(resp->estimate, reference.estimates[i]) << "query " << i;
  }
}

// Schedule-interleaving stress: repeated pooled runs of the same batch
// must reproduce the same fingerprint every time even though the graph
// interleaves differently run to run.
TEST(TaskGraphDeterminismTest, RepeatedPooledRunsAreStable) {
  const std::vector<RangeQuery> queries = MixedWorkload();
  const FederationConfig config =
      BaseConfig(8, 3, BatchScheduler::kTaskGraph);
  const Fingerprint first = RunBatch(config, queries);
  for (int rep = 0; rep < 4; ++rep) {
    EXPECT_TRUE(RunBatch(config, queries) == first) << "rep " << rep;
  }
}

// SMC release mode draws from the aggregator's single RNG stream at every
// combine; the graph chains combines in submission order, so the stream —
// and therefore every estimate — must match the barrier path bit-for-bit.
TEST(TaskGraphDeterminismTest, SmcModeKeepsAggregatorStreamOrder) {
  std::vector<RangeQuery> queries = MixedWorkload();
  FederationConfig barrier = BaseConfig(1, 1, BatchScheduler::kPhaseBarrier);
  barrier.mode = ReleaseMode::kSmc;
  const Fingerprint reference = RunBatch(barrier, queries);
  for (size_t threads : {2u, 8u}) {
    FederationConfig graph = BaseConfig(threads, 3, BatchScheduler::kTaskGraph);
    graph.mode = ReleaseMode::kSmc;
    EXPECT_TRUE(RunBatch(graph, queries) == reference)
        << "SMC diverged at pool=" << threads;
  }
}

// Per-analyst ledger charges are part of the pinned surface: the client's
// admission refusals and spends must not depend on the scheduler.
TEST(TaskGraphDeterminismTest, EngineLedgersMatchAcrossSchedulers) {
  auto run = [](BatchScheduler scheduler, size_t threads) {
    auto providers = MakeFederation(3);
    FederationClient::Options opts;
    opts.protocol = BaseConfig(threads, 3, scheduler);
    opts.analysts = {{"alice", 1e6, 1e3}, {"bob", 2.5, 1.0}};
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(providers), opts);
    EXPECT_TRUE(client.ok());
    std::vector<QuerySpec> batch;
    for (const RangeQuery& q : MixedWorkload()) {
      batch.push_back({"alice", q});
      batch.push_back({"bob", q});  // bob exhausts after two queries
    }
    std::vector<QueryTicket> tickets = (*client)->SubmitAll(std::move(batch));
    std::vector<std::pair<int, double>> fingerprint;
    for (QueryTicket& ticket : tickets) {
      Result<QueryResponse> out = ticket.Wait();
      fingerprint.emplace_back(static_cast<int>(out.status().code()),
                               out.ok() ? out->estimate : 0.0);
    }
    Result<PrivacyBudget> alice = (*client)->ledger().Spent("alice");
    Result<PrivacyBudget> bob = (*client)->ledger().Spent("bob");
    EXPECT_TRUE(alice.ok());
    EXPECT_TRUE(bob.ok());
    fingerprint.emplace_back(-1, alice->epsilon);
    fingerprint.emplace_back(-2, bob->epsilon);
    return fingerprint;
  };
  auto reference = run(BatchScheduler::kPhaseBarrier, 1);
  EXPECT_EQ(run(BatchScheduler::kTaskGraph, 1), reference);
  EXPECT_EQ(run(BatchScheduler::kTaskGraph, 8), reference);
}

// Failure parity: a provider failing one query mid-batch must produce the
// same per-outcome statuses under both schedulers, and healthy queries
// must keep their answers.
class FailingEndpoint : public ProviderEndpoint {
 public:
  FailingEndpoint(std::shared_ptr<ProviderEndpoint> inner, uint64_t fail_id)
      : inner_(std::move(inner)), fail_id_(fail_id) {}

  const EndpointInfo& info() const override { return inner_->info(); }
  Result<CoverReply> Cover(const CoverRequest& request) override {
    if (request.query_id == fail_id_) {
      return Status::Internal("scripted cover failure");
    }
    return inner_->Cover(request);
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    return inner_->PublishSummary(r);
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    return inner_->Approximate(r);
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& r) override {
    return inner_->ExactAnswer(r);
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& r) override {
    return inner_->ExactFullScan(r);
  }
  void EndQuery(uint64_t id) override { inner_->EndQuery(id); }

 private:
  std::shared_ptr<ProviderEndpoint> inner_;
  uint64_t fail_id_;
};

TEST(TaskGraphDeterminismTest, MidBatchProviderFailureMatchesBarrier) {
  auto run = [](BatchScheduler scheduler, size_t threads) {
    auto providers = MakeFederation(2);
    Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
        MakeInProcessEndpoints(Ptrs(providers));
    EXPECT_TRUE(inner.ok());
    // Query id 2 (the second of the batch) fails at provider 1.
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints = {
        (*inner)[0],
        std::make_shared<FailingEndpoint>((*inner)[1], /*fail_id=*/2)};
    Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
        endpoints, BaseConfig(threads, 1, scheduler));
    EXPECT_TRUE(orch.ok());
    std::vector<BatchOutcome> outcomes =
        ExecuteQueries(*orch, MixedWorkload());
    std::vector<std::pair<int, double>> fingerprint;
    for (const auto& out : outcomes) {
      fingerprint.emplace_back(static_cast<int>(out.status.code()),
                               out.ok() ? out.response.estimate : 0.0);
    }
    return fingerprint;
  };
  auto reference = run(BatchScheduler::kPhaseBarrier, 1);
  int failures = 0;
  for (const auto& entry : reference) {
    if (entry.first != 0) ++failures;
  }
  EXPECT_EQ(failures, 1);  // exactly the scripted query fails
  EXPECT_EQ(run(BatchScheduler::kTaskGraph, 1), reference);
  EXPECT_EQ(run(BatchScheduler::kTaskGraph, 4), reference);
}

// ------------------------------------------------------- loopback parity --

class TaskGraphLoopbackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    providers_.push_back(MakeProvider(12000, 3));
    providers_.push_back(MakeProvider(16000, 5));
    for (auto& p : providers_) {
      Result<std::unique_ptr<RpcProviderServer>> server =
          RpcProviderServer::Start(p.get());
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      servers_.push_back(std::move(server).value());
    }
  }

  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> ConnectRemote() {
    std::vector<std::string> host_ports;
    for (auto& s : servers_) {
      host_ports.push_back("127.0.0.1:" + std::to_string(s->port()));
    }
    return RemoteEndpoint::ConnectAll(host_ports);
  }

  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
};

// Over real loopback sockets — where endpoint tasks ride per-connection
// dispatch threads — the pipelined path must still be bit-identical to
// the in-process barrier reference for every pool size and shard count.
TEST_F(TaskGraphLoopbackTest, PipelinedLoopbackMatchesInProcessBarrier) {
  const std::vector<RangeQuery> queries = MixedWorkload();

  std::vector<DataProvider*> raw;
  for (auto& p : providers_) raw.push_back(p.get());
  Result<QueryOrchestrator> reference_orch = QueryOrchestrator::Create(
      raw, BaseConfig(1, 1, BatchScheduler::kPhaseBarrier));
  ASSERT_TRUE(reference_orch.ok());
  std::vector<BatchOutcome> reference =
      ExecuteQueries(*reference_orch, queries);

  for (size_t threads : {1u, 2u, 8u}) {
    for (size_t shards : {1u, 16u}) {
      Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
          ConnectRemote();
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
          std::move(remote).value(),
          BaseConfig(threads, shards, BatchScheduler::kTaskGraph));
      ASSERT_TRUE(orch.ok()) << orch.status().ToString();
      std::vector<BatchOutcome> outcomes = ExecuteQueries(*orch, queries);
      ASSERT_EQ(outcomes.size(), reference.size());
      for (size_t i = 0; i < outcomes.size(); ++i) {
        ASSERT_TRUE(outcomes[i].ok()) << outcomes[i].status.ToString();
        EXPECT_EQ(outcomes[i].response.estimate,
                  reference[i].response.estimate)
            << "pool=" << threads << " shards=" << shards << " query=" << i;
        EXPECT_EQ(outcomes[i].response.allocation,
                  reference[i].response.allocation);
        EXPECT_EQ(outcomes[i].response.breakdown.network_bytes,
                  reference[i].response.breakdown.network_bytes);
        EXPECT_EQ(outcomes[i].response.breakdown.network_messages,
                  reference[i].response.breakdown.network_messages);
      }
      // All sessions released despite the pipelined shutdown order.
      for (auto& s : servers_) {
        EXPECT_EQ(s->num_open_sessions(), 0u);
      }
    }
  }
}

// Real wire bytes must equal SimNetwork's charges on the pipelined path
// too, plus exactly the outer-header overhead of whatever doorbell
// coalescing happened to occur (the graph reorders calls but never
// changes them; batching only wraps them).
TEST_F(TaskGraphLoopbackTest, PipelinedWireBytesEqualCharges) {
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> remote =
      ConnectRemote();
  ASSERT_TRUE(remote.ok());
  std::vector<RemoteEndpoint*> raw;
  for (auto& e : *remote) raw.push_back(static_cast<RemoteEndpoint*>(e.get()));
  Result<QueryOrchestrator> orch = QueryOrchestrator::CreateFromEndpoints(
      std::move(remote).value(), BaseConfig(4, 1, BatchScheduler::kTaskGraph));
  ASSERT_TRUE(orch.ok());

  uint64_t base = 0;
  for (auto* e : raw) base += e->bytes_sent() + e->bytes_received();
  uint64_t charged = 0;
  std::vector<BatchOutcome> outcomes = ExecuteQueries(*orch, MixedWorkload());
  for (const auto& out : outcomes) {
    ASSERT_TRUE(out.ok());
    charged += out.response.breakdown.network_bytes;
  }
  uint64_t moved = 0;
  uint64_t overhead = 0;
  for (auto* e : raw) {
    moved += e->bytes_sent() + e->bytes_received();
    overhead += e->batch_overhead_bytes();
  }
  EXPECT_EQ(moved - base, charged + overhead);
}

}  // namespace
}  // namespace fedaqp
