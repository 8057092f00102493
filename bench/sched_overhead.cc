// Scheduler-overhead bench: raw TaskGraph throughput on trivial task
// bodies, where every microsecond is queue bookkeeping, condvar traffic,
// and steal probes rather than useful work. Sweeps pool sizes {1,4,8} x
// fan-out widths, comparing the centralized strict-total-order heap (the
// pre-overhaul queue, still the 0-1 worker path) against the sharded
// work-stealing queue. Reports tasks/sec per cell and the steal/local-pop
// profile of the sharded runs, read as registry deltas over the best
// metrics-on rep. Emits BENCH_sched_overhead.json.
//
// Each cell is measured twice: observability disabled ("off") and with
// metrics + tracing enabled ("on"). The off column must not trail the on
// column by more than the gate margin — the disabled fast path does
// strictly less work per task (one relaxed load instead of striped adds,
// clock reads, and span recording), so a slower off column means the
// compile-time-inlined enabled check stopped being free. The gate
// compares geomeans across all cells (noise-robust: per-cell jitter on
// trivial 50ns bodies is far above 2%); exit 3 on violation.
//
// Graph shape per "query": one root, `fanout` children of the root, one
// combine depending on all children — the same diamond the federation
// builds per (query, provider), minus the provider work.
//
//   --queries=N --reps=R  (best-of-R per cell)

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "exec/task_graph.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fedaqp {
namespace {

struct Cell {
  size_t pool = 0;
  size_t fanout = 0;
  /// The requested queue kind (labels the row even where kSharded falls
  /// back to the centralized drain for lack of a second worker).
  bool sharded = false;
  /// Observability disabled / enabled columns.
  double tasks_per_sec_off = 0.0;
  double tasks_per_sec_on = 0.0;
  /// Registry deltas of the best metrics-on rep (off counts nothing).
  uint64_t steals = 0;
  uint64_t local_pops = 0;
};

/// Builds and runs one graph configuration `reps` times (plus an untimed
/// warmup); returns best-of tasks/sec. With `best_cell`, also records that
/// run's steal and local-pop deltas there.
double MeasureOnce(size_t pool_size, size_t fanout, ReadyQueueKind queue,
                   size_t num_queries, int reps, Cell* best_cell) {
  auto& reg = obs::MetricRegistry::Global();
  obs::Counter* steals = reg.GetCounter("scheduler.steals");
  obs::Counter* local_pops = reg.GetCounter("scheduler.local_pops");
  double best = 0.0;
  for (int rep = -1; rep < reps; ++rep) {  // rep -1 = warmup, untimed.
    ThreadPool pool(pool_size);
    TaskGraph graph(&pool, queue);
    for (size_t q = 0; q < num_queries; ++q) {
      TaskGraph::TaskId root =
          graph.Add(TaskKey{q, TaskPhase::kGeneric, 0, 0},
                    [] { return Status::OK(); });
      std::vector<TaskGraph::TaskId> children(fanout);
      for (size_t f = 0; f < fanout; ++f) {
        children[f] = graph.Add(
            TaskKey{q, TaskPhase::kGeneric, 1, static_cast<uint32_t>(f)},
            [] { return Status::OK(); }, {root});
      }
      graph.Add(TaskKey{q, TaskPhase::kGeneric, 2, 0},
                [] { return Status::OK(); }, children);
    }
    const uint64_t steals_before = steals->Value();
    const uint64_t local_before = local_pops->Value();
    Stopwatch timer;
    graph.Run();
    const double wall = timer.ElapsedSeconds();
    if (rep < 0) continue;
    const double tps =
        wall > 0 ? static_cast<double>(graph.num_tasks()) / wall : 0.0;
    if (tps > best) {
      best = tps;
      if (best_cell != nullptr) {
        best_cell->steals = steals->Value() - steals_before;
        best_cell->local_pops = local_pops->Value() - local_before;
      }
    }
  }
  return best;
}

Cell RunCell(size_t pool_size, size_t fanout, ReadyQueueKind queue,
             size_t num_queries, int reps) {
  Cell cell;
  cell.pool = pool_size;
  cell.fanout = fanout;
  cell.sharded = queue == ReadyQueueKind::kSharded;
  // Off column: the disabled fast path every production-quiet run takes.
  obs::SetMetricsEnabled(false);
  obs::TraceRecorder::Global().SetEnabled(false);
  cell.tasks_per_sec_off =
      MeasureOnce(pool_size, fanout, queue, num_queries, reps, nullptr);
  // On column: full instrumentation (span per task + per-phase histogram).
  // A bounded ring keeps the hundred-thousand-span runs from growing
  // memory; drop-oldest is fine, throughput is what is measured.
  obs::SetMetricsEnabled(true);
  obs::TraceRecorder::Global().SetEnabled(true);
  cell.tasks_per_sec_on =
      MeasureOnce(pool_size, fanout, queue, num_queries, reps, &cell);
  obs::TraceRecorder::Global().SetEnabled(false);
  obs::TraceRecorder::Global().Clear();
  return cell;
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t num_queries = flags.GetInt("queries", 200);
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  const size_t fanouts[] = {4, 16, 64};
  const size_t pools[] = {1, 4, 8};

  std::vector<Cell> cells;
  for (size_t pool : pools) {
    for (size_t fanout : fanouts) {
      for (ReadyQueueKind queue :
           {ReadyQueueKind::kCentralized, ReadyQueueKind::kSharded}) {
        cells.push_back(RunCell(pool, fanout, queue, num_queries, reps));
      }
    }
  }
  // Leave the process in the default observability state (metrics on).
  obs::SetMetricsEnabled(true);

  std::printf("scheduler overhead: %zu queries per graph, best of %d\n",
              num_queries, reps);
  std::printf("  %-6s %-7s %-12s %14s %14s %8s %10s\n", "pool", "fanout",
              "queue", "tasks/s (off)", "tasks/s (on)", "on/off", "steals");
  double log_sum_off = 0.0;
  double log_sum_on = 0.0;
  size_t measured = 0;
  for (const Cell& c : cells) {
    std::printf("  %-6zu %-7zu %-12s %14.0f %14.0f %7.2f%% %10llu\n", c.pool,
                c.fanout, c.sharded ? "sharded" : "centralized",
                c.tasks_per_sec_off, c.tasks_per_sec_on,
                c.tasks_per_sec_off > 0
                    ? 100.0 * c.tasks_per_sec_on / c.tasks_per_sec_off
                    : 0.0,
                static_cast<unsigned long long>(c.steals));
    if (c.tasks_per_sec_off > 0 && c.tasks_per_sec_on > 0) {
      log_sum_off += std::log(c.tasks_per_sec_off);
      log_sum_on += std::log(c.tasks_per_sec_on);
      ++measured;
    }
  }
  const double geomean_off =
      measured > 0 ? std::exp(log_sum_off / measured) : 0.0;
  const double geomean_on =
      measured > 0 ? std::exp(log_sum_on / measured) : 0.0;
  // Gate: disabled must not be slower than enabled beyond noise. Enabled
  // does strictly more work per task, so off < 0.98*on can only mean the
  // disabled fast path regressed (the "< 2% overhead when off" budget).
  const double kGateRatio = 0.98;
  const bool gate_ok =
      measured == 0 || geomean_off >= kGateRatio * geomean_on;
  std::printf(
      "geomean: %.0f tasks/s off, %.0f on (off/on %.3f, gate >= %.2f): %s\n",
      geomean_off, geomean_on,
      geomean_on > 0 ? geomean_off / geomean_on : 0.0, kGateRatio,
      gate_ok ? "OK" : "FAIL — disabled-path overhead exceeds budget");

  bench::BenchJson json("sched_overhead");
  json.Set("queries", num_queries);
  json.Set("reps", reps);
  for (const Cell& c : cells) {
    const std::string key = "pool" + std::to_string(c.pool) + "_fan" +
                            std::to_string(c.fanout) + "_" +
                            (c.sharded ? "sharded" : "centralized");
    // Unsuffixed = the off column, keeping the key the cross-PR perf
    // trajectory (tools/bench_compare.py) has been tracking all along.
    json.Set(key + "_tasks_per_sec", c.tasks_per_sec_off);
    json.Set(key + "_tasks_per_sec_on", c.tasks_per_sec_on);
    if (c.sharded) {
      json.Set(key + "_steals", c.steals);
      json.Set(key + "_local_pops", c.local_pops);
    }
  }
  json.Set("geomean_tasks_per_sec_off", geomean_off);
  json.Set("geomean_tasks_per_sec_on", geomean_on);
  json.Set("obs_gate_ok", gate_ok ? 1 : 0);
  bench::EmitRegistrySnapshot(&json, "scheduler.");
  json.Write();
  return gate_ok ? 0 : 3;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }
