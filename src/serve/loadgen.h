#ifndef FEDAQP_SERVE_LOADGEN_H_
#define FEDAQP_SERVE_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/federation_client.h"
#include "storage/range_query.h"

namespace fedaqp {
namespace serve {

/// How the open-loop harness spaces arrivals in time.
enum class ArrivalProcess : uint8_t {
  /// Exponential inter-arrival gaps at the offered rate (a Poisson
  /// process — the standard open-system model).
  kPoisson = 0,
  /// Fixed gaps of 1/qps (a metronome).
  kUniform = 1,
  /// Arrivals grouped into instantaneous bursts every
  /// LoadOptions::burst_interval_seconds, sized to hold the offered rate.
  kBurst = 2,
};

/// Workload composition: what fraction of arrivals take each shape. The
/// remainders default to approximate queries at normal priority.
struct LoadMix {
  /// Fraction of arrivals submitted as exact (non-private) queries.
  double exact_fraction = 0.0;
  /// Fraction submitted as progressive refinements (2 rounds each).
  double progressive_fraction = 0.0;
  /// Fractions of arrivals tagged high / low priority (the rest normal).
  double high_fraction = 0.2;
  double low_fraction = 0.2;
  /// Fraction of arrivals that re-submit an earlier arrival's query
  /// verbatim — exercises the noisy-answer cache's exact-repeat path
  /// when the client has Options::enable_cache on.
  double reuse_fraction = 0.0;
};

/// One open-loop run's knobs.
struct LoadOptions {
  /// Offered arrival rate (queries/second). Must be > 0.
  double offered_qps = 100.0;
  /// Length of the arrival schedule, in offered-time seconds.
  double duration_seconds = 1.0;
  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// kBurst only: gap between bursts.
  double burst_interval_seconds = 0.1;
  /// Analysts cycled over arrivals ("<prefix>0" .. "<prefix>N-1"); they
  /// must already hold grants on the client.
  size_t num_analysts = 1;
  std::string analyst_prefix = "a";
  /// Per-query deadline attached to every arrival (<= 0: none). With the
  /// client's evict_expired on, this is what triggers evictions under
  /// overload.
  double deadline_seconds = 0.0;
  /// Seed for the arrival schedule and mix draws: equal seeds offer the
  /// identical schedule (the submission-time jitter of the open loop is
  /// the only nondeterminism left).
  uint64_t seed = 1;
};

/// Latency summary of one priority class (seconds, from Submit to
/// delivery; only successful queries contribute latency samples).
struct ClassReport {
  uint64_t submitted = 0;
  uint64_t ok = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
};

/// Outcome of one open-loop run.
struct LoadReport {
  double offered_qps = 0.0;
  /// Completed-OK queries per wall second — under overload this plateaus
  /// below offered_qps instead of the harness slowing its submissions.
  double achieved_qps = 0.0;
  double wall_seconds = 0.0;
  uint64_t submitted = 0;
  uint64_t ok = 0;
  /// kDeadlineExceeded refusals at admission (deadline already passed).
  uint64_t refused = 0;
  /// Deadline evictions of admitted-but-unstarted work (stats.evicted).
  uint64_t evicted = 0;
  /// kBudgetExhausted refusals.
  uint64_t budget_refused = 0;
  /// Any other failure.
  uint64_t failed = 0;
  /// Successful answers the cache served with zero fresh budget.
  uint64_t cache_served = 0;
  /// Indexed by QueryPriority (kHigh=0, kNormal=1, kLow=2).
  ClassReport per_class[3];
};

/// YCSB-style open-loop driver over a FederationClient: precomputes a
/// seeded arrival schedule (times, analysts, kinds, priorities, reuse
/// picks), then submits each query at its scheduled instant WITHOUT
/// waiting for completions — when the system falls behind, arrivals pile
/// into the admission queue instead of the harness self-throttling, so
/// overload shows up as queueing latency, evictions, and an achieved
/// rate below the offered one (the open-system signature a closed loop
/// hides).
///
/// Per-class latencies are recorded into the obs::MetricRegistry
/// histograms `serve.latency.{high,normal,low}` (reset at run start) and
/// summarized in the returned LoadReport.
class LoadGenerator {
 public:
  /// Queries sampled round-robin per arrival. Must be non-empty.
  LoadGenerator(FederationClient* client, std::vector<RangeQuery> workload);

  /// Runs one open-loop experiment; blocks until every submitted ticket
  /// resolved (WaitIdle + per-ticket Wait).
  LoadReport Run(const LoadOptions& options, const LoadMix& mix);

 private:
  FederationClient* client_;
  std::vector<RangeQuery> workload_;
};

}  // namespace serve
}  // namespace fedaqp

#endif  // FEDAQP_SERVE_LOADGEN_H_
