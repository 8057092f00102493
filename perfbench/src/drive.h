#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

// Load generators over a FederationClient: a closed loop that keeps a fixed
// window of queries outstanding (throughput), an open loop of Poisson
// arrivals timed from their due instants (latency without coordinated
// omission), and a sequential probe. Each returns one Outcome per query.

#include <cstdint>
#include <vector>

#include "exec/federation_client.h"

namespace perfbench {

enum class ArrivalKind : uint8_t {
  /// A private query never issued before in the run.
  kFresh = 0,
  /// An exact repeat of an earlier private arrival (same analyst).
  kRepeat = 1,
  /// A private 1-dim range that overlaps earlier ones (cache composition).
  kOverlap = 2,
  /// A non-private exact query (QueryKind::kExact).
  kExact = 3,
};

struct Arrival {
  fedaqp::QuerySpec spec;
  /// Exact answer of spec.query.
  int64_t truth = 0;
  ArrivalKind kind = ArrivalKind::kFresh;
};

struct Outcome {
  uint64_t seq = 0;
  ArrivalKind kind = ArrivalKind::kFresh;
  bool ok = false;
  double estimate = 0.0;
  int64_t truth = 0;
  /// Submit instant (perfbench::Now clock).
  double submitted = 0.0;
  /// How late the submission ran against its due instant (open loop).
  double lag = 0.0;
  /// Due instant to delivery: lag + TicketStats::wall_seconds.
  double latency = 0.0;
  fedaqp::TicketStats stats;
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double start = 0.0;
  double end = 0.0;
  /// Admission rounds the client ran during the phase.
  uint64_t rounds = 0;
  /// True when the phase ran out of prepared arrivals before its time.
  bool exhausted = false;
};

/// Keeps `window` queries outstanding from one thread for `seconds`,
/// consuming arrivals from `*cursor` up to index `end`, where it stops
/// early (exhausted). Each call's `on_slice(i)` (nullable) runs when
/// elapsed time crosses i * seconds / slices, i = 1..slices-1.
PhaseResult RunClosedLoop(fedaqp::FederationClient* client,
                          const std::vector<Arrival>& arrivals, size_t end,
                          size_t* cursor, size_t window, double seconds,
                          size_t slices = 1,
                          const std::function<void(size_t)>& on_slice = nullptr);

/// Submits Poisson arrivals at `qps` for `seconds` on a seeded schedule,
/// each at its due instant; then waits for every outcome.
PhaseResult RunOpenLoop(fedaqp::FederationClient* client,
                        const std::vector<Arrival>& arrivals, size_t* cursor,
                        double qps, double seconds, uint64_t seed);

/// Upper bound on the arrivals RunOpenLoop consumes at (qps, seconds).
size_t OpenLoopArrivals(double qps, double seconds);

/// Submits `count` arrivals one at a time, each after the previous one
/// completed.
PhaseResult RunSequential(fedaqp::FederationClient* client,
                          const std::vector<Arrival>& arrivals, size_t* cursor,
                          size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
