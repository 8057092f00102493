#include "drive.h"

#include <chrono>
#include <cmath>
#include <deque>
#include <thread>

#include "common/rng.h"
#include "timed.h"

namespace perfbench {

namespace {

struct Pending {
  fedaqp::QueryTicket ticket;
  size_t index = 0;
  double submitted = 0.0;
  double due = 0.0;
  bool ok = false;
  double estimate = 0.0;
};

/// Waits for the outcome (if not yet taken) and the sealed stats.
Outcome Finish(Pending& p, const std::vector<Arrival>& arrivals) {
  Outcome o;
  fedaqp::Result<fedaqp::QueryResponse> r = p.ticket.Wait();
  o.seq = p.ticket.id();
  o.kind = arrivals[p.index].kind;
  o.truth = arrivals[p.index].truth;
  o.ok = r.ok();
  o.estimate = r.ok() ? r.value().estimate : 0.0;
  o.submitted = p.submitted;
  o.lag = p.submitted - p.due;
  o.stats = p.ticket.Stats();
  o.latency = o.lag + o.stats.wall_seconds;
  return o;
}

PhaseResult Closed(fedaqp::FederationClient* client,
                   const std::vector<Arrival>& arrivals, size_t end,
                   size_t* cursor, size_t window, double seconds,
                   size_t max_count, size_t slices,
                   const std::function<void(size_t)>& on_slice) {
  PhaseResult out;
  const uint64_t rounds0 = client->num_batches();
  out.start = Now();
  size_t submitted = 0;
  size_t next_slice = 1;
  std::deque<Pending> inflight;
  // Delivered tickets whose stats are read later: Stats() blocks until the
  // ticket's admission round is sealed, and reading it right after Wait
  // would hold the next submission back to the round's end.
  std::deque<Pending> delivered;

  auto submit = [&] {
    if (*cursor >= end) {
      out.exhausted = true;
      return;
    }
    Pending p;
    p.index = (*cursor)++;
    p.submitted = p.due = Now();
    p.ticket = client->Submit(arrivals[p.index].spec);
    inflight.push_back(std::move(p));
    ++submitted;
  };
  while (inflight.size() < window && submitted < max_count && !out.exhausted) {
    submit();
  }
  while (!inflight.empty()) {
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    p.ticket.Wait();
    const double elapsed = Now() - out.start;
    while (on_slice && next_slice < slices &&
           elapsed >= seconds * next_slice / slices) {
      on_slice(next_slice++);
    }
    if (elapsed < seconds && submitted < max_count && !out.exhausted) submit();
    delivered.push_back(std::move(p));
    if (delivered.size() > 4 * window) {
      out.outcomes.push_back(Finish(delivered.front(), arrivals));
      delivered.pop_front();
    }
  }
  out.end = Now();
  for (Pending& p : delivered) out.outcomes.push_back(Finish(p, arrivals));
  out.rounds = client->num_batches() - rounds0;
  return out;
}

}  // namespace

PhaseResult RunClosedLoop(fedaqp::FederationClient* client,
                          const std::vector<Arrival>& arrivals, size_t end,
                          size_t* cursor, size_t window, double seconds,
                          size_t slices,
                          const std::function<void(size_t)>& on_slice) {
  return Closed(client, arrivals, end, cursor, window, seconds, SIZE_MAX,
                slices, on_slice);
}

PhaseResult RunSequential(fedaqp::FederationClient* client,
                          const std::vector<Arrival>& arrivals, size_t* cursor,
                          size_t count) {
  return Closed(client, arrivals, arrivals.size(), cursor, 1, 1e9, count, 1,
                nullptr);
}

size_t OpenLoopArrivals(double qps, double seconds) {
  const double mean = qps * seconds;
  return static_cast<size_t>(mean + 6.0 * std::sqrt(mean) + 16.0);
}

PhaseResult RunOpenLoop(fedaqp::FederationClient* client,
                        const std::vector<Arrival>& arrivals, size_t* cursor,
                        double qps, double seconds, uint64_t seed) {
  PhaseResult out;
  const uint64_t rounds0 = client->num_batches();
  fedaqp::Rng rng(seed);
  std::vector<Pending> pending;
  pending.reserve(OpenLoopArrivals(qps, seconds));
  out.start = Now();
  double due = out.start;
  while (true) {
    due += -std::log(rng.UniformDoublePositive()) / qps;
    if (due - out.start >= seconds) break;
    if (*cursor >= arrivals.size()) {
      out.exhausted = true;
      break;
    }
    const double wait = due - Now();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    Pending p;
    p.index = (*cursor)++;
    p.due = due;
    p.submitted = Now();
    p.ticket = client->Submit(arrivals[p.index].spec);
    pending.push_back(std::move(p));
  }
  for (Pending& p : pending) out.outcomes.push_back(Finish(p, arrivals));
  out.end = Now();
  out.rounds = client->num_batches() - rounds0;
  return out;
}

}  // namespace perfbench
