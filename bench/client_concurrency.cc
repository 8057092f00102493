// Client-concurrency bench: the async FederationClient under multiple
// submitter threads, against a synchronous replay of the same sequence.
//
// Three experiments over one federation:
//   1. async:  N submitter threads push the workload through
//      FederationClient::Submit; wall time from burst start to idle.
//   2. sync:   the same admission sequence (the one the async run
//      actually produced) replayed as one SubmitAll on a fresh client over
//      an identically rebuilt federation — the determinism gate: every
//      estimate and every analyst ledger must match the async run
//      bit-for-bit, or the bench exits non-zero.
//   3. priority: a paused-burst mixed load (every 5th query high
//      priority, the rest low) executed with priorities honored and
//      all-FIFO. On the full pool it reports the high-priority queries'
//      p50 latency (timing only: stealing makes that order noisy). The
//      verdict reruns both on a 1-worker pool, where the ready queue is a
//      strict total order, and ranks every ticket by completion: the high
//      subset's median rank must come ahead of its FIFO rank.
//
// Emits BENCH_client_concurrency.json. Exit codes: 2 = answers diverged,
// 3 = ledgers diverged (both mean a determinism bug).
//
//   --rows=N --providers=P --queries=M --submitters=S --threads=T --seed=X
//   --repeats=R: best-of-R timing of the async burst, after one untimed
//   warmup run (the determinism gate replays the first timed run)

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "exec/federation_client.h"

namespace fedaqp {
namespace {

/// One query in this many of the mixed burst is high priority.
constexpr size_t kHighEvery = 5;

/// The median completion rank (1 = finished first, by wall time) of the
/// high-priority queries of a mixed burst, given every ticket's wall.
double HighPriorityMedianRank(const std::vector<double>& walls) {
  std::vector<size_t> order(walls.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return walls[a] < walls[b]; });
  std::vector<double> ranks;
  for (size_t r = 0; r < order.size(); ++r) {
    if (order[r] % kHighEvery == 0) ranks.push_back(static_cast<double>(r + 1));
  }
  return bench::Percentile50(ranks);
}

int Run(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  const size_t rows = flags.GetInt("rows", 40000);
  const size_t providers = flags.GetInt("providers", 4);
  const size_t num_queries = flags.GetInt("queries", 24);
  const size_t submitters = flags.GetInt("submitters", 4);
  const size_t threads = flags.GetInt("threads", 4);
  const uint64_t seed = flags.GetInt("seed", 1);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));

  FederationConfig protocol;
  protocol.per_query_budget = {1.0, 1e-3};
  protocol.sampling_rate = 0.2;
  protocol.mode = ReleaseMode::kLocalDp;
  protocol.num_threads = threads;
  protocol.scheduler = BatchScheduler::kTaskGraph;

  auto open_federation = [&] {
    return bench::OpenPaperFederation(bench::Dataset::kAdult, rows, providers,
                                      seed, protocol);
  };
  std::unique_ptr<Federation> fed = open_federation();
  if (!fed) return 1;
  Result<std::vector<RangeQuery>> workload = bench::PaperWorkload(
      fed.get(), num_queries, 2, Aggregation::kCount, seed + 11);
  if (!workload.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 workload.status().ToString().c_str());
    return 1;
  }

  FederationClient::Options copts;
  copts.protocol = protocol;
  for (size_t s = 0; s < submitters; ++s) {
    copts.analysts.push_back({"a" + std::to_string(s), 1e18, 1e9});
  }

  // ---- 1. async: concurrent submitters --------------------------------
  // One untimed warmup, then `repeats` timed bursts (min wall reported).
  // The determinism gate in section 2 replays the first timed burst's
  // admission sequence; later bursts race their own sequences and only
  // contribute timing.
  auto run_async = [&](double* wall, std::vector<QueryTicket>* out_tickets)
      -> Result<std::unique_ptr<FederationClient>> {
    FEDAQP_ASSIGN_OR_RETURN(
        std::unique_ptr<FederationClient> client,
        FederationClient::Create(fed->provider_ptrs(), copts));
    std::mutex collect_mutex;
    std::vector<QueryTicket> collected;
    Stopwatch timer;
    {
      std::vector<std::thread> pool;
      pool.reserve(submitters);
      for (size_t s = 0; s < submitters; ++s) {
        pool.emplace_back([&, s] {
          for (size_t i = s; i < workload->size(); i += submitters) {
            QuerySpec spec;
            spec.analyst = "a" + std::to_string(s);
            spec.query = (*workload)[i];
            QueryTicket ticket = client->Submit(std::move(spec));
            std::lock_guard<std::mutex> lock(collect_mutex);
            collected.push_back(std::move(ticket));
          }
        });
      }
      for (std::thread& t : pool) t.join();
    }
    client->WaitIdle();
    *wall = timer.ElapsedSeconds();
    *out_tickets = std::move(collected);
    return client;
  };

  std::unique_ptr<FederationClient> async_client;
  std::vector<QueryTicket> tickets;
  double async_wall = 0.0;
  for (int rep = -1; rep < repeats; ++rep) {
    double wall = 0.0;
    std::vector<QueryTicket> rep_tickets;
    Result<std::unique_ptr<FederationClient>> client =
        run_async(&wall, &rep_tickets);
    if (!client.ok()) {
      std::fprintf(stderr, "client: %s\n", client.status().ToString().c_str());
      return 1;
    }
    if (rep == -1) continue;  // Warmup: timing and tickets discarded.
    if (rep == 0) {
      async_client = std::move(client).value();
      tickets = std::move(rep_tickets);
      async_wall = wall;
    } else if (wall < async_wall) {
      async_wall = wall;
    }
  }

  // The admission sequence the async run actually chose.
  std::sort(tickets.begin(), tickets.end(),
            [](const QueryTicket& a, const QueryTicket& b) {
              return a.id() < b.id();
            });
  std::vector<QuerySpec> sequence;
  std::vector<double> async_estimates;
  for (QueryTicket& ticket : tickets) {
    Result<QueryResponse> resp = ticket.Wait();
    if (!resp.ok()) {
      std::fprintf(stderr, "async query failed: %s\n",
                   resp.status().ToString().c_str());
      return 1;
    }
    sequence.push_back({ticket.spec().analyst, ticket.spec().query});
    async_estimates.push_back(resp->estimate);
  }

  // ---- 2. sync replay: one batch, one thread --------------------------
  std::unique_ptr<Federation> fed_sync = open_federation();
  if (!fed_sync) return 1;
  FederationClient::Options sync_opts;
  sync_opts.protocol = protocol;
  sync_opts.analysts = copts.analysts;
  Result<std::unique_ptr<FederationClient>> sync_client =
      FederationClient::Create(fed_sync->provider_ptrs(), sync_opts);
  if (!sync_client.ok()) {
    std::fprintf(stderr, "sync client: %s\n",
                 sync_client.status().ToString().c_str());
    return 1;
  }
  Stopwatch sync_timer;
  std::vector<QueryTicket> replayed = (*sync_client)->SubmitAll(sequence);
  std::vector<Result<QueryResponse>> outcomes;
  outcomes.reserve(replayed.size());
  for (QueryTicket& ticket : replayed) outcomes.push_back(ticket.Wait());
  const double sync_wall = sync_timer.ElapsedSeconds();

  bool identical = outcomes.size() == async_estimates.size();
  for (size_t i = 0; identical && i < outcomes.size(); ++i) {
    if (!outcomes[i].ok() || outcomes[i]->estimate != async_estimates[i]) {
      identical = false;
    }
  }
  bool ledgers_match = true;
  for (size_t s = 0; s < submitters; ++s) {
    const std::string analyst = "a" + std::to_string(s);
    Result<PrivacyBudget> a = async_client->ledger().Spent(analyst);
    Result<PrivacyBudget> b = (*sync_client)->ledger().Spent(analyst);
    if (!a.ok() || !b.ok() || a->epsilon != b->epsilon ||
        a->delta != b->delta) {
      ledgers_match = false;
    }
  }

  // ---- 3. priority vs FIFO under a mixed burst ------------------------
  // Every 5th query is latency-sensitive; the burst is built while the
  // client is paused so every run schedules the identical queue content.
  // Fills each ticket's wall time, in submission order.
  auto run_mixed = [&](bool use_priorities, size_t pool_threads,
                       std::vector<double>* walls) -> bool {
    FederationClient::Options mixed_opts = copts;
    mixed_opts.protocol.num_threads = pool_threads;
    mixed_opts.start_paused = true;
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(fed->provider_ptrs(), mixed_opts);
    if (!client.ok()) return false;
    std::vector<QuerySpec> specs;
    for (size_t i = 0; i < workload->size(); ++i) {
      QuerySpec spec;
      spec.analyst = "a" + std::to_string(i % submitters);
      spec.query = (*workload)[i];
      spec.priority = !use_priorities      ? QueryPriority::kNormal
                      : i % kHighEvery == 0 ? QueryPriority::kHigh
                                            : QueryPriority::kLow;
      specs.push_back(std::move(spec));
    }
    std::vector<QueryTicket> burst = (*client)->SubmitAll(std::move(specs));
    (*client)->Resume();
    (*client)->WaitIdle();
    for (QueryTicket& ticket : burst) {
      if (!ticket.Wait().ok()) return false;
      walls->push_back(ticket.Stats().wall_seconds);
    }
    return true;
  };
  std::vector<double> prio, fifo, prio_serial, fifo_serial;
  if (!run_mixed(true, threads, &prio) || !run_mixed(false, threads, &fifo) ||
      !run_mixed(true, 1, &prio_serial) || !run_mixed(false, 1, &fifo_serial)) {
    std::fprintf(stderr, "mixed-load run failed\n");
    return 1;
  }
  const auto p50_of = [](const std::vector<double>& walls, bool high) {
    std::vector<double> picked;
    for (size_t i = 0; i < walls.size(); ++i) {
      if ((i % kHighEvery == 0) == high) picked.push_back(walls[i]);
    }
    return bench::Percentile50(picked);
  };
  const double p50_high_prio = p50_of(prio, true);
  const double p50_low_prio = p50_of(prio, false);
  const double p50_high_fifo = p50_of(fifo, true);
  const double rank_prio = HighPriorityMedianRank(prio_serial);
  const double rank_fifo = HighPriorityMedianRank(fifo_serial);

  const double async_qps = async_wall > 0 ? sequence.size() / async_wall : 0;
  const double sync_qps = sync_wall > 0 ? sequence.size() / sync_wall : 0;
  std::printf(
      "client concurrency: %zu queries, %zu submitters, %zu pool threads\n"
      "  async submit->idle  %9.2f ms  (%.0f q/s)\n"
      "  sync replay         %9.2f ms  (%.0f q/s)\n"
      "  answers %s, ledgers %s\n"
      "  mixed burst p50: high-prio %.3f ms (fifo placement %.3f ms), "
      "low-prio %.3f ms\n"
      "  1-worker completion rank of high-prio queries (median): %.0f "
      "with priorities, %.0f fifo\n",
      sequence.size(), submitters, threads, async_wall * 1e3, async_qps,
      sync_wall * 1e3, sync_qps,
      identical ? "bit-identical" : "DIVERGED (bug!)",
      ledgers_match ? "match" : "DIVERGED (bug!)", p50_high_prio * 1e3,
      p50_high_fifo * 1e3, p50_low_prio * 1e3, rank_prio, rank_fifo);

  bench::BenchJson json("client_concurrency");
  json.Set("rows", rows);
  json.Set("providers", providers);
  json.Set("queries", sequence.size());
  json.Set("submitters", submitters);
  json.Set("threads", threads);
  json.Set("async_wall_seconds", async_wall);
  json.Set("sync_wall_seconds", sync_wall);
  json.Set("async_qps", async_qps);
  json.Set("sync_qps", sync_qps);
  json.Set("p50_high_priority_seconds", p50_high_prio);
  json.Set("p50_high_fifo_seconds", p50_high_fifo);
  json.Set("p50_low_priority_seconds", p50_low_prio);
  json.Set("high_priority_median_rank", rank_prio);
  json.Set("high_fifo_median_rank", rank_fifo);
  json.Set("priority_beats_fifo", rank_prio < rank_fifo ? 1 : 0);
  json.Set("repeats", repeats);
  json.Set("bit_identical", identical ? 1 : 0);
  json.Set("ledgers_match", ledgers_match ? 1 : 0);
  // No answers_checksum here: the async burst's admission sequence is a
  // genuine submission race, so its answers are run-specific by design.
  // The divergence signal is the async-vs-replay gate above (exit 2/3),
  // which the cross-PR comparator checks via bit_identical/ledgers_match.
  json.Write();

  if (!identical) return 2;
  if (!ledgers_match) return 3;
  return 0;
}

}  // namespace
}  // namespace fedaqp

int main(int argc, char** argv) { return fedaqp::Run(argc, argv); }
