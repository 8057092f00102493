// fedaqp_shell — an interactive driver for poking the private federation
// from a terminal or a script. Reads one command per line from stdin;
// `help` lists every verb's syntax, which kVerbs below holds once for
// dispatch, help and usage errors alike. Queries run through the async
// FederationClient: synchronous commands (count/sum/exact/batch) submit
// and wait inline; submit/await/cancel/tickets expose the asynchronous
// surface directly. A session: `open adult 100000 4`, `count 0 20 40`,
// `submit alice count 0 20 40 prio=high`, `await 2`, `status`.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "core/fedaqp.h"
#include "exec/federation_client.h"
#include "federation/derived.h"
#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/transport.h"
#include "serve/ledger_service.h"
#include "serve/loadgen.h"

namespace fedaqp {
namespace {

/// The implicit analyst the synchronous commands charge.
constexpr const char* kShellAnalyst = "shell";
constexpr const char* kNoSession =
    "no federation open (use `open` or `connect`)";
/// What every settings verb reports once its rebuild succeeded.
constexpr const char* kSettingsReport = "ok (ledgers reset)";
/// Caps on counts that become threads or up-front allocations: `threads`
/// starts that many OS threads, `open` generates rows for that many
/// providers, `batch` builds k specs (`rounds=` takes the client's own
/// kMaxProgressiveRounds). A planner horizon past remaining eps / floor
/// only repeats the floor.
constexpr uint64_t kMaxThreads = 256;
constexpr uint64_t kMaxHorizon = 1000000;
constexpr uint64_t kMaxRows = 100000000;
constexpr uint64_t kMaxProviders = 256;
constexpr uint64_t kMaxBatch = 100000;

/// A handler's "arguments do not parse": the dispatcher prints the verb's
/// usage line instead of an error.
Status UsageError() { return Status::InvalidArgument("usage"); }
bool IsUsageError(const Status& st) {
  return st.code() == StatusCode::kInvalidArgument && st.message() == "usage";
}

/// The settings a shell starts with, where they differ from the defaults.
FederationClient::Options ShellOptions() {
  FederationClient::Options options;
  options.protocol.sampling_rate = 0.2;
  options.protocol.total_psi = 0.1;
  options.protocol.num_scan_shards = 1;
  return options;
}

struct ShellState {
  std::unique_ptr<Federation> federation;
  /// The async session layer every query runs through. Owns the
  /// orchestrator (and its admission thread); rebuilt on setting changes.
  std::unique_ptr<FederationClient> client;
  /// Local providers hosted over TCP (`serve`). Declared after
  /// `federation` so they stop before the providers they borrow die.
  std::vector<std::unique_ptr<RpcProviderServer>> servers;
  /// Remote providers this shell coordinates (`connect`). When non-empty
  /// the client runs over these instead of the local federation.
  std::vector<std::shared_ptr<ProviderEndpoint>> remote_endpoints;
  /// Shared budget authority this shell hosts (`serve-ledger`).
  std::unique_ptr<serve::LedgerService> ledger_service;
  /// When set (`ledger connect`), every budget op the client makes goes
  /// through this remote service instead of the in-process ledger; it
  /// survives `open`/setting rebuilds until `ledger off`.
  std::shared_ptr<serve::RemoteLedger> remote_ledger;
  /// `weight` assignments, replayed into each rebuilt client.
  std::map<std::string, uint32_t> analyst_weights;
  /// Outstanding and completed tickets by id (`submit`/`await`/`cancel`).
  std::map<uint64_t, QueryTicket> tickets;
  /// What the settings verbs edit and each rebuild builds the client
  /// from; protocol.total_xi/total_psi is also every analyst's grant.
  FederationClient::Options options = ShellOptions();

  Status Rebuild() {
    if (!federation && remote_endpoints.empty()) {
      return Status::FailedPrecondition(kNoSession);
    }
    options.analysts = {{kShellAnalyst, options.protocol.total_xi,
                         options.protocol.total_psi}};
    // Local providers expose cluster metadata, so the cache can refuse
    // remainders that cross the same cut cells as the full range.
    options.cache_align_to_metadata = remote_endpoints.empty();
    // Deadline eviction rides with fair admission: queued work whose
    // deadline passes before any protocol stage ran is cancelled and
    // fully refunded instead of running to a useless completion.
    options.evict_expired = options.fair_admission;
    options.shared_ledger = remote_ledger;
    // Old tickets belong to the torn-down client; drop the handles
    // (waiters already completed — the client drains at destruction).
    tickets.clear();
    client.reset();
    FEDAQP_ASSIGN_OR_RETURN(
        client,
        remote_endpoints.empty()
            ? FederationClient::Create(federation->provider_ptrs(), options)
            : FederationClient::Create(remote_endpoints, options));
    for (const auto& w : analyst_weights) {
      client->SetAnalystWeight(w.first, w.second);
    }
    return Status::OK();
  }

  /// Applies a changed setting: rebuilds the client when a federation is
  /// open (ledgers restart), then prints `report`. With none open the
  /// setting waits for the next `open` or `connect`.
  Status Reconfigure(const std::string& report) {
    if (federation || !remote_endpoints.empty()) {
      FEDAQP_RETURN_IF_ERROR(Rebuild());
    }
    std::printf("%s\n", report.c_str());
    return Status::OK();
  }

  /// Registers `analyst` with the shell's default grant on first use.
  void EnsureAnalyst(const std::string& analyst) {
    if (!client->ledger().Knows(analyst)) {
      client->RegisterAnalyst(analyst, options.protocol.total_xi,
                              options.protocol.total_psi);
    }
  }
};

// ------------------------------------------------------------- parsing --

/// Reads `<dim lo hi>` triples until the first token that is not one.
RangeQuery ParseRanges(Aggregation agg, std::istringstream& in) {
  std::vector<DimRange> ranges;
  long dim, lo, hi;
  while (in >> dim >> lo >> hi) {
    ranges.push_back(DimRange{static_cast<size_t>(dim), lo, hi});
  }
  return RangeQuery(agg, std::move(ranges));
}

Result<Aggregation> ParseAgg(const std::string& word) {
  if (word == "count") return Aggregation::kCount;
  if (word == "sum") return Aggregation::kSum;
  if (word == "sumsq") return Aggregation::kSumSquares;
  return Status::InvalidArgument("unknown aggregation '" + word + "'");
}

/// A count in [1, max] (max < 10^10), digits only: reading it as size_t
/// would turn "-1" into SIZE_MAX.
Result<uint64_t> ParseCount(const char* what, const std::string& word,
                            uint64_t max) {
  const bool numeric = !word.empty() && word.size() <= 10 &&
                       word.find_first_not_of("0123456789") ==
                           std::string::npos;
  const uint64_t n = numeric ? std::stoull(word) : 0;
  if (n < 1 || n > max) {
    return Status::InvalidArgument(std::string(what) + " must be in [1, " +
                                   std::to_string(max) + "], got '" + word +
                                   "'");
  }
  return n;
}

/// The next word as a count (see ParseCount): `fallback` when the line
/// has no words left, or a usage error without one.
Result<uint64_t> ReadCount(std::istringstream& in, const char* what,
                           uint64_t max,
                           std::optional<uint64_t> fallback = {}) {
  std::string word;
  if (in >> word) return ParseCount(what, word, max);
  if (fallback) return *fallback;
  return UsageError();
}

/// Reads `no` or `yes` into `*flag` (false, true); else a usage error.
Status ParseChoice(std::istringstream& in, const char* no, const char* yes,
                   bool* flag) {
  std::string word;
  in >> word;
  if (word != no && word != yes) return UsageError();
  *flag = word == yes;
  return Status::OK();
}

/// The ticket a `<ticket>` argument names.
Result<QueryTicket*> TicketArg(ShellState& s, std::istringstream& in) {
  unsigned long long id = 0;
  if (!(in >> id)) return UsageError();
  auto it = s.tickets.find(id);
  if (it == s.tickets.end()) {
    return Status::NotFound("no ticket " + std::to_string(id));
  }
  return &it->second;
}

// ------------------------------------------------------------ printing --

/// Indexed by QueryPriority (and by LoadReport::per_class).
const char* const kPriorityNames[] = {"high", "normal", "low"};

const char* PriorityName(QueryPriority priority) {
  return kPriorityNames[static_cast<size_t>(priority)];
}

void PrintResponse(const char* label, const QueryResponse& resp) {
  std::printf("%s = %.1f", label, resp.estimate);
  if (resp.stderr_estimate > 0.0) {
    std::printf("  (stderr %.1f)", resp.stderr_estimate);
  }
  std::printf("  [%.2f ms, %zu rows scanned]\n",
              resp.breakdown.TotalSeconds() * 1e3,
              resp.breakdown.rows_scanned);
}

void PrintTicketOutcome(QueryTicket& ticket) {
  const unsigned long long id = ticket.id();
  Result<QueryResponse> result = ticket.Wait();
  const TicketStats stats = ticket.Stats();
  if (!result.ok()) {
    std::printf("ticket %llu: %s", id, result.status().ToString().c_str());
    if (stats.refunded.epsilon > 0.0 || stats.refunded.delta > 0.0) {
      std::printf("  (refunded eps=%.4f, delta=%.6f)",
                  stats.refunded.epsilon, stats.refunded.delta);
    }
    std::printf("\n");
    return;
  }
  const std::string label = "ticket " + std::to_string(id);
  PrintResponse(label.c_str(), *result);
  if (stats.served_from_cache) {
    std::printf("    served from cache (%u purchased sub-answers reused) — "
                "zero budget charged\n", stats.cache_sub_answers);
  }
  for (const ProgressiveRound& r : ticket.Refinements()) {
    std::printf("    round %zu: %.1f (stderr %.1f, eps spent %.4f)\n",
                r.round, r.estimate, r.stderr_estimate, r.spent.epsilon);
  }
  std::printf("    wall %.2f ms, simulated %.2f ms, %llu bytes on the wire\n",
              stats.wall_seconds * 1e3, stats.simulated_seconds * 1e3,
              static_cast<unsigned long long>(stats.simulated_network_bytes));
}

// ------------------------------------------------------------- session --

Status Open(ShellState& s, std::istringstream& in) {
  std::string dataset;
  in >> dataset;
  FEDAQP_ASSIGN_OR_RETURN(const size_t rows, ReadCount(in, "rows", kMaxRows));
  FEDAQP_ASSIGN_OR_RETURN(const size_t providers,
                          ReadCount(in, "providers", kMaxProviders, 4));
  uint64_t seed = 1;
  in >> seed;
  SyntheticConfig cfg;
  std::vector<size_t> tensor_dims;
  if (dataset == "adult") {
    cfg = AdultConfig(rows, seed);
    tensor_dims = AdultTensorDims();
  } else if (dataset == "amazon") {
    cfg = AmazonConfig(rows, seed);
    tensor_dims = AmazonTensorDims();
  } else {
    return UsageError();
  }
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<Table> parts,
      GenerateFederatedTensors(cfg, tensor_dims, providers));
  size_t cells = 0;
  for (const auto& t : parts) cells += t.num_rows();
  FederationOptions opts;
  opts.cluster_capacity = std::max<size_t>(256, cells / providers / 50);
  opts.layout = ClusterLayout::kShuffled;
  opts.n_min = 8;
  opts.seed = seed;
  FEDAQP_ASSIGN_OR_RETURN(std::unique_ptr<Federation> fed,
                          Federation::Open(std::move(parts), opts));
  // Stop serving and drain the client BEFORE replacing the federation:
  // both hold raw pointers into the old providers.
  s.servers.clear();
  s.tickets.clear();
  s.client.reset();
  s.federation = std::move(fed);
  // A locally opened federation takes over from any remote session.
  s.remote_endpoints.clear();
  FEDAQP_RETURN_IF_ERROR(s.Rebuild());
  std::printf("opened %s: %zu providers, %zu cells, schema: %s\n",
              dataset.c_str(), providers, cells,
              s.federation->schema().ToString().c_str());
  return Status::OK();
}

Status Budget(ShellState& s, std::istringstream& in) {
  FederationConfig& config = s.options.protocol;
  PrivacyBudget per_query;
  double xi = 0.0, psi = 0.0;
  if (!(in >> per_query.epsilon >> per_query.delta >> xi >> psi)) {
    return UsageError();
  }
  config.per_query_budget = per_query;
  config.total_xi = xi;
  config.total_psi = psi;
  return s.Reconfigure(kSettingsReport);
}

Status Rate(ShellState& s, std::istringstream& in) {
  double rate = 0.0;
  if (!(in >> rate)) return UsageError();
  s.options.protocol.sampling_rate = rate;
  return s.Reconfigure(kSettingsReport);
}

Status Mode(ShellState& s, std::istringstream& in) {
  bool smc = false;
  FEDAQP_RETURN_IF_ERROR(ParseChoice(in, "dp", "smc", &smc));
  s.options.protocol.mode = smc ? ReleaseMode::kSmc : ReleaseMode::kLocalDp;
  return s.Reconfigure(kSettingsReport);
}

Status Threads(ShellState& s, std::istringstream& in) {
  FEDAQP_ASSIGN_OR_RETURN(const size_t threads,
                          ReadCount(in, "threads", kMaxThreads));
  // Optional second arg: intra-provider scan shards sharing the pool.
  FEDAQP_ASSIGN_OR_RETURN(
      const size_t shards,
      ReadCount(in, "scan shards", kMaxThreads,
                s.options.protocol.num_scan_shards));
  s.options.protocol.num_threads = threads;
  s.options.protocol.num_scan_shards = shards;
  return s.Reconfigure(kSettingsReport);
}

Status Sched(ShellState& s, std::istringstream& in) {
  bool barrier = false;
  FEDAQP_RETURN_IF_ERROR(ParseChoice(in, "graph", "barrier", &barrier));
  s.options.protocol.scheduler =
      barrier ? BatchScheduler::kPhaseBarrier : BatchScheduler::kTaskGraph;
  return s.Reconfigure(kSettingsReport);
}

Status Cache(ShellState& s, std::istringstream& in) {
  FederationClient::Options& o = s.options;
  bool on = false;
  FEDAQP_RETURN_IF_ERROR(ParseChoice(in, "off", "on", &on));
  FEDAQP_ASSIGN_OR_RETURN(const uint64_t horizon,  // none: no planner
                          ReadCount(in, "horizon", kMaxHorizon, 0));
  o.enable_cache = on;
  o.plan_horizon = horizon;
  if (o.enable_cache && o.plan_horizon > 0) {
    return s.Reconfigure("cache on, planner horizon " +
                         std::to_string(o.plan_horizon) + " (ledgers reset)");
  }
  return s.Reconfigure(std::string("cache ") +
                       (o.enable_cache ? "on" : "off") + " (ledgers reset)");
}

Status Fair(ShellState& s, std::istringstream& in) {
  bool& fair = s.options.fair_admission;
  FEDAQP_RETURN_IF_ERROR(ParseChoice(in, "off", "on", &fair));
  return s.Reconfigure(fair
                           ? "fair admission on: DWRR over analyst weights + "
                             "deadline eviction (ledgers reset)"
                           : "fair admission off: FIFO arrival order "
                             "(ledgers reset)");
}

Status Weight(ShellState& s, std::istringstream& in) {
  std::string analyst, word;
  if (!(in >> analyst >> word)) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(const uint32_t w,
                          ParseCount("weight", word, UINT32_MAX));
  s.analyst_weights[analyst] = w;
  if (s.client) s.client->SetAnalystWeight(analyst, w);
  std::printf("weight[%s] = %u%s\n", analyst.c_str(), w,
              s.options.fair_admission ? ""
                                       : " (takes effect with `fair on`)");
  return Status::OK();
}

// ------------------------------------------------------------- queries --

Status Query(ShellState& s, Aggregation agg, QueryKind kind,
             std::istringstream& in) {
  QuerySpec spec;
  spec.analyst = kShellAnalyst;
  spec.query = ParseRanges(agg, in);
  spec.kind = kind;
  FEDAQP_ASSIGN_OR_RETURN(QueryResponse resp,
                          s.client->Submit(std::move(spec)).Wait());
  PrintResponse(kind == QueryKind::kExact ? "exact" : "private", resp);
  return Status::OK();
}

template <Aggregation agg>
Status Private(ShellState& s, std::istringstream& in) {
  return Query(s, agg, QueryKind::kApproximate, in);
}

Status Exact(ShellState& s, std::istringstream& in) {
  std::string word;
  if (!(in >> word)) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(Aggregation agg, ParseAgg(word));
  return Query(s, agg, QueryKind::kExact, in);
}

Status Batch(ShellState& s, std::istringstream& in) {
  std::string k_word, agg_word;
  if (!(in >> k_word >> agg_word)) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(size_t k,
                          ParseCount("batch size", k_word, kMaxBatch));
  FEDAQP_ASSIGN_OR_RETURN(Aggregation agg, ParseAgg(agg_word));
  const RangeQuery q = ParseRanges(agg, in);
  // Pause around the burst so the whole batch lands in one admission
  // round — the batch stats below then describe exactly these k.
  s.client->Pause();
  std::vector<QuerySpec> specs(k);
  for (QuerySpec& spec : specs) {
    spec.analyst = kShellAnalyst;
    spec.query = q;
  }
  std::vector<QueryTicket> batch_tickets =
      s.client->SubmitAll(std::move(specs));
  s.client->Resume();
  size_t answered = 0;
  double simulated_total = 0.0;
  for (size_t i = 0; i < batch_tickets.size(); ++i) {
    Result<QueryResponse> resp = batch_tickets[i].Wait();
    if (!resp.ok()) {
      std::printf("  [%zu] error: %s\n", i, resp.status().ToString().c_str());
      continue;
    }
    const QueryBreakdown& b = resp->breakdown;
    std::printf(
        "  [%zu] %.1f  (%.2f ms simulated: providers %.2f, "
        "aggregator %.2f, network %.2f)\n",
        i, resp->estimate, b.TotalSeconds() * 1e3,
        b.provider_compute_seconds * 1e3, b.aggregator_compute_seconds * 1e3,
        b.network_seconds * 1e3);
    simulated_total += b.TotalSeconds();
    ++answered;
  }
  s.client->WaitIdle();
  const BatchRunStats& stats = s.client->orchestrator().last_batch_stats();
  std::printf(
      "batch: %zu/%zu answered; %.2f ms simulated critical path "
      "(sum over queries); %.2f ms wall, %.2f ms critical path as "
      "scheduled\n",
      answered, batch_tickets.size(), simulated_total * 1e3,
      stats.wall_seconds * 1e3, stats.critical_path_seconds * 1e3);
  return Status::OK();
}

Status Submit(ShellState& s, std::istringstream& in) {
  QuerySpec spec;
  std::string agg_word;
  if (!(in >> spec.analyst >> agg_word)) return UsageError();
  if (agg_word == "exact") {
    spec.kind = QueryKind::kExact;
    if (!(in >> agg_word)) return UsageError();
  }
  FEDAQP_ASSIGN_OR_RETURN(Aggregation agg, ParseAgg(agg_word));
  spec.query = ParseRanges(agg, in);
  // ParseRanges stopped at the first non-numeric token; the rest of the
  // line is trailing key=value options.
  in.clear();
  std::string opt;
  while (in >> opt) {
    if (opt.rfind("prio=", 0) == 0) {
      const std::string p = opt.substr(5);
      size_t level = 0;
      while (level < 3 && p != kPriorityNames[level]) ++level;
      if (level == 3) {
        return Status::InvalidArgument("unknown priority '" + p + "'");
      }
      spec.priority = static_cast<QueryPriority>(level);
    } else if (opt.rfind("deadline=", 0) == 0) {
      spec.deadline_seconds = std::atof(opt.c_str() + 9);
    } else if (opt.rfind("rounds=", 0) == 0) {
      if (spec.kind == QueryKind::kExact) {
        return Status::InvalidArgument(
            "rounds= does not combine with exact (the exact baseline has "
            "no refinement rounds)");
      }
      spec.kind = QueryKind::kProgressive;
      FEDAQP_ASSIGN_OR_RETURN(spec.progressive_rounds,
                              ParseCount("rounds", opt.substr(7),
                                         kMaxProgressiveRounds));
    } else {
      return Status::InvalidArgument("unknown option '" + opt + "'");
    }
  }
  if (spec.kind != QueryKind::kExact) s.EnsureAnalyst(spec.analyst);
  QueryTicket ticket = s.client->Submit(std::move(spec));
  s.tickets.emplace(ticket.id(), ticket);
  std::printf("ticket %llu submitted (analyst=%s, prio=%s)\n",
              static_cast<unsigned long long>(ticket.id()),
              ticket.spec().analyst.c_str(),
              PriorityName(ticket.spec().priority));
  return Status::OK();
}

Status Await(ShellState& s, std::istringstream& in) {
  FEDAQP_ASSIGN_OR_RETURN(QueryTicket* ticket, TicketArg(s, in));
  PrintTicketOutcome(*ticket);
  return Status::OK();
}

Status Cancel(ShellState& s, std::istringstream& in) {
  FEDAQP_ASSIGN_OR_RETURN(QueryTicket* ticket, TicketArg(s, in));
  std::printf(ticket->Cancel()
                  ? "ticket %llu cancelled (unspent budget refunded at "
                    "delivery)\n"
                  : "ticket %llu: too late to cancel (result stands)\n",
              static_cast<unsigned long long>(ticket->id()));
  return Status::OK();
}

Status Tickets(ShellState& s, std::istringstream&) {
  if (s.tickets.empty()) std::printf("no tickets\n");
  for (auto& entry : s.tickets) {
    QueryTicket& ticket = entry.second;
    std::printf("  %llu  %-8s prio=%-6s ",
                static_cast<unsigned long long>(entry.first),
                ticket.spec().kind == QueryKind::kExact
                    ? "exact"
                    : ticket.spec().analyst.c_str(),
                PriorityName(ticket.spec().priority));
    if (!ticket.Done()) {
      std::printf("pending\n");
      continue;
    }
    Result<QueryResponse> resp = ticket.TryGet();
    if (resp.ok()) {
      std::printf("done: %.1f\n", resp->estimate);
    } else {
      std::printf("%s\n", resp.status().ToString().c_str());
    }
  }
  return Status::OK();
}

Status GroupBy(ShellState& s, std::istringstream& in) {
  long group_dim = 0;
  std::string agg_word;
  if (!(in >> group_dim >> agg_word)) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(Aggregation agg, ParseAgg(agg_word));
  const RangeQuery base = ParseRanges(agg, in);
  GroupByOptions gbo;
  gbo.group_dim = static_cast<size_t>(group_dim);
  // Every bucket is admitted and charged on the shell analyst's ledger.
  FEDAQP_ASSIGN_OR_RETURN(GroupByResult grouped,
                          PrivateGroupBy(*s.client, kShellAnalyst, base, gbo));
  for (const auto& b : grouped.buckets) {
    std::printf("  %lld: %.0f\n", static_cast<long long>(b.group_value),
                b.estimate);
  }
  std::printf("(parallel composition: eps=%.4f for all %zu buckets)\n",
              grouped.spent.epsilon, grouped.buckets.size());
  return Status::OK();
}

Status Plan(ShellState& s, std::istringstream& in) {
  std::string analyst;
  if (!(in >> analyst)) return UsageError();
  std::vector<RangeQuery> workload;
  std::string agg_word;
  while (in >> agg_word) {
    if (agg_word == "/") continue;
    FEDAQP_ASSIGN_OR_RETURN(Aggregation agg, ParseAgg(agg_word));
    workload.push_back(ParseRanges(agg, in));
    // ParseRanges stops (failbit) at the '/' separator; recover.
    in.clear();
  }
  if (workload.empty()) return UsageError();
  s.EnsureAnalyst(analyst);
  FEDAQP_ASSIGN_OR_RETURN(BudgetPlanner::WorkloadPlan plan,
                          s.client->PlanWorkload(analyst, workload));
  for (size_t i = 0; i < plan.queries.size(); ++i) {
    const BudgetPlanner::PlannedQuery& pq = plan.queries[i];
    if (pq.predicted_cached) {
      std::printf("  [%zu] cached — free\n", i);
    } else if (!pq.answerable) {
      std::printf("  [%zu] unanswerable (an invalid query, or the grant is "
                  "exhausted even at the epsilon floor)\n", i);
    } else {
      std::printf("  [%zu] eps=%.4f, delta=%.6f\n", i, pq.budget.epsilon,
                  pq.budget.delta);
    }
  }
  std::printf(
      "plan: %zu/%zu answerable (%zu predicted cache hits); "
      "eps %.4f per chargeable query; projected spend "
      "(eps=%.4f, delta=%.6f)\n",
      plan.answerable, plan.queries.size(), plan.predicted_hits,
      plan.eps_per_query, plan.projected_spend.epsilon,
      plan.projected_spend.delta);
  return Status::OK();
}

Status LoadGen(ShellState& s, std::istringstream& in) {
  double qps = 0.0, secs = 0.0;
  if (!(in >> qps >> secs) || qps <= 0.0 || secs <= 0.0) return UsageError();
  serve::LoadOptions lopts;
  lopts.offered_qps = qps;
  lopts.duration_seconds = secs;
  lopts.num_analysts = 2;
  lopts.analyst_prefix = "lg";
  lopts.seed = 7;
  serve::LoadMix mix;
  mix.reuse_fraction = s.options.enable_cache ? 0.25 : 0.0;
  std::string opt;
  while (in >> opt) {
    if (opt.rfind("deadline=", 0) == 0) {
      lopts.deadline_seconds = std::atof(opt.c_str() + 9);
    } else if (std::sscanf(opt.c_str(), "%lf,%lf,%lf", &mix.high_fraction,
                           &mix.low_fraction, &mix.reuse_fraction) != 3) {
      return Status::InvalidArgument("unknown option '" + opt + "'");
    }
  }
  s.EnsureAnalyst("lg0");
  s.EnsureAnalyst("lg1");
  // Wide count queries over dimension 0 — broad enough that the
  // per-provider admission predicate accepts them at any scale.
  const long dom = static_cast<long>(s.client->schema().dim(0).domain_size);
  std::vector<RangeQuery> workload;
  for (long i = 0; i < 8; ++i) {
    workload.push_back(RangeQuery(
        Aggregation::kCount, {DimRange{0, (dom * i) / 32, dom - 1 - i}}));
  }
  serve::LoadGenerator gen(s.client.get(), std::move(workload));
  const serve::LoadReport rep = gen.Run(lopts, mix);
  std::printf(
      "offered %.0f q/s for %.2f s: achieved %.1f q/s\n"
      "  %llu submitted: %llu ok (%llu cache-served), %llu refused, "
      "%llu evicted, %llu budget-refused, %llu failed\n",
      rep.offered_qps, rep.wall_seconds, rep.achieved_qps,
      static_cast<unsigned long long>(rep.submitted),
      static_cast<unsigned long long>(rep.ok),
      static_cast<unsigned long long>(rep.cache_served),
      static_cast<unsigned long long>(rep.refused),
      static_cast<unsigned long long>(rep.evicted),
      static_cast<unsigned long long>(rep.budget_refused),
      static_cast<unsigned long long>(rep.failed));
  for (size_t c = 0; c < 3; ++c) {
    const serve::ClassReport& cr = rep.per_class[c];
    if (cr.submitted == 0) continue;
    std::printf(
        "  %-6s %llu/%llu ok  p50 %.2f ms  p99 %.2f ms  p999 %.2f ms\n",
        kPriorityNames[c], static_cast<unsigned long long>(cr.ok),
        static_cast<unsigned long long>(cr.submitted), cr.p50_seconds * 1e3,
        cr.p99_seconds * 1e3, cr.p999_seconds * 1e3);
  }
  return Status::OK();
}

// ------------------------------------------------------------- servers --

Status Serve(ShellState& s, std::istringstream& in) {
  if (!s.federation) return Status::FailedPrecondition(kNoSession);
  long base_port = 0;
  if (!(in >> base_port) || base_port < 0 || base_port > 65535) {
    return UsageError();
  }
  // Fresh `serve` replaces any previous one (old ports close).
  s.servers.clear();
  FEDAQP_ASSIGN_OR_RETURN(
      s.servers, s.federation->Serve(static_cast<uint16_t>(base_port)));
  for (size_t i = 0; i < s.servers.size(); ++i) {
    std::printf("  provider %zu listening on port %u\n", i,
                s.servers[i]->port());
  }
  std::printf("serving; connect from another shell with:\n  connect");
  for (const auto& server : s.servers) {
    std::printf(" 127.0.0.1:%u", server->port());
  }
  std::printf("\n");
  return Status::OK();
}

Status Connect(ShellState& s, std::istringstream& in) {
  std::vector<std::string> host_ports;
  std::string hp;
  while (in >> hp) host_ports.push_back(hp);
  if (host_ports.empty()) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(s.remote_endpoints,
                          RemoteEndpoint::ConnectAll(host_ports));
  Status st = s.Rebuild();
  if (!st.ok()) {
    s.remote_endpoints.clear();
    return st;
  }
  std::printf("connected to %zu remote providers, schema: %s\n",
              s.remote_endpoints.size(),
              s.client->schema().ToString().c_str());
  return Status::OK();
}

Status ServeLedger(ShellState& s, std::istringstream& in) {
  long port = 0;
  if (!(in >> port) || port < 0 || port > 65535) return UsageError();
  serve::LedgerService::Options lopts;
  lopts.port = static_cast<uint16_t>(port);
  FEDAQP_ASSIGN_OR_RETURN(s.ledger_service, serve::LedgerService::Start(lopts));
  // Seed the roster with the shell's default grant so a connecting
  // coordinator's identical re-registration joins instead of failing.
  s.ledger_service->Register(kShellAnalyst, s.options.protocol.total_xi,
                             s.options.protocol.total_psi);
  std::printf(
      "ledger service on port %u; attach a coordinator shell with:\n"
      "  ledger connect 127.0.0.1:%u\n",
      s.ledger_service->port(), s.ledger_service->port());
  return Status::OK();
}

Status Ledger(ShellState& s, std::istringstream& in) {
  std::string sub, hp;
  in >> sub;
  if (sub == "off") {
    if (!s.remote_ledger) {
      std::printf("no shared ledger attached\n");
      return Status::OK();
    }
    s.remote_ledger.reset();
    return s.Reconfigure("back to the in-process ledger (ledgers reset)");
  }
  if (sub != "connect" || !(in >> hp)) return UsageError();
  FEDAQP_ASSIGN_OR_RETURN(HostPort addr, ParseHostPort(hp));
  // Optional; must be unique per coordinator.
  FEDAQP_ASSIGN_OR_RETURN(const uint32_t coordinator,
                          ReadCount(in, "coordinator id", UINT32_MAX, 1));
  FEDAQP_ASSIGN_OR_RETURN(
      s.remote_ledger,
      serve::RemoteLedger::Connect(addr.host, addr.port, coordinator));
  Status st = s.Reconfigure(
      "budget ops now go through " + hp + " as coordinator " +
      std::to_string(coordinator) +
      " (the authoritative ledger lives in the service)");
  if (!st.ok()) s.remote_ledger.reset();
  return st;
}

// ---------------------------------------------------------- inspection --

Status SchemaVerb(ShellState& s, std::istringstream&) {
  const Schema& schema = s.client->schema();
  for (size_t d = 0; d < schema.num_dims(); ++d) {
    std::printf("  [%zu] %s in [0, %lld)\n", d, schema.dim(d).name.c_str(),
                static_cast<long long>(schema.dim(d).domain_size));
  }
  return Status::OK();
}

Status StatusVerb(ShellState& s, std::istringstream&) {
  const AnalystLedger& ledger = s.client->ledger();
  for (const std::string& analyst : ledger.Analysts()) {
    Result<PrivacyBudget> spent = ledger.Spent(analyst);
    Result<PrivacyBudget> remaining = ledger.Remaining(analyst);
    if (!spent.ok() || !remaining.ok()) continue;
    std::printf(
        "  %-10s spent (eps=%.4f, delta=%.6f), remaining "
        "(eps=%.2f, delta=%.4f)",
        analyst.c_str(), spent->epsilon, spent->delta, remaining->epsilon,
        remaining->delta);
    Result<PrivacyBudget> saved = ledger.Saved(analyst);
    if (saved.ok() && (saved->epsilon > 0.0 || saved->delta > 0.0)) {
      std::printf(", cache saved (eps=%.4f, delta=%.6f)", saved->epsilon,
                  saved->delta);
    }
    std::printf("\n");
  }
  // Everything below reads the process-wide MetricRegistry — the same
  // numbers `stats` dumps raw — instead of re-plumbing each subsystem's
  // private counters through the shell.
  auto& reg = obs::MetricRegistry::Global();
  const auto counter = [&reg](const char* name) {
    return static_cast<unsigned long long>(reg.GetCounter(name)->Value());
  };
  if (s.options.enable_cache) {
    std::printf(
        "cache: %llu lookups — %llu exact hits, %llu full + %llu "
        "partial compositions, %llu misses; %llu invalidated\n",
        counter("cache.lookups"), counter("cache.exact_hits"),
        counter("cache.full_compositions"),
        counter("cache.partial_compositions"), counter("cache.misses"),
        counter("cache.invalidated"));
  }
  const FederationConfig& config = s.options.protocol;
  std::printf("sr=%.2f; mode=%s; sched=%s; %llu admission rounds\n",
              config.sampling_rate,
              config.mode == ReleaseMode::kSmc ? "smc" : "dp",
              config.scheduler == BatchScheduler::kTaskGraph ? "graph"
                                                             : "barrier",
              static_cast<unsigned long long>(s.client->num_batches()));
  std::printf(
      "scheduler: %llu graphs run; %llu steals, %llu local pops, "
      "%llu urgent pops, %llu backlog pops; parked high-water %.0f\n",
      counter("scheduler.graphs_run"), counter("scheduler.steals"),
      counter("scheduler.local_pops"), counter("scheduler.urgent_pops"),
      counter("scheduler.backlog_pops"),
      reg.GetGauge("scheduler.parked_peak")->Value());
  const unsigned long long doorbells = counter("rpc.doorbell_batches");
  if (doorbells > 0 || !s.remote_endpoints.empty()) {
    std::printf(
        "transport: %llu doorbell batches (%.2f frames/doorbell); "
        "%llu bytes sent, %llu received\n",
        doorbells,
        doorbells > 0 ? static_cast<double>(counter("rpc.coalesced_calls")) /
                            static_cast<double>(doorbells)
                      : 0.0,
        counter("rpc.client.bytes_sent"), counter("rpc.client.bytes_received"));
  }
  const unsigned long long rows_scanned = counter("storage.rows_scanned");
  const double mapped_bytes = reg.GetGauge("storage.bytes_mapped")->Value();
  if (rows_scanned > 0 || mapped_bytes > 0.0) {
    std::printf(
        "storage: %llu rows scanned (%s kernel); %.1f MiB mmap-resident\n",
        rows_scanned, ScanBackendName(ActiveScanBackend()),
        mapped_bytes / (1024.0 * 1024.0));
  }
  return Status::OK();
}

Status Stats(ShellState&, std::istringstream& in) {
  std::string prefix;
  in >> prefix;  // optional
  const std::vector<obs::MetricSample> samples =
      obs::MetricRegistry::Global().Snapshot(prefix);
  if (samples.empty()) {
    std::printf("no metrics%s%s recorded yet\n",
                prefix.empty() ? "" : " under ", prefix.c_str());
  }
  for (const obs::MetricSample& m : samples) {
    switch (m.kind) {
      case obs::MetricSample::Kind::kCounter:
        std::printf("  %-32s %.0f\n", m.name.c_str(), m.value);
        break;
      case obs::MetricSample::Kind::kGauge:
        std::printf("  %-32s %g (gauge)\n", m.name.c_str(), m.value);
        break;
      case obs::MetricSample::Kind::kHistogram:
        std::printf(
            "  %-32s n=%.0f p50=%.3gms p95=%.3gms p99=%.3gms p999=%.3gms\n",
            m.name.c_str(), m.value, m.p50 * 1e3, m.p95 * 1e3, m.p99 * 1e3,
            m.p999 * 1e3);
        break;
    }
  }
  return Status::OK();
}

Status Trace(ShellState&, std::istringstream& in) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  std::string sub, path;
  in >> sub;
  if (sub == "on") {
    recorder.SetEnabled(true);
    std::printf("tracing on (%zu-span ring)\n", recorder.capacity());
  } else if (sub == "off") {
    recorder.SetEnabled(false);
    std::printf("tracing off (%zu spans held, %llu dropped)\n",
                recorder.size(),
                static_cast<unsigned long long>(recorder.dropped()));
  } else if (sub == "export" && (in >> path)) {
    FEDAQP_RETURN_IF_ERROR(recorder.ExportChromeTrace(path));
    std::printf("wrote %zu spans to %s (load in Perfetto or "
                "chrome://tracing)\n",
                recorder.size(), path.c_str());
  } else {
    return UsageError();
  }
  return Status::OK();
}

Status Audit(ShellState& s, std::istringstream& in) {
  std::string analyst;
  if (!(in >> analyst)) return UsageError();
  const std::vector<obs::BudgetAuditLog::Record> records =
      s.client->audit_log().ForAnalyst(analyst);
  if (records.empty()) {
    std::printf("no audit records for '%s'\n", analyst.c_str());
  }
  for (const auto& r : records) {
    std::printf("  #%-6llu seq=%-6llu %-8s eps=%.6f delta=%.8f\n",
                static_cast<unsigned long long>(r.index),
                static_cast<unsigned long long>(r.seq),
                obs::BudgetAuditLog::KindName(r.kind), r.epsilon, r.delta);
  }
  return Status::OK();
}

Status LogLevelVerb(ShellState&, std::istringstream& in) {
  std::string name;
  if (!(in >> name)) {
    std::printf("loglevel is %s\n", LogLevelName(GetLogLevel()));
    return Status::OK();
  }
  LogLevel level;
  if (!LogLevelFromName(name, &level)) return UsageError();
  SetLogLevel(level);
  std::printf("loglevel set to %s\n", LogLevelName(level));
  return Status::OK();
}

// ---------------------------------------------------------- verb table --

/// One shell command: dispatch, `help` and its usage error all read
/// this. `run` is null only for `quit`.
struct Verb {
  const char* name;
  const char* usage;
  /// Refused with kNoSession until `open` or `connect` made a client.
  bool needs_client;
  Status (*run)(ShellState&, std::istringstream&);
};

Status Help(ShellState&, std::istringstream&);

const Verb kVerbs[] = {
    {"open", "open adult|amazon <rows> <providers> [seed]", false, Open},
    {"connect", "connect <host:port> [<host:port> ...]", false, Connect},
    {"budget", "budget <eps> <delta> <xi> <psi>", false, Budget},
    {"rate", "rate <sr>", false, Rate},
    {"mode", "mode dp|smc", false, Mode},
    {"threads", "threads <n> [scan_shards]", false, Threads},
    {"sched", "sched graph|barrier", false, Sched},
    {"cache", "cache on|off [horizon]", false, Cache},
    {"fair", "fair on|off", false, Fair},
    {"weight", "weight <analyst> <w>", false, Weight},
    {"count", "count <dim lo hi> [<dim lo hi> ...]", true,
     Private<Aggregation::kCount>},
    {"sum", "sum <dim lo hi> [<dim lo hi> ...]", true,
     Private<Aggregation::kSum>},
    {"sumsq", "sumsq <dim lo hi> [<dim lo hi> ...]", true,
     Private<Aggregation::kSumSquares>},
    {"exact", "exact count|sum|sumsq <dim lo hi> ...", true, Exact},
    {"batch", "batch <k> count|sum|sumsq <dim lo hi> ...", true, Batch},
    {"submit",
     "submit <analyst> [exact] count|sum|sumsq <dim lo hi> ... "
     "[prio=high|normal|low] [deadline=<sec>] [rounds=<n>]",
     true, Submit},
    {"await", "await <ticket>", false, Await},
    {"cancel", "cancel <ticket>", false, Cancel},
    {"tickets", "tickets", false, Tickets},
    {"groupby", "groupby <dim> count|sum [<dim lo hi> ...]", true, GroupBy},
    {"plan", "plan <analyst> count|sum|sumsq <dim lo hi> [/ count ...]", true,
     Plan},
    {"loadgen", "loadgen <qps> <secs> [high,low,reuse] [deadline=<sec>]", true,
     LoadGen},
    {"serve", "serve <base_port>  (0 = ephemeral ports)", false, Serve},
    {"serve-ledger", "serve-ledger <port>  (0 = ephemeral port)", false,
     ServeLedger},
    {"ledger", "ledger connect <host:port> [coordinator_id] | ledger off",
     false, Ledger},
    {"schema", "schema", true, SchemaVerb},
    {"status", "status", true, StatusVerb},
    {"stats", "stats [prefix]", false, Stats},
    {"trace", "trace on|off|export <file>", false, Trace},
    {"audit", "audit <analyst>", true, Audit},
    {"loglevel", "loglevel [debug|info|warn|error]", false, LogLevelVerb},
    {"help", "help", false, Help},
    {"quit", "quit", false, nullptr},
};

Status Help(ShellState&, std::istringstream&) {
  std::printf("commands:\n");
  for (const Verb& verb : kVerbs) std::printf("  %s\n", verb.usage);
  return Status::OK();
}

int Run() {
  ShellState state;
  std::string line;
  std::printf("fedaqp shell — `help` for commands\n");
  while (std::printf("> "), std::fflush(stdout), std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "exit") cmd = "quit";
    const Verb* verb = nullptr;
    for (const Verb& v : kVerbs) {
      if (cmd == v.name) verb = &v;
    }
    if (verb == nullptr) {
      std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
      continue;
    }
    if (verb->run == nullptr) break;
    const Status st = verb->needs_client && !state.client
                          ? Status::FailedPrecondition(kNoSession)
                          : verb->run(state, in);
    if (IsUsageError(st)) {
      std::printf("usage: %s\n", verb->usage);
    } else if (!st.ok()) {
      std::printf("error: %s\n", st.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace fedaqp

int main() { return fedaqp::Run(); }
