// The determinism matrix. One fixed workload per semantic class runs over
// a covering design of the schedule axes: pool size, scheduler, admission
// split, transport, tracing and scan shards. Every row of a class must
// produce one digest vector. For each admission seq it holds the status,
// the bits of the answer, its allocation, work and network counters, its
// progressive rounds and its cache use; then the admission order, each
// analyst's ledger and its audit replay, and the digest of every message
// the providers exchanged (tests/fixture.h's Transcript). Answers may
// differ between classes, never within one. Each row builds its own
// providers and servers, so no row relies on another's session nonces.
// Rows also check what only their schedule shows: loopback rows close
// every session and move exactly the charged bytes plus batch headers,
// and traced rows record the spans of every layer they ran.

#include <algorithm>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "fixture.h"
#include "obs/trace.h"

namespace fedaqp {
namespace {

enum class Admission {
  /// One paused SubmitAll, released as one round.
  kOneRound,
  /// The same burst, admitted one query per round.
  kQueryPerRound,
  /// Submit, then Wait, one query at a time.
  kSubmitAndWait,
};

/// One point of the schedule axes.
struct Schedule {
  size_t pool;
  BatchScheduler scheduler;
  Admission admission;
  bool loopback;
  bool traced;
  size_t shards;
};

const std::vector<size_t> kPools = {1, 2, 4, 8};
const std::vector<size_t> kShards = {1, 2, 3, 7, 8, 16};

std::string Name(const Schedule& s) {
  const char* admission[] = {"one-round", "query-per-round", "submit-wait"};
  return "pool=" + std::to_string(s.pool) +
         (s.scheduler == BatchScheduler::kTaskGraph ? " graph" : " barrier") +
         " " + admission[static_cast<int>(s.admission)] +
         (s.loopback ? " loopback" : " in-process") +
         (s.traced ? " traced" : " untraced") +
         " shards=" + std::to_string(s.shards);
}

constexpr BatchScheduler G = BatchScheduler::kTaskGraph;
constexpr BatchScheduler B = BatchScheduler::kPhaseBarrier;
constexpr Admission R = Admission::kOneRound;
constexpr Admission Q = Admission::kQueryPerRound;
constexpr Admission W = Admission::kSubmitAndWait;
constexpr bool kLoop = true, kInProc = false, kOn = true, kOff = false;

/// Every pair of axis values appears in some row (checked below).
const std::vector<Schedule> kPairwise = {
    {1, G, R, kLoop, kOff, 1},     {2, B, Q, kInProc, kOn, 1},
    {4, G, W, kInProc, kOff, 1},   {8, B, W, kLoop, kOn, 1},
    {1, B, R, kInProc, kOn, 2},    {2, G, Q, kLoop, kOff, 2},
    {4, B, R, kLoop, kOff, 2},     {8, G, W, kInProc, kOn, 2},
    {1, G, W, kInProc, kOff, 3},   {2, B, R, kLoop, kOn, 3},
    {4, G, Q, kInProc, kOn, 3},    {8, G, R, kInProc, kOff, 3},
    {1, G, Q, kLoop, kOn, 7},      {2, B, W, kInProc, kOff, 7},
    {4, B, R, kLoop, kOff, 7},     {8, G, Q, kInProc, kOff, 7},
    {1, B, Q, kInProc, kOff, 8},   {2, G, R, kLoop, kOn, 8},
    {4, G, W, kInProc, kOn, 8},    {8, B, W, kLoop, kOn, 8},
    {1, B, R, kInProc, kOff, 16},  {2, G, Q, kLoop, kOn, 16},
    {4, B, W, kLoop, kOff, 16},    {8, B, Q, kLoop, kOn, 16},
};

/// Every value of every axis appears, pool 8 twice. Fair admission has
/// no Submit-and-Wait rows: a weight orders a burst, not single queries.
std::vector<Schedule> EveryValue(bool fair) {
  std::vector<Schedule> rows = {
      {1, G, R, kInProc, kOff, 1}, {2, B, Q, kLoop, kOn, 2},
      {4, G, W, kInProc, kOn, 3},  {8, G, R, kLoop, kOff, 7},
      {8, B, Q, kLoop, kOn, 8},    {2, B, W, kInProc, kOff, 16},
  };
  for (size_t i = 0; fair && i < rows.size(); ++i) {
    rows[i].admission = i % 2 == 0 ? R : Q;
  }
  return rows;
}

/// A row's axis values as indices, one per axis.
std::vector<size_t> Coordinates(const Schedule& s) {
  auto index = [](const std::vector<size_t>& values, size_t v) {
    return static_cast<size_t>(
        std::find(values.begin(), values.end(), v) - values.begin());
  };
  return {index(kPools, s.pool), static_cast<size_t>(s.scheduler),
          static_cast<size_t>(s.admission), s.loopback, s.traced,
          index(kShards, s.shards)};
}

TEST(DeterminismMatrixTest, DesignsCoverTheAxes) {
  const std::vector<size_t> sizes = {kPools.size(), 2, 3, 2, 2,
                                     kShards.size()};
  std::set<std::vector<size_t>> pairs;
  for (const Schedule& s : kPairwise) {
    const std::vector<size_t> c = Coordinates(s);
    for (size_t a = 0; a < c.size(); ++a) {
      for (size_t b = a + 1; b < c.size(); ++b) {
        pairs.insert({a, c[a], b, c[b]});
      }
    }
  }
  size_t all_pairs = 0;
  for (size_t a = 0; a < sizes.size(); ++a) {
    for (size_t b = a + 1; b < sizes.size(); ++b) {
      all_pairs += sizes[a] * sizes[b];
    }
  }
  EXPECT_EQ(pairs.size(), all_pairs);
  for (bool fair : {false, true}) {
    std::set<std::pair<size_t, size_t>> values;
    size_t pool8 = 0;
    for (const Schedule& s : EveryValue(fair)) {
      const std::vector<size_t> c = Coordinates(s);
      for (size_t a = 0; a < c.size(); ++a) values.insert({a, c[a]});
      pool8 += s.pool == 8;
    }
    EXPECT_EQ(values.size(), 4u + 2 + (fair ? 2 : 3) + 2 + 2 + 6);
    EXPECT_GE(pool8, 2u);
  }
}

/// A semantic class: what may change answers.
struct Class {
  ReleaseMode mode = ReleaseMode::kLocalDp;
  bool cache = false;
  bool fair = false;
  /// The session whose Cover fails at provider 1 (0: none).
  uint64_t failing_session = 0;
};

/// Fails one session's Cover; forwards everything else.
class FailingCover : public ForwardingEndpoint {
 public:
  FailingCover(std::shared_ptr<ProviderEndpoint> inner, uint64_t session)
      : ForwardingEndpoint(std::move(inner)), session_(session) {}

  Result<CoverReply> Cover(const CoverRequest& r) override {
    if (r.query_id == session_) return Status::Internal("scripted failure");
    return inner_->Cover(r);
  }

 private:
  uint64_t session_;
};

RangeQuery Dim0(Aggregation agg, Value lo, Value hi) {
  return RangeQueryBuilder(agg).Where(0, lo, hi).Build();
}

QuerySpec Progressive(RangeQuery query, size_t rounds) {
  QuerySpec spec{"alice", std::move(query)};
  spec.kind = QueryKind::kProgressive;
  spec.progressive_rounds = rounds;
  return spec;
}

/// Bob's grant admits two of his three queries; mallory has none. Query
/// 5 repeats query 1; query 6 overlaps queries 1 and 4 on one dimension
/// and buys only [150, 169]; query 13's narrow tail range takes the
/// exact path at some provider.
std::vector<QuerySpec> Workload() {
  QuerySpec exact;
  exact.query = Dim0(Aggregation::kSum, 20, 120);
  exact.kind = QueryKind::kExact;
  return {
      {"alice", Dim0(Aggregation::kCount, 10, 99)},
      {"bob", Dim0(Aggregation::kSum, 20, 180)},
      {"alice", RangeQueryBuilder(Aggregation::kSumSquares)
                    .Where(0, 0, 199)
                    .Where(1, 10, 90)
                    .Build()},
      {"alice", Dim0(Aggregation::kCount, 100, 149)},
      {"alice", Dim0(Aggregation::kCount, 10, 99)},
      {"alice", Dim0(Aggregation::kCount, 10, 169)},
      {"bob", RangeQueryBuilder(Aggregation::kCount).Where(1, 30, 80).Build()},
      {"bob", Dim0(Aggregation::kSum, 30, 60)},
      {"mallory", Dim0(Aggregation::kCount, 10, 99)},
      Progressive(Dim0(Aggregation::kSum, 20, 180), 3),
      Progressive(Dim0(Aggregation::kCount, 10, 170), 2),
      exact,
      {"alice", Dim0(Aggregation::kCount, 5, 6)},
  };
}

/// Three analysts of weights 1, 2 and 8, submitting round-robin.
std::vector<QuerySpec> FairBurst() {
  std::vector<QuerySpec> specs;
  for (int i = 0; i < 12; ++i) {
    specs.push_back({"a" + std::to_string(i % 3),
                     Dim0(Aggregation::kCount, 10 + i % 7, 170)});
  }
  return specs;
}

/// Folds values into one 64-bit digest; doubles by their bits.
struct Hash {
  uint64_t value = 0;
  template <typename T>
  Hash& operator<<(T v) {
    uint64_t bits = 0;
    if constexpr (std::is_floating_point_v<T>) {
      std::memcpy(&bits, &v, sizeof(bits));
    } else {
      bits = static_cast<uint64_t>(v);
    }
    value = MixSeeds(value, bits);
    return *this;
  }
};

struct RowResult {
  std::vector<uint64_t> digest;
  std::vector<Status> statuses;
  std::vector<size_t> rounds;
  std::vector<uint32_t> cache_parts;
  std::vector<bool> from_cache;
  /// (session, provider) pairs that took the exact path.
  size_t exact_answers = 0;
};

RowResult RunRow(const Class& c, const Schedule& s) {
  std::vector<std::unique_ptr<DataProvider>> providers;
  for (uint64_t i = 0; i < 4; ++i) {
    providers.push_back(MakeProvider(4000, 1201 + 17 * i, 128, 4, s.shards));
  }
  std::unique_ptr<LoopbackServers> servers =
      s.loopback ? std::make_unique<LoopbackServers>(Ptrs(providers)) : nullptr;
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
      s.loopback ? servers->Connect() : MakeInProcessEndpoints(Ptrs(providers));
  EXPECT_TRUE(inner.ok()) << inner.status().ToString();
  RowResult result;
  if (!inner.ok()) return result;
  auto bytes_moved = [&] {
    uint64_t moved = 0, overhead = 0;
    for (auto& e : *inner) {
      auto* remote = static_cast<RemoteEndpoint*>(e.get());
      moved += remote->bytes_sent() + remote->bytes_received();
      overhead += remote->batch_overhead_bytes();
    }
    return std::make_pair(moved, overhead);
  };
  const auto base =
      s.loopback ? bytes_moved() : std::pair<uint64_t, uint64_t>{};

  auto transcript = std::make_shared<Transcript>();
  std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
  for (size_t i = 0; i < inner->size(); ++i) {
    std::shared_ptr<ProviderEndpoint> e =
        std::make_shared<RecordingEndpoint>((*inner)[i], i, transcript);
    if (i == 1 && c.failing_session != 0) {
      e = std::make_shared<FailingCover>(e, c.failing_session);
    }
    endpoints.push_back(std::move(e));
  }
  FederationClient::Options o;
  o.protocol = TestConfig(4242, s.pool, s.scheduler);
  o.protocol.mode = c.mode;
  o.protocol.num_scan_shards = s.shards;
  if (c.fair) {
    o.analysts = {
        {"a0", 1e6, 1e3, 1}, {"a1", 1e6, 1e3, 2}, {"a2", 1e6, 1e3, 8}};
  } else {
    o.analysts = {{"alice", 1e6, 1e3}, {"bob", 2.5, 1.0}};
  }
  o.enable_cache = c.cache;
  o.fair_admission = c.fair;
  o.start_paused = s.admission != W;
  o.max_batch_queries = s.admission == Q ? 1 : 0;
  Result<std::unique_ptr<FederationClient>> made =
      FederationClient::Create(endpoints, o);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  if (!made.ok()) return result;
  FederationClient& client = **made;

  obs::TraceRecorder::Global().Clear();
  obs::TraceRecorder::Global().SetEnabled(s.traced);
  std::vector<QuerySpec> specs = c.fair ? FairBurst() : Workload();
  std::vector<QueryTicket> tickets;
  if (s.admission == W) {
    for (QuerySpec& spec : specs) {
      tickets.push_back(client.Submit(std::move(spec)));
      tickets.back().Wait();
    }
  } else {
    tickets = client.SubmitAll(std::move(specs));
    client.Resume();
  }
  client.WaitIdle();
  obs::TraceRecorder::Global().SetEnabled(false);

  uint64_t charged = 0;
  for (QueryTicket& ticket : tickets) {
    Result<QueryResponse> r = ticket.Wait();
    const TicketStats stats = ticket.Stats();
    Hash h;
    h << ticket.id() << static_cast<int>(r.status().code());
    if (r.ok()) {
      const QueryBreakdown& b = r->breakdown;
      h << r->estimate << r->stderr_estimate << r->spent.epsilon
        << r->spent.delta << r->approximated << r->allocation.size();
      for (size_t n : r->allocation) h << n;
      h << b.clusters_scanned << b.rows_scanned << b.network_bytes
        << b.network_messages;
      charged += b.network_bytes;
    }
    for (const ProgressiveRound& round : ticket.Refinements()) {
      h << round.round << round.estimate << round.stderr_estimate
        << round.spent.epsilon << round.spent.delta << round.clusters_scanned;
    }
    h << stats.served_from_cache << stats.cache_sub_answers;
    result.digest.push_back(h.value);
    result.statuses.push_back(r.status());
    result.rounds.push_back(ticket.Refinements().size());
    result.cache_parts.push_back(stats.cache_sub_answers);
    result.from_cache.push_back(stats.served_from_cache);
  }
  // Then the admission order, each analyst's ledger, whether the audit
  // log replays it, and the transcript.
  Hash tail;
  for (uint64_t seq : client.admission_order()) tail << seq;
  auto ledger_bits = [](const AnalystLedger& l, const std::string& analyst) {
    Hash h;
    h << l.Spent(analyst)->epsilon << l.Spent(analyst)->delta
      << l.Saved(analyst)->epsilon << l.Saved(analyst)->delta;
    return h.value;
  };
  AnalystLedger replayed;
  bool replays = client.audit_log().Replay(&replayed).ok();
  for (const AnalystGrant& grant : o.analysts) {
    const uint64_t live = ledger_bits(client.ledger(), grant.analyst);
    replays = replays && live == ledger_bits(replayed, grant.analyst);
    tail << live;
  }
  EXPECT_TRUE(replays) << "the audit log does not replay the ledger";
  result.digest.push_back(tail.value);
  result.digest.push_back(replays);
  result.digest.push_back(transcript->Digest());
  result.exact_answers = transcript->Count(RpcMethod::kExactAnswer);

  if (s.loopback) {
    for (const auto& server : servers->servers()) {
      EXPECT_EQ(server->num_open_sessions(), 0u);
    }
    // The wire balances against the charges where every byte charged is
    // a coordinator message: not in SMC mode, whose charges include the
    // providers' share exchange, nor where a failed query's bytes are in
    // no response.
    if (c.mode == ReleaseMode::kLocalDp && c.failing_session == 0) {
      const auto end = bytes_moved();
      EXPECT_EQ(end.first - base.first, charged + end.second - base.second);
    }
  }
  std::set<std::string> layers;
  for (const obs::TraceSpan& span : obs::TraceRecorder::Global().Snapshot()) {
    layers.insert(span.cat);
  }
  obs::TraceRecorder::Global().Clear();
  // Task spans come from graph nodes; the barrier scheduler has none.
  std::set<std::string> want;
  if (s.traced) want.insert("client");
  if (s.traced && s.scheduler == G) want.insert("task");
  if (s.traced && s.loopback) want.insert({"rpc", "server"});
  EXPECT_EQ(layers, want);
  return result;
}

/// Runs every row of `design` and requires one digest vector; returns
/// the first row's result for the class's own checks.
RowResult RunClass(const Class& c, const std::vector<Schedule>& design) {
  RowResult reference;
  for (size_t i = 0; i < design.size(); ++i) {
    SCOPED_TRACE(Name(design[i]));
    RowResult row = RunRow(c, design[i]);
    if (i == 0) {
      reference = std::move(row);
    } else {
      EXPECT_EQ(row.digest, reference.digest);
    }
  }
  return reference;
}

/// The workload's refusals and shapes, which every class but the fair one
/// keeps: bob's third query and mallory are refused, the progressive
/// queries release 3 and 2 rounds, and some provider answers exactly.
void ExpectWorkloadShape(const RowResult& row) {
  ASSERT_EQ(row.statuses.size(), Workload().size());
  EXPECT_EQ(row.statuses[7].code(), StatusCode::kBudgetExhausted);
  EXPECT_EQ(row.statuses[8].code(), StatusCode::kNotFound);
  EXPECT_EQ(row.rounds[9], 3u);
  EXPECT_EQ(row.rounds[10], 2u);
  EXPECT_TRUE(row.statuses[11].ok());
  EXPECT_GT(row.exact_answers, 0u);
}

/// With the cache on, the repeat is served free and the overlap composes
/// its two earlier parts with the purchased remainder.
void ExpectCacheUse(const RowResult& row) {
  ExpectWorkloadShape(row);
  ASSERT_EQ(row.from_cache.size(), Workload().size());
  EXPECT_TRUE(row.from_cache[4]);
  EXPECT_FALSE(row.from_cache[5]);
  EXPECT_EQ(row.cache_parts[5], 2u);
}

TEST(DeterminismMatrixTest, LocalDpCacheOff) {
  RowResult row = RunClass({}, kPairwise);
  ExpectWorkloadShape(row);
  for (size_t i : {0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12}) {
    EXPECT_TRUE(row.statuses[i].ok()) << i << ": "
                                      << row.statuses[i].ToString();
  }
}

TEST(DeterminismMatrixTest, LocalDpCacheOn) {
  ExpectCacheUse(RunClass({ReleaseMode::kLocalDp, true}, EveryValue(false)));
}

TEST(DeterminismMatrixTest, SmcCacheOff) {
  ExpectWorkloadShape(RunClass({ReleaseMode::kSmc, false}, EveryValue(false)));
}

TEST(DeterminismMatrixTest, SmcCacheOn) {
  ExpectCacheUse(RunClass({ReleaseMode::kSmc, true}, EveryValue(false)));
}

TEST(DeterminismMatrixTest, FairAdmissionBurst) {
  Class fair;
  fair.fair = true;
  RowResult row = RunClass(fair, EveryValue(true));
  for (const Status& status : row.statuses) EXPECT_TRUE(status.ok());
}

// Session 2 is bob's first query: it fails at provider 1 and nothing else
// does (its charge stands, so bob's third query is still refused).
TEST(DeterminismMatrixTest, ScriptedProviderFailure) {
  Class failing;
  failing.failing_session = 2;
  RowResult row = RunClass(failing, EveryValue(false));
  ExpectWorkloadShape(row);
  size_t scripted = 0;
  for (const Status& status : row.statuses) {
    scripted += status.message().find("scripted") != std::string::npos;
  }
  EXPECT_EQ(scripted, 1u);
  EXPECT_EQ(row.statuses[1].code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace fedaqp
