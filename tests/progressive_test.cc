// Tests for progressive (online) aggregation and its error-bounded stop:
// progressive queries run on the one protocol engine — admitted, charged
// and audited by FederationClient, each round a set of estimate and
// combine nodes that reach the providers through their endpoints.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "exec/federation_client.h"
#include "exec/in_process_endpoint.h"
#include "fixture.h"
#include "gate_endpoint.h"
#include "registry_delta.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

constexpr double kEpsilon = 2.0;
constexpr double kDelta = 1e-3;

class ProgressiveFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.rows = 40000;
    cfg.seed = 555;
    cfg.dims = {{"a", 50, DistributionKind::kNormal, 0.5},
                {"b", 30, DistributionKind::kZipf, 1.2},
                {"c", 20, DistributionKind::kUniform, 0.0}};
    Result<std::vector<Table>> parts =
        GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
    ASSERT_TRUE(parts.ok());
    for (size_t i = 0; i < parts->size(); ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = 512;
      popts.storage.layout = ClusterLayout::kShuffled;
      popts.storage.shuffle_seed = 100 + i;
      popts.n_min = 4;
      popts.seed = 600 + i;
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      ASSERT_TRUE(p.ok());
      providers_.push_back(std::move(p).value());
    }
  }

  static FederationClient::Options Options(
      size_t threads = 2,
      BatchScheduler scheduler = BatchScheduler::kTaskGraph) {
    FederationClient::Options o;
    o.protocol.per_query_budget = {kEpsilon, kDelta};
    o.protocol.sampling_rate = 0.3;
    o.protocol.num_threads = threads;
    o.protocol.scheduler = scheduler;
    o.analysts = {{"alice", 1e6, 1e3}};
    return o;
  }

  std::unique_ptr<FederationClient> Client(
      const FederationClient::Options& options) {
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(Ptrs(providers_), options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  /// A client whose endpoints hold `gated` calls of provider 0 at `gate`
  /// and count every provider's Approximate calls.
  std::unique_ptr<FederationClient> GatedClient(
      const std::shared_ptr<CallGate>& gate, GatedCall gated) {
    Result<std::vector<std::shared_ptr<ProviderEndpoint>>> inner =
        MakeInProcessEndpoints(Ptrs(providers_));
    EXPECT_TRUE(inner.ok());
    std::vector<std::shared_ptr<ProviderEndpoint>> endpoints;
    gated_.clear();
    for (size_t i = 0; i < inner->size(); ++i) {
      auto endpoint = std::make_shared<GatedEndpoint>(
          (*inner)[i], i == 0 ? gate : std::make_shared<CallGate>(), gated);
      gated_.push_back(endpoint.get());
      endpoints.push_back(std::move(endpoint));
    }
    Result<std::unique_ptr<FederationClient>> client =
        FederationClient::Create(std::move(endpoints), Options());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(client).value() : nullptr;
  }

  size_t ApproximateCalls() const {
    size_t calls = 0;
    for (const GatedEndpoint* e : gated_) calls += e->approximate_calls();
    return calls;
  }

  static QuerySpec Progressive(size_t rounds, double target = 0.0) {
    QuerySpec spec{"alice", BroadQuery()};
    spec.kind = QueryKind::kProgressive;
    spec.progressive_rounds = rounds;
    spec.target_relative_stderr = target;
    return spec;
  }

  double Truth(const RangeQuery& q) {
    double total = 0.0;
    for (auto& p : providers_) {
      total += static_cast<double>(p->store().EvaluateExact(q));
    }
    return total;
  }

  static RangeQuery BroadQuery() {
    return RangeQueryBuilder(Aggregation::kSum)
        .Where(0, 5, 45)
        .Where(1, 0, 20)
        .Build();
  }

  std::vector<std::unique_ptr<DataProvider>> providers_;
  std::vector<GatedEndpoint*> gated_;
};

/// Every record of `kind` for alice.
size_t CountRecords(const FederationClient& client,
                    obs::BudgetAuditLog::Kind kind) {
  size_t n = 0;
  for (const auto& record : client.audit_log().ForAnalyst("alice")) {
    if (record.kind == kind) ++n;
  }
  return n;
}

/// The audit log replays the live ledger bit for bit.
void ExpectLedgerReplays(const FederationClient& client) {
  AnalystLedger replayed;
  ASSERT_TRUE(client.audit_log().Replay(&replayed).ok());
  EXPECT_EQ(replayed.Spent("alice")->epsilon,
            client.ledger().Spent("alice")->epsilon);
  EXPECT_EQ(replayed.Spent("alice")->delta,
            client.ledger().Spent("alice")->delta);
  EXPECT_EQ(replayed.Remaining("alice")->epsilon,
            client.ledger().Remaining("alice")->epsilon);
}

TEST_F(ProgressiveFixture, RoundsAndTargetAreCheckedAtAdmission) {
  std::unique_ptr<FederationClient> client = Client(Options());
  ASSERT_NE(client, nullptr);
  for (QuerySpec spec : {Progressive(kMaxProgressiveRounds + 1),
                         Progressive(4, /*target=*/-0.1)}) {
    Result<QueryResponse> refused = client->Submit(std::move(spec)).Wait();
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  }
  // Refused before charging.
  EXPECT_EQ(client->ledger().Spent("alice")->epsilon, 0.0);

  // A count of 0 means one round.
  QueryTicket one = client->Submit(Progressive(0));
  ASSERT_TRUE(one.Wait().ok());
  EXPECT_EQ(one.Refinements().size(), 1u);
}

// A run with an unreachable stop target releases every round — numbered,
// with work and spend growing — and costs the one-shot budget exactly:
// nothing refunded, no refund record.
TEST_F(ProgressiveFixture, UnreachableTargetRunsEveryRoundAtTheOneShotCost) {
  std::unique_ptr<FederationClient> client = Client(Options());
  ASSERT_NE(client, nullptr);
  QueryTicket ticket = client->Submit(Progressive(5, /*target=*/1e-9));
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::vector<ProgressiveRound> rounds = ticket.Refinements();
  ASSERT_EQ(rounds.size(), 5u);
  for (size_t i = 0; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i].round, i + 1);
    EXPECT_GT(rounds[i].stderr_estimate, 0.0);
    if (i == 0) continue;
    EXPECT_GE(rounds[i].clusters_scanned, rounds[i - 1].clusters_scanned);
    EXPECT_GT(rounds[i].spent.epsilon, rounds[i - 1].spent.epsilon);
    EXPECT_GT(rounds[i].spent.delta, rounds[i - 1].spent.delta);
  }
  EXPECT_EQ(resp->estimate, rounds.back().estimate);
  EXPECT_EQ(resp->stderr_estimate, rounds.back().stderr_estimate);
  EXPECT_EQ(rounds.back().spent.epsilon, kEpsilon);
  EXPECT_EQ(rounds.back().spent.delta, kDelta);
  EXPECT_EQ(client->ledger().Spent("alice")->epsilon, kEpsilon);
  EXPECT_EQ(ticket.Stats().refunded.epsilon, 0.0);
  EXPECT_EQ(CountRecords(*client, obs::BudgetAuditLog::Kind::kRefund), 0u);
}

TEST_F(ProgressiveFixture, LaterRoundsConvergeAndStderrShrinks) {
  // Average over repetitions (each query its own session, so its own
  // noise): the final round's mean error should not exceed the first
  // round's (more draws, same per-round noise scale structure).
  FederationClient::Options options = Options();
  options.protocol.per_query_budget = {4.0, kDelta};
  options.protocol.sampling_rate = 0.4;
  std::unique_ptr<FederationClient> client = Client(options);
  ASSERT_NE(client, nullptr);
  const double truth = Truth(BroadQuery());
  std::vector<QueryTicket> tickets;
  for (int rep = 0; rep < 12; ++rep) {
    tickets.push_back(client->Submit(Progressive(4)));
  }
  RunningStats first_err, last_err;
  for (QueryTicket& ticket : tickets) {
    ASSERT_TRUE(ticket.Wait().ok());
    first_err.Add(RelativeError(truth, ticket.Refinements().front().estimate));
    last_err.Add(RelativeError(truth, ticket.Refinements().back().estimate));
  }
  EXPECT_LT(last_err.mean(), first_err.mean() * 1.5 + 0.05);
  EXPECT_LT(last_err.mean(), 0.5);
  // Sampling variance decreases with draws; the noise component is equal
  // per round, so the total stderr should not grow much.
  const std::vector<ProgressiveRound> first = tickets.front().Refinements();
  EXPECT_LE(first.back().stderr_estimate,
            first.front().stderr_estimate * 1.5);
}

// Stopping early saves what it promises: only round 1's Approximate calls
// reach the providers, only round 1's rows are scanned, and the ledger
// keeps eps_O + eps_S + eps_E / R.
TEST_F(ProgressiveFixture, LooseTargetStopsAfterRoundOne) {
  std::unique_ptr<FederationClient> client =
      GatedClient(std::make_shared<CallGate>(), {});
  ASSERT_NE(client, nullptr);
  const RegistryDelta delta;
  constexpr size_t kRounds = 6;
  QueryTicket ticket = client->Submit(Progressive(kRounds, /*target=*/10.0));
  Result<QueryResponse> resp = ticket.Wait();
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(ticket.Refinements().size(), 1u);
  EXPECT_EQ(ApproximateCalls(), providers_.size());
  EXPECT_EQ(delta("storage.rows_scanned"), resp->breakdown.rows_scanned);

  const BudgetSplit split;
  const double kept = split.hp_allocation * kEpsilon +
                      split.hp_sampling * kEpsilon +
                      split.hp_estimate * kEpsilon / kRounds;
  EXPECT_NEAR(client->ledger().Spent("alice")->epsilon, kept, 1e-12);
  EXPECT_NEAR(client->ledger().Spent("alice")->delta, kDelta / kRounds,
              1e-15);
  EXPECT_EQ(resp->spent.epsilon, ticket.Refinements()[0].spent.epsilon);
  EXPECT_NEAR(ticket.Stats().refunded.epsilon, kEpsilon - kept, 1e-12);
  EXPECT_EQ(CountRecords(*client, obs::BudgetAuditLog::Kind::kRefund), 1u);
  ExpectLedgerReplays(*client);

  // The full run does more of both.
  const uint64_t stopped_rows = delta("storage.rows_scanned");
  const RegistryDelta full_delta;
  QueryTicket full = client->Submit(Progressive(kRounds));
  ASSERT_TRUE(full.Wait().ok());
  EXPECT_EQ(full.Refinements().size(), kRounds);
  EXPECT_EQ(ApproximateCalls(), providers_.size() * (1 + kRounds));
  EXPECT_GT(full_delta("storage.rows_scanned"), stopped_rows);
}

TEST_F(ProgressiveFixture, StopTargetMatchesTheReleasedStderr) {
  std::unique_ptr<FederationClient> client = Client(Options());
  ASSERT_NE(client, nullptr);
  constexpr double kTarget = 0.5;
  QueryTicket ticket = client->Submit(Progressive(4, kTarget));
  ASSERT_TRUE(ticket.Wait().ok());
  const std::vector<ProgressiveRound> rounds = ticket.Refinements();
  ASSERT_FALSE(rounds.empty());
  auto meets = [&](const ProgressiveRound& r) {
    return r.estimate != 0.0 &&
           r.stderr_estimate / std::abs(r.estimate) <= kTarget;
  };
  // Every round before the last missed the target; the last met it or
  // was round 4.
  for (size_t i = 0; i + 1 < rounds.size(); ++i) EXPECT_FALSE(meets(rounds[i]));
  EXPECT_TRUE(meets(rounds.back()) || rounds.size() == 4u);
}

// A cancellation while round 2 is in flight stops after round 2: of four
// rounds, rounds 3 and 4 are refunded and Cancel() says so; of two, the
// round in flight is the last, so Cancel() returns false and nothing
// changes.
TEST_F(ProgressiveFixture, CancelStopsAfterTheRoundInFlight) {
  for (size_t rounds : {4, 2}) {
    auto gate = std::make_shared<CallGate>();
    std::unique_ptr<FederationClient> client =
        GatedClient(gate, {GatedCall::Kind::kApproximate, /*round=*/2});
    ASSERT_NE(client, nullptr);
    gate->Close();
    QueryTicket ticket = client->Submit(Progressive(rounds));
    gate->WaitEntered();
    EXPECT_EQ(ticket.Cancel(), rounds > 2);
    gate->Release();
    ASSERT_TRUE(ticket.Wait().ok());
    ASSERT_EQ(ticket.Refinements().size(), 2u);
    EXPECT_EQ(ApproximateCalls(), 2 * providers_.size());
    const double unreleased =
        (rounds - 2) * BudgetSplit().hp_estimate * kEpsilon / rounds;
    EXPECT_NEAR(ticket.Stats().refunded.epsilon, unreleased, 1e-12);
    EXPECT_NEAR(client->ledger().Spent("alice")->epsilon,
                kEpsilon - unreleased, 1e-12);
    EXPECT_FALSE(ticket.Cancel());  // delivered: too late
    ExpectLedgerReplays(*client);
  }
}

// Cancelled after its summaries but before round 1's estimate, a
// progressive query resolves and refunds exactly as a one-shot query
// cancelled at the same stage: kCancelled, eps_S + eps_E + delta back.
TEST_F(ProgressiveFixture, CancelBeforeRoundOneRefundsLikeAOneShotQuery) {
  std::vector<PrivacyBudget> refunds;
  for (QueryKind kind : {QueryKind::kApproximate, QueryKind::kProgressive}) {
    auto gate = std::make_shared<CallGate>();
    std::unique_ptr<FederationClient> client =
        GatedClient(gate, {GatedCall::Kind::kSummary, 0});
    ASSERT_NE(client, nullptr);
    gate->Close();
    QuerySpec spec = Progressive(4);
    spec.kind = kind;
    QueryTicket ticket = client->Submit(std::move(spec));
    gate->WaitEntered();
    EXPECT_TRUE(ticket.Cancel());
    gate->Release();
    Result<QueryResponse> resp = ticket.Wait();
    ASSERT_FALSE(resp.ok());
    EXPECT_EQ(resp.status().code(), StatusCode::kCancelled);
    EXPECT_EQ(ApproximateCalls(), 0u);
    EXPECT_TRUE(ticket.Refinements().empty());
    refunds.push_back(ticket.Stats().refunded);
    ExpectLedgerReplays(*client);
  }
  const BudgetSplit split;
  EXPECT_EQ(refunds[0].epsilon, refunds[1].epsilon);
  EXPECT_EQ(refunds[0].delta, refunds[1].delta);
  EXPECT_NEAR(refunds[1].epsilon,
              (split.hp_sampling + split.hp_estimate) * kEpsilon, 1e-12);
  EXPECT_EQ(refunds[1].delta, kDelta);
}

// In local-DP mode with the cache off, a 1-round progressive query is the
// one-shot query: same estimate, stderr, spent and charge bits as an
// approximate query admitted at the same position.
TEST_F(ProgressiveFixture, OneRoundEqualsTheOneShotQuery) {
  std::vector<QueryResponse> answers;
  std::vector<double> charges;
  for (QueryKind kind : {QueryKind::kApproximate, QueryKind::kProgressive}) {
    std::unique_ptr<FederationClient> client = Client(Options());
    ASSERT_NE(client, nullptr);
    ASSERT_TRUE(client->Submit(QuerySpec{"alice", BroadQuery()}).Wait().ok());
    QuerySpec spec = Progressive(1);
    spec.kind = kind;
    Result<QueryResponse> resp = client->Submit(std::move(spec)).Wait();
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    answers.push_back(*resp);
    charges.push_back(client->audit_log().ForAnalyst("alice").back().epsilon);
  }
  EXPECT_EQ(answers[0].estimate, answers[1].estimate);
  EXPECT_EQ(answers[0].stderr_estimate, answers[1].stderr_estimate);
  EXPECT_EQ(answers[0].spent.epsilon, answers[1].spent.epsilon);
  EXPECT_EQ(answers[0].spent.delta, answers[1].spent.delta);
  EXPECT_EQ(charges[0], charges[1]);
}

}  // namespace
}  // namespace fedaqp
