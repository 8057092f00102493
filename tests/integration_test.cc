// End-to-end integration tests through the public Federation facade.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/fedaqp.h"
#include "federation/derived.h"
#include "registry_delta.h"

namespace fedaqp {
namespace {

std::unique_ptr<Federation> OpenSmallFederation(
    ReleaseMode mode = ReleaseMode::kLocalDp, double sampling_rate = 0.25,
    PrivacyBudget budget = {1.5, 1e-3}) {
  SyntheticConfig cfg;
  cfg.rows = 24000;
  cfg.seed = 404;
  cfg.dims = {{"age", 74, DistributionKind::kNormal, 0.3},
              {"dept", 30, DistributionKind::kZipf, 1.3},
              {"score", 50, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> parts =
      GenerateFederatedTensors(cfg, {0, 1, 2}, 4);
  EXPECT_TRUE(parts.ok());
  FederationOptions opts;
  opts.cluster_capacity = 128;
  opts.n_min = 4;
  opts.protocol.mode = mode;
  opts.protocol.sampling_rate = sampling_rate;
  opts.protocol.per_query_budget = budget;
  opts.protocol.total_xi = 1e6;
  opts.protocol.total_psi = 1e3;
  opts.seed = 777;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts).value(), opts);
  EXPECT_TRUE(fed.ok());
  return std::move(fed).value();
}

TEST(IntegrationTest, OpenValidates) {
  EXPECT_FALSE(Federation::Open({}, FederationOptions{}).ok());
}

TEST(IntegrationTest, QuickstartFlow) {
  std::unique_ptr<Federation> fed = OpenSmallFederation();
  ASSERT_NE(fed, nullptr);
  EXPECT_EQ(fed->num_providers(), 4u);
  EXPECT_EQ(fed->schema().num_dims(), 3u);
  EXPECT_GT(fed->MetadataBytes(), 0u);

  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 20, 60)
                     .Where(1, 0, 20)
                     .Build();
  RegistryDelta delta;
  Result<QueryResponse> exact = fed->QueryExact(q);
  Result<QueryResponse> priv = fed->Query(q);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(priv.ok());
  EXPECT_GT(exact->estimate, 0.0);
  // Private answer is in the right ballpark (generous: sampling + noise).
  EXPECT_LT(RelativeError(exact->estimate, priv->estimate), 0.8);
  // Privacy was spent on the private path only.
  EXPECT_DOUBLE_EQ(
      fed->client().ledger().Spent(Federation::kAnalyst)->epsilon, 1.5);
  EXPECT_EQ(delta("accountant.charges"), 1u);
}

TEST(IntegrationTest, RepeatedQueriesConvergeNearTruth) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kLocalDp, 0.35, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 10, 60)
                     .Where(2, 5, 45)
                     .Build();
  Result<QueryResponse> exact = fed->QueryExact(q);
  ASSERT_TRUE(exact.ok());
  double acc = 0.0;
  const int reps = 20;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> r = fed->Query(q);
    ASSERT_TRUE(r.ok());
    acc += r->estimate;
  }
  EXPECT_LT(RelativeError(exact->estimate, acc / reps), 0.25);
}

TEST(IntegrationTest, SmcModeEndToEnd) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kSmc, 0.35, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 15, 55)
                     .Build();
  Result<QueryResponse> exact = fed->QueryExact(q);
  ASSERT_TRUE(exact.ok());
  double acc = 0.0;
  const int reps = 15;
  for (int i = 0; i < reps; ++i) {
    Result<QueryResponse> r = fed->Query(q);
    ASSERT_TRUE(r.ok());
    acc += r->estimate;
  }
  EXPECT_LT(RelativeError(exact->estimate, acc / reps), 0.3);
}

TEST(IntegrationTest, CountAndSumAgreeOnTensorSemantics) {
  std::unique_ptr<Federation> fed = OpenSmallFederation();
  ASSERT_NE(fed, nullptr);
  // On a count tensor, SUM(Measure) >= COUNT(cells) for any range.
  RangeQuery count_q =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 50).Build();
  RangeQuery sum_q =
      RangeQueryBuilder(Aggregation::kSum).Where(0, 20, 50).Build();
  Result<QueryResponse> c = fed->QueryExact(count_q);
  Result<QueryResponse> s = fed->QueryExact(sum_q);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(s.ok());
  EXPECT_GE(s->estimate, c->estimate);
}

/// Replays `client`'s audit log into a fresh ledger: every analyst's
/// spent, remaining and saved budget must match the live ledger bit for
/// bit, and `analyst` must have spent exactly `expected_eps`.
void ExpectLedgerReplays(const FederationClient& client,
                         const std::string& analyst, double expected_eps) {
  AnalystLedger replayed;
  Status replay = client.audit_log().Replay(&replayed);
  ASSERT_TRUE(replay.ok()) << replay.ToString();
  const AnalystLedger& live = client.ledger();
  ASSERT_EQ(replayed.Analysts(), live.Analysts());
  for (const std::string& a : live.Analysts()) {
    EXPECT_EQ(replayed.Spent(a)->epsilon, live.Spent(a)->epsilon) << a;
    EXPECT_EQ(replayed.Spent(a)->delta, live.Spent(a)->delta) << a;
    EXPECT_EQ(replayed.Remaining(a)->epsilon, live.Remaining(a)->epsilon)
        << a;
    EXPECT_EQ(replayed.Saved(a)->epsilon, live.Saved(a)->epsilon) << a;
  }
  EXPECT_EQ(live.Spent(analyst)->epsilon, expected_eps) << analyst;
}

/// `n` charges of `eps`, summed in the order the ledger adds them.
double Charged(double eps, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += eps;
  return sum;
}

// One admission path: whichever entry point a private query takes, a
// client's ledger charges it once per answered query, and that client's
// audit log replays the ledger bit-exactly.
TEST(IntegrationTest, EveryEntryPointChargesAReplayableLedger) {
  std::unique_ptr<Federation> fed = OpenSmallFederation();
  ASSERT_NE(fed, nullptr);
  const RangeQuery count_q = RangeQueryBuilder(Aggregation::kCount)
                                 .Where(0, 20, 60)
                                 .Where(1, 0, 20)
                                 .Build();
  const RangeQuery sum_q =
      RangeQueryBuilder(Aggregation::kSum).Where(0, 10, 70).Build();

  // Federation::Query and QueryBatch: the federation's one-analyst client.
  double answered = 0.0;
  Result<QueryResponse> one = fed->Query(count_q);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  answered += one->spent.epsilon;
  for (const BatchOutcome& out : fed->QueryBatch({count_q, sum_q})) {
    ASSERT_TRUE(out.ok()) << out.status.ToString();
    answered += out.response.spent.epsilon;
  }
  ExpectLedgerReplays(fed->client(), Federation::kAnalyst, answered);

  // RunWorkload, the derived helpers and the attack harness submit to a
  // client as a named analyst.
  FederationClient::Options options;
  options.protocol.per_query_budget = {1.5, 1e-3};
  options.protocol.sampling_rate = 0.25;
  options.analysts = {{"workload", 1e6, 1e3}, {"stats", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(fed->provider_ptrs(), options);
  ASSERT_TRUE(client.ok());
  FederationClient& c = **client;

  const std::vector<RangeQuery> workload = {count_q, sum_q, count_q};
  ASSERT_TRUE(RunWorkload(c, "workload", workload).ok());
  ExpectLedgerReplays(c, "workload", Charged(1.5, workload.size()));

  GroupByOptions by_dept;
  by_dept.group_dim = 1;
  by_dept.group_lo = 0;
  by_dept.group_hi = 4;
  const RangeQuery by_age =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 60).Build();
  Result<GroupByResult> grouped = PrivateGroupBy(c, "stats", by_age, by_dept);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  ASSERT_EQ(grouped->buckets.size(), 5u);
  Result<DerivedResult> avg = PrivateAverage(c, "stats", sum_q);
  ASSERT_TRUE(avg.ok()) << avg.status().ToString();
  // One full charge per bucket, then the average's two sub-queries.
  ExpectLedgerReplays(c, "stats", Charged(1.5, 5 + 2));

  AttackConfig attack;
  attack.sa_dim = 1;  // 30 classes, no QI: 1 + 30 training queries
  attack.xi = 5.0;
  attack.psi = 1e-6;
  Result<AttackResult> attacked = RunNbcAttack(c, "attacker", attack, {});
  ASSERT_TRUE(attacked.ok()) << attacked.status().ToString();
  ExpectLedgerReplays(c, "attacker",
                      Charged(attacked->per_query_budget.epsilon,
                              attacked->num_training_queries));
}

TEST(IntegrationTest, WorkloadOverFacadeProviders) {
  std::unique_ptr<Federation> fed =
      OpenSmallFederation(ReleaseMode::kLocalDp, 0.3, {2.0, 1e-3});
  ASSERT_NE(fed, nullptr);
  QueryGenOptions qopts;
  qopts.num_dims = 2;
  qopts.seed = 505;
  RandomQueryGenerator gen(fed->schema(), qopts);
  Result<std::vector<RangeQuery>> queries = gen.Workload(8);
  ASSERT_TRUE(queries.ok());
  FederationClient::Options options;
  options.protocol.sampling_rate = 0.3;
  options.protocol.per_query_budget = {2.0, 1e-3};
  options.analysts = {AnalystGrant{"a", 1e6, 1e3}};
  Result<std::unique_ptr<FederationClient>> client =
      FederationClient::Create(fed->provider_ptrs(), options);
  ASSERT_TRUE(client.ok());
  Result<std::vector<QueryMeasurement>> ms =
      RunWorkload(**client, "a", *queries);
  ASSERT_TRUE(ms.ok());
  WorkloadMetrics metrics = Summarize(*ms);
  EXPECT_GT(metrics.mean_work_ratio, 1.5);
  EXPECT_LT(metrics.median_relative_error, 0.6);
}

TEST(IntegrationTest, MetadataFootprintScalesWithClusters) {
  std::unique_ptr<Federation> small = OpenSmallFederation();
  ASSERT_NE(small, nullptr);
  size_t clusters = 0;
  for (size_t i = 0; i < small->num_providers(); ++i) {
    clusters += small->provider(i)->store().num_clusters();
  }
  // KB-per-cluster scale, as reported in §6.1 of the paper.
  double per_cluster = static_cast<double>(small->MetadataBytes()) /
                       static_cast<double>(clusters);
  EXPECT_GT(per_cluster, 100.0);
  EXPECT_LT(per_cluster, 100.0 * 1024.0);
}

// ------------------------------------------------------- parallel open --

std::vector<Table> SmallPartitions(size_t parts) {
  SyntheticConfig cfg;
  cfg.rows = 16000;
  cfg.seed = 515;
  cfg.dims = {{"age", 74, DistributionKind::kNormal, 0.3},
              {"dept", 30, DistributionKind::kZipf, 1.3},
              {"score", 50, DistributionKind::kUniform, 0.0}};
  Result<std::vector<Table>> tables =
      GenerateFederatedTensors(cfg, {0, 1, 2}, parts);
  EXPECT_TRUE(tables.ok());
  return tables.ok() ? std::move(tables).value() : std::vector<Table>{};
}

FederationOptions ShuffledOptions() {
  FederationOptions opts;
  opts.cluster_capacity = 64;
  // Shuffled, so every provider's shuffle seed shapes its clusters.
  opts.layout = ClusterLayout::kShuffled;
  opts.n_min = 4;
  opts.seed = 2024;
  return opts;
}

std::vector<uint8_t> MetadataBytes(const DataProvider& p) {
  ByteWriter w;
  p.metadata().Serialize(&w);
  return w.bytes();
}

void ExpectSameClusters(const ClusterStore& a, const ClusterStore& b) {
  ASSERT_EQ(a.num_clusters(), b.num_clusters());
  for (size_t c = 0; c < a.num_clusters(); ++c) {
    const Cluster& x = a.cluster(c);
    const Cluster& y = b.cluster(c);
    ASSERT_EQ(x.num_rows(), y.num_rows());
    ASSERT_EQ(x.num_dims(), y.num_dims());
    for (size_t d = 0; d < x.num_dims(); ++d) {
      EXPECT_TRUE(std::equal(x.column_data(d), x.column_data(d) + x.num_rows(),
                             y.column_data(d)))
          << "cluster " << c << " dim " << d;
      EXPECT_EQ(x.MinValue(d), y.MinValue(d));
      EXPECT_EQ(x.MaxValue(d), y.MaxValue(d));
    }
    EXPECT_TRUE(std::equal(x.measure_data(), x.measure_data() + x.num_rows(),
                           y.measure_data()))
        << "cluster " << c;
  }
}

std::vector<RangeQuery> ProbeQueries() {
  return {RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 60).Build(),
          RangeQueryBuilder(Aggregation::kSum)
              .Where(1, 0, 12)
              .Where(2, 10, 40)
              .Build(),
          RangeQueryBuilder(Aggregation::kCount).Where(2, 45, 49).Build()};
}

/// Removes the store files it hands out.
class StoreFiles {
 public:
  ~StoreFiles() {
    for (const std::string& p : paths_) std::remove(p.c_str());
  }
  std::string Path(const std::string& name) {
    paths_.push_back(::testing::TempDir() + "fedaqp_open_" + name + ".bin");
    std::remove(paths_.back().c_str());
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

// The parallel build must give each provider exactly what a sequential
// DataProvider::Create would, with the seeds Rng(options.seed) yields in
// order. Seven partitions outnumber the cores of a small host, so there
// some threads build several providers.
TEST(ParallelOpenTest, ProvidersMatchSequentialCreate) {
  const FederationOptions opts = ShuffledOptions();
  for (size_t parts : {1, 3, 4, 7}) {
    SCOPED_TRACE("partitions=" + std::to_string(parts));
    std::vector<Table> tables = SmallPartitions(parts);
    ASSERT_EQ(tables.size(), parts);
    Result<std::unique_ptr<Federation>> fed = Federation::Open(tables, opts);
    ASSERT_TRUE(fed.ok()) << fed.status().ToString();
    ASSERT_EQ((*fed)->num_providers(), parts);
    Rng seeder(opts.seed);
    for (size_t i = 0; i < parts; ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = opts.cluster_capacity;
      popts.storage.layout = opts.layout;
      popts.storage.shuffle_seed = seeder.NextU64();
      popts.storage.num_scan_shards = opts.protocol.num_scan_shards;
      popts.n_min = opts.n_min;
      popts.sum_sensitivity_bound = opts.sum_sensitivity_bound;
      popts.seed = seeder.NextU64();
      Result<std::unique_ptr<DataProvider>> ref =
          DataProvider::Create(tables[i], popts);
      ASSERT_TRUE(ref.ok());
      const DataProvider& got = *(*fed)->provider(i);
      EXPECT_EQ(got.options().seed, (*ref)->options().seed);
      EXPECT_EQ(got.options().storage.shuffle_seed,
                (*ref)->options().storage.shuffle_seed);
      EXPECT_EQ(MetadataBytes(got), MetadataBytes(**ref));
      ExpectSameClusters(got.store(), (*ref)->store());
    }
  }
}

TEST(ParallelOpenTest, OpenMappedMatchesResidentFederation) {
  const FederationOptions opts = ShuffledOptions();
  for (size_t parts : {1, 3, 4, 7}) {
    SCOPED_TRACE("partitions=" + std::to_string(parts));
    Result<std::unique_ptr<Federation>> resident =
        Federation::Open(SmallPartitions(parts), opts);
    ASSERT_TRUE(resident.ok());
    StoreFiles files;
    std::vector<std::string> paths;
    for (size_t i = 0; i < parts; ++i) {
      paths.push_back(files.Path(std::to_string(parts) + "_" +
                                 std::to_string(i)));
      ASSERT_TRUE((*resident)->provider(i)->store().SaveMapped(paths[i]).ok());
    }
    Result<std::unique_ptr<Federation>> mapped =
        Federation::OpenMapped(paths, opts);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    ASSERT_EQ((*mapped)->num_providers(), parts);
    for (size_t i = 0; i < parts; ++i) {
      const DataProvider& r = *(*resident)->provider(i);
      const DataProvider& m = *(*mapped)->provider(i);
      EXPECT_TRUE(m.store().mapped());
      EXPECT_EQ(MetadataBytes(m), MetadataBytes(r));
      for (const RangeQuery& q : ProbeQueries()) {
        CoverInfo rc = r.Cover(q, nullptr);
        CoverInfo mc = m.Cover(q, nullptr);
        EXPECT_EQ(mc.cluster_ids, rc.cluster_ids);
        EXPECT_EQ(mc.proportions, rc.proportions);
      }
    }
    for (const RangeQuery& q : ProbeQueries()) {
      Result<QueryResponse> r = (*resident)->QueryExact(q);
      Result<QueryResponse> m = (*mapped)->QueryExact(q);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(m.ok());
      EXPECT_EQ(m->estimate, r->estimate);
    }
  }
}

// Failures report the lowest failing path, as a sequential open would:
// a schema mismatch at path 2 wins over a missing file at path 3.
TEST(ParallelOpenTest, OpenMappedReportsLowestFailingPath) {
  const FederationOptions opts = ShuffledOptions();
  Result<std::unique_ptr<Federation>> resident =
      Federation::Open(SmallPartitions(4), opts);
  ASSERT_TRUE(resident.ok());
  StoreFiles files;
  std::vector<std::string> paths;
  for (size_t i = 0; i < 2; ++i) {
    paths.push_back(files.Path("order_" + std::to_string(i)));
    ASSERT_TRUE((*resident)->provider(i)->store().SaveMapped(paths[i]).ok());
  }
  Schema other;
  ASSERT_TRUE(other.AddDimension("age", 74).ok());
  Table other_table(other);
  for (Value v = 0; v < 40; ++v) ASSERT_TRUE(other_table.AppendValues({v}).ok());
  Result<ClusterStore> other_store =
      ClusterStore::Build(other_table, ClusterStoreOptions{});
  ASSERT_TRUE(other_store.ok());
  paths.push_back(files.Path("order_other_schema"));
  ASSERT_TRUE(other_store->SaveMapped(paths[2]).ok());
  paths.push_back(files.Path("order_missing"));

  Result<std::unique_ptr<Federation>> fed = Federation::OpenMapped(paths, opts);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(fed.status().message().find(paths[2]), std::string::npos)
      << fed.status().ToString();
  EXPECT_NE(fed.status().message().find("schema differs"), std::string::npos);

  // With path 1 missing as well, path 1's failure comes first.
  paths[1] = paths[3];
  fed = Federation::OpenMapped(paths, opts);
  ASSERT_FALSE(fed.ok());
  EXPECT_EQ(fed.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace fedaqp
