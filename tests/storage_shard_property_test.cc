// Property suite for the sharded intra-provider scan engine: for random
// tables and queries, across all three ClusterLayouts, every sharded
// result — exact evaluation, covering-set scans, metadata covers, DP
// estimates, work stats, and the EM sample composition they encode — must
// be bit-identical to the shard_count=1 run, for shard counts that do and
// do not divide the cluster count evenly, with and without a pool.

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/federation.h"
#include "exec/thread_pool.h"
#include "fixture.h"
#include "federation/provider.h"
#include "metadata/metadata_store.h"
#include "storage/cluster_store.h"
#include "storage/sharded_scan_executor.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

// Shard counts the ISSUE pins: 1 (degenerate), divisors and non-divisors
// of typical cluster counts, and more shards than some stores have
// clusters.
const size_t kShardCounts[] = {1, 2, 3, 7, 16};

const ClusterLayout kLayouts[] = {ClusterLayout::kSequential,
                                  ClusterLayout::kSortedByFirstDim,
                                  ClusterLayout::kShuffled};

Table RandomTable(size_t rows, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 120, DistributionKind::kNormal, 0.5},
              {"b", 60, DistributionKind::kZipf, 1.1},
              {"c", 30, DistributionKind::kUniform, 0.0}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

RangeQuery RandomQuery(Rng* rng) {
  Aggregation agg = rng->Bernoulli(0.5) ? Aggregation::kCount : Aggregation::kSum;
  RangeQueryBuilder builder(agg);
  Value lo0 = rng->UniformInt(0, 70), hi0 = rng->UniformInt(lo0, 119);
  builder.Where(0, lo0, hi0);
  if (rng->Bernoulli(0.5)) {
    Value lo1 = rng->UniformInt(0, 30), hi1 = rng->UniformInt(lo1, 59);
    builder.Where(1, lo1, hi1);
  }
  return builder.Build();
}

// ----------------------------------------------------- Partition geometry --

TEST(ShardPartitionTest, CoversDomainContiguouslyAndBalanced) {
  for (size_t n : {0u, 1u, 5u, 37u, 100u}) {
    for (size_t shards : kShardCounts) {
      std::vector<ShardRange> ranges =
          ShardedScanExecutor::Partition(n, shards);
      size_t expected = n < shards ? n : shards;
      ASSERT_EQ(ranges.size(), n == 0 ? 0 : expected);
      size_t next = 0, min_size = n, max_size = 0;
      for (const ShardRange& r : ranges) {
        EXPECT_EQ(r.begin, next);  // contiguous, ascending, gap-free
        EXPECT_GT(r.end, r.begin);
        next = r.end;
        min_size = r.size() < min_size ? r.size() : min_size;
        max_size = r.size() > max_size ? r.size() : max_size;
      }
      EXPECT_EQ(next, n);
      if (!ranges.empty()) {
        EXPECT_LE(max_size - min_size, 1u);
      }
    }
  }
}

TEST(ShardPartitionTest, ShardSeedsAreKeyedAndStable) {
  // Stable: a pure function of the triple.
  EXPECT_EQ(ShardedScanExecutor::ShardSeed(1, 2, 3),
            ShardedScanExecutor::ShardSeed(1, 2, 3));
  // Distinct across each coordinate of (provider seed, query id, shard id).
  std::set<uint64_t> seeds;
  for (uint64_t p = 0; p < 8; ++p) {
    for (uint64_t q = 0; q < 8; ++q) {
      for (uint64_t s = 0; s < 8; ++s) {
        seeds.insert(ShardedScanExecutor::ShardSeed(p, q, s));
      }
    }
  }
  EXPECT_EQ(seeds.size(), 8u * 8u * 8u);
}

// ----------------------------------------------- Store-level bit-identity --

// One store per layout with a cluster count the shard counts do not divide
// evenly (1700 rows / capacity 96 -> 18 clusters).
TEST(ShardedStoreProperty, ExactScansIdenticalForEveryShardCount) {
  ThreadPool pool(3);
  for (ClusterLayout layout : kLayouts) {
    Table t = RandomTable(1700, 0x51ed + static_cast<uint64_t>(layout));
    ClusterStoreOptions opts;
    opts.cluster_capacity = 96;
    opts.layout = layout;
    opts.shuffle_seed = 99;
    Result<ClusterStore> store = ClusterStore::Build(t, opts);
    ASSERT_TRUE(store.ok());
    MetadataStore metas = MetadataStore::Build(*store);

    Rng rng(0xabc0 + static_cast<uint64_t>(layout));
    for (int trial = 0; trial < 6; ++trial) {
      RangeQuery q = RandomQuery(&rng);
      ShardScanStats base_stats;
      const int64_t base_exact = store->EvaluateExact(q, nullptr, &base_stats);
      const CoverInfo base_cover = metas.Cover(q);
      Result<ScanResult> base_scan =
          store->ScanClusters(q, base_cover.cluster_ids);
      ASSERT_TRUE(base_scan.ok());

      for (size_t shards : kShardCounts) {
        ShardedScanExecutor exec(shards, &pool);
        ShardScanStats stats;
        EXPECT_EQ(store->EvaluateExact(q, &exec, &stats), base_exact)
            << "layout=" << static_cast<int>(layout) << " shards=" << shards;
        // Work counters are shard-invariant (total work is total work).
        EXPECT_EQ(stats.clusters_scanned, base_stats.clusters_scanned);
        EXPECT_EQ(stats.rows_scanned, base_stats.rows_scanned);

        CoverInfo cover = metas.Cover(q, &exec);
        ASSERT_EQ(cover.cluster_ids, base_cover.cluster_ids);
        ASSERT_EQ(cover.proportions.size(), base_cover.proportions.size());
        for (size_t i = 0; i < cover.proportions.size(); ++i) {
          // Bitwise: the same double computed for the same cluster.
          EXPECT_EQ(cover.proportions[i], base_cover.proportions[i]);
        }

        Result<ScanResult> scan =
            store->ScanClusters(q, cover.cluster_ids, &exec);
        ASSERT_TRUE(scan.ok());
        EXPECT_EQ(scan->count, base_scan->count);
        EXPECT_EQ(scan->sum, base_scan->sum);
        EXPECT_EQ(scan->sum_squares, base_scan->sum_squares);
      }
    }
  }
}

// -------------------------------------------- Provider-level bit-identity --

std::unique_ptr<DataProvider> MakeShardedProvider(ClusterLayout layout,
                                                  size_t num_scan_shards,
                                                  uint64_t seed) {
  Table t = RandomTable(2200, seed);
  Result<Table> tensor = t.BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = 80;
  popts.storage.layout = layout;
  popts.storage.shuffle_seed = seed ^ 0x5;
  popts.storage.num_scan_shards = num_scan_shards;
  popts.n_min = 4;
  popts.seed = seed * 7 + 3;
  Result<std::unique_ptr<DataProvider>> p = DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

// The full local protocol — cover, DP summary, EM sample, scan, estimate,
// smooth sensitivity, noise — must not depend on the shard count: estimate
// bits encode the sample composition, so equality here pins that the EM
// sampler saw an identical cover (hence identical pps weights) and the
// estimator consumed identical per-cluster scan results.
TEST(ShardedProviderProperty, LocalEstimatesIdenticalForEveryShardCount) {
  ThreadPool pool(3);
  for (ClusterLayout layout : kLayouts) {
    const uint64_t seed = 0x9d0 + static_cast<uint64_t>(layout);

    struct Baseline {
      double summary_avg = 0.0, summary_nq = 0.0;
      double estimate = 0.0, variance = 0.0, sensitivity = 0.0;
      size_t clusters = 0, rows = 0;
      double exact_estimate = 0.0;
    };
    Baseline base;
    bool have_base = false;

    for (size_t shards : kShardCounts) {
      std::unique_ptr<DataProvider> p =
          MakeShardedProvider(layout, shards, seed);
      ShardedScanExecutor exec(shards, &pool);
      RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                         .Where(0, 10, 100)
                         .Where(1, 5, 50)
                         .Build();
      ProviderWorkStats cover_work;
      CoverInfo cover = p->Cover(q, &cover_work, &exec);
      ASSERT_GE(cover.NumClusters(), 4u);

      // Fresh, shard-count-independent session streams, as the endpoint
      // layer derives them.
      Rng summary_rng(MixSeeds(p->options().seed, 1001));
      Result<ProviderSummary> summary =
          p->PublishSummary(q, cover, 0.3, &summary_rng);
      ASSERT_TRUE(summary.ok());

      Rng approx_rng(MixSeeds(p->options().seed, 2002));
      Result<LocalEstimate> est = p->Approximate(
          q, cover, /*sample_size=*/6, /*eps_sampling=*/0.2,
          /*eps_estimate=*/0.5, /*delta=*/1e-3, /*add_noise=*/true,
          &approx_rng, &exec);
      ASSERT_TRUE(est.ok());

      Rng exact_rng(MixSeeds(p->options().seed, 3003));
      Result<LocalEstimate> exact =
          p->ExactAnswer(q, cover, 0.5, /*add_noise=*/true, &exact_rng, &exec);
      ASSERT_TRUE(exact.ok());

      if (!have_base) {
        base = Baseline{summary->noisy_avg_r, summary->noisy_n_q,
                        est->estimate,        est->variance,
                        est->sensitivity,     est->work.clusters_scanned,
                        est->work.rows_scanned, exact->estimate};
        have_base = true;
        continue;
      }
      EXPECT_EQ(summary->noisy_avg_r, base.summary_avg) << "shards=" << shards;
      EXPECT_EQ(summary->noisy_n_q, base.summary_nq) << "shards=" << shards;
      EXPECT_EQ(est->estimate, base.estimate) << "shards=" << shards;
      EXPECT_EQ(est->variance, base.variance) << "shards=" << shards;
      EXPECT_EQ(est->sensitivity, base.sensitivity) << "shards=" << shards;
      // Sample composition proxy: the same distinct clusters were scanned.
      EXPECT_EQ(est->work.clusters_scanned, base.clusters)
          << "shards=" << shards;
      EXPECT_EQ(est->work.rows_scanned, base.rows) << "shards=" << shards;
      EXPECT_EQ(exact->estimate, base.exact_estimate) << "shards=" << shards;
    }
  }
}

// ------------------------------------------ Federation::Open (pool build) --

// Federation::Open builds its providers on a pool and gives each the
// federation's num_scan_shards: what it opens answers alike for every
// shard count. (Shards at query time are an axis of
// tests/determinism_matrix_test.cc.)
TEST(ShardedFederationProperty, OpenBuildsAlikeForEveryShardCount) {
  SyntheticConfig cfg;
  cfg.rows = 6000;
  cfg.seed = 77;
  cfg.dims = {{"a", 80, DistributionKind::kNormal, 0.4},
              {"b", 40, DistributionKind::kZipf, 1.2}};
  const RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                           .Where(0, 10, 70)
                           .Where(1, 0, 30)
                           .Build();
  std::vector<double> first;
  for (size_t shards : kShardCounts) {
    Result<std::vector<Table>> parts = GenerateFederatedTensors(cfg, {0, 1}, 3);
    ASSERT_TRUE(parts.ok());
    FederationOptions fopts;
    fopts.cluster_capacity = 64;
    fopts.layout = ClusterLayout::kShuffled;
    fopts.seed = 4321;
    fopts.protocol = TestConfig(42, 4);
    fopts.protocol.total_xi = 1e6;
    fopts.protocol.total_psi = 1e3;
    fopts.protocol.num_scan_shards = shards;
    Result<std::unique_ptr<Federation>> fed =
        Federation::Open(std::move(parts).value(), fopts);
    ASSERT_TRUE(fed.ok());
    Result<QueryResponse> resp = (*fed)->Query(q);
    Result<QueryResponse> exact = (*fed)->QueryExact(q);
    ASSERT_TRUE(resp.ok() && exact.ok());
    const std::vector<double> got = {
        resp->estimate, exact->estimate,
        static_cast<double>(resp->breakdown.rows_scanned)};
    if (first.empty()) first = got;
    EXPECT_EQ(got, first) << "shards=" << shards;
  }
}

}  // namespace
}  // namespace fedaqp
