// Second parameterized property suite: mapped-store persistence across
// layouts/capacities, stratified estimation sweeps, EM
// determinism and balanced chunking invariants.

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "sampling/em_sampler.h"
#include "sampling/stratified.h"
#include "storage/cluster_store.h"
#include "workload/datagen.h"

namespace fedaqp {
namespace {

// ------------------------------------------------------- Persistence sweep

// Param: (layout, capacity).
using PersistParam = std::tuple<int, size_t>;

class PersistenceProperty : public ::testing::TestWithParam<PersistParam> {};

TEST_P(PersistenceProperty, StoreRoundTripAcrossLayoutsAndCapacities) {
  auto [layout, capacity] = GetParam();
  SyntheticConfig cfg;
  cfg.rows = 1500;
  cfg.seed = 7 + capacity;
  cfg.dims = {{"x", 40, DistributionKind::kZipf, 1.4},
              {"y", 15, DistributionKind::kUniform, 0.0}};
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  ClusterStoreOptions opts;
  opts.cluster_capacity = capacity;
  opts.layout = static_cast<ClusterLayout>(layout);
  opts.shuffle_seed = 3;
  Result<ClusterStore> store = ClusterStore::Build(*t, opts);
  ASSERT_TRUE(store.ok());

  std::string path = testing::TempDir() + "/fedaqp_prop_" +
                     std::to_string(layout) + "_" + std::to_string(capacity);
  ASSERT_TRUE(store->SaveMapped(path).ok());
  Result<ClusterStore> back = ClusterStore::OpenMapped(path);
  ASSERT_TRUE(back.ok());

  EXPECT_EQ(back->num_clusters(), store->num_clusters());
  // The shared-S value Federation::OpenMapped takes from each file.
  EXPECT_EQ(back->options().cluster_capacity, capacity);
  Rng rng(19);
  for (int trial = 0; trial < 5; ++trial) {
    Value lo = rng.UniformInt(0, 30);
    Value hi = rng.UniformInt(lo, 39);
    for (Aggregation agg :
         {Aggregation::kCount, Aggregation::kSum, Aggregation::kSumSquares}) {
      RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
      EXPECT_EQ(back->EvaluateExact(q), store->EvaluateExact(q));
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PersistenceProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values<size_t>(64,
                                                                      500)));

// ------------------------------------------------------------- Chunk sweep

class ChunkProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkProperty, BalancedChunkingInvariants) {
  size_t rows = GetParam();
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = rows;
  cfg.dims = {{"x", 10, DistributionKind::kUniform, 0.0}};
  Result<Table> t = GenerateSynthetic(cfg);
  ASSERT_TRUE(t.ok());
  for (size_t capacity : {7u, 64u, 129u}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = capacity;
    Result<ClusterStore> store = ClusterStore::Build(*t, opts);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ(store->TotalRows(), rows);
    size_t expected_clusters = (rows + capacity - 1) / capacity;
    EXPECT_EQ(store->num_clusters(), expected_clusters);
    size_t min_size = rows, max_size = 0;
    for (const auto& c : store->clusters()) {
      EXPECT_LE(c.num_rows(), capacity);
      min_size = std::min(min_size, c.num_rows());
      max_size = std::max(max_size, c.num_rows());
    }
    if (store->num_clusters() > 0) {
      EXPECT_LE(max_size - min_size, 1u)
          << "rows=" << rows << " cap=" << capacity;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkProperty,
                         ::testing::Values<size_t>(1, 7, 63, 64, 65, 1000,
                                                   1023));

// ------------------------------------------------------- Stratified sweep

// Param: (strata, total sample, seed).
using StratParam = std::tuple<size_t, size_t, uint64_t>;

class StratifiedProperty : public ::testing::TestWithParam<StratParam> {};

TEST_P(StratifiedProperty, ExpansionEstimatorUnbiased) {
  auto [strata, total, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> totals(40);
  for (double& x : totals) x = rng.UniformRange(1.0, 50.0);
  double truth = 0.0;
  for (double x : totals) truth += x;
  Result<StratifiedPlan> plan = BuildStratifiedPlan(totals, strata, total);
  ASSERT_TRUE(plan.ok());
  RunningStats means;
  for (int rep = 0; rep < 4000; ++rep) {
    Result<StratifiedSample> sample = DrawStratifiedSample(*plan, &rng);
    ASSERT_TRUE(sample.ok());
    double est = 0.0;
    for (size_t d = 0; d < sample->chosen.size(); ++d) {
      est += totals[sample->chosen[d]] * sample->expansion[d];
    }
    means.Add(est);
  }
  EXPECT_NEAR(means.mean(), truth, truth * 0.03)
      << "strata=" << strata << " total=" << total;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StratifiedProperty,
    ::testing::Combine(::testing::Values<size_t>(1, 3, 5),
                       ::testing::Values<size_t>(6, 15),
                       ::testing::Values<uint64_t>(5, 71)));

// ------------------------------------------------------------ EM determinism

class EmDeterminismProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EmDeterminismProperty, SameSeedSamePicks) {
  uint64_t seed = GetParam();
  std::vector<double> props{0.4, 0.3, 0.2, 0.05, 0.05};
  EmSamplerOptions opts;
  opts.epsilon = 0.5;
  opts.n_min = 4;
  Rng a(seed), b(seed);
  Result<EmSample> sa = EmSampleClusters(props, 8, opts, &a);
  Result<EmSample> sb = EmSampleClusters(props, 8, opts, &b);
  ASSERT_TRUE(sa.ok());
  ASSERT_TRUE(sb.ok());
  EXPECT_EQ(sa->chosen, sb->chosen);
  EXPECT_EQ(sa->pps, sb->pps);
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmDeterminismProperty,
                         ::testing::Values<uint64_t>(1, 42, 9999));

}  // namespace
}  // namespace fedaqp
