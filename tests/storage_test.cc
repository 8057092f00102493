// Unit tests for src/storage: schema, tables, count tensors, range queries,
// clusters, cluster stores, and the compressed mmap-persistent store format.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/thread_pool.h"
#include "fixture.h"
#include "obs/metrics.h"
#include "storage/cluster_store.h"
#include "storage/range_query.h"
#include "storage/store_file.h"
#include "storage/table.h"

namespace fedaqp {
namespace {

Schema TwoDimSchema() {
  Schema s;
  EXPECT_TRUE(s.AddDimension("age", 100).ok());
  EXPECT_TRUE(s.AddDimension("income", 50).ok());
  return s;
}

Table SmallTable() {
  Table t(TwoDimSchema());
  // (age, income)
  EXPECT_TRUE(t.AppendValues({20, 10}).ok());
  EXPECT_TRUE(t.AppendValues({25, 10}).ok());
  EXPECT_TRUE(t.AppendValues({25, 20}).ok());
  EXPECT_TRUE(t.AppendValues({70, 45}).ok());
  return t;
}

// ---------------------------------------------------------------- Schema --

TEST(SchemaTest, AddAndLookup) {
  Schema s = TwoDimSchema();
  EXPECT_EQ(s.num_dims(), 2u);
  EXPECT_EQ(*s.IndexOf("age"), 0u);
  EXPECT_EQ(*s.IndexOf("income"), 1u);
  EXPECT_EQ(s.IndexOf("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.dim(1).domain_size, 50);
}

TEST(SchemaTest, RejectsDuplicatesAndBadDomains) {
  Schema s;
  EXPECT_TRUE(s.AddDimension("a", 10).ok());
  EXPECT_FALSE(s.AddDimension("a", 5).ok());
  EXPECT_FALSE(s.AddDimension("b", 0).ok());
  EXPECT_FALSE(s.AddDimension("", 5).ok());
}

TEST(SchemaTest, InDomain) {
  Schema s = TwoDimSchema();
  EXPECT_TRUE(s.InDomain(0, 0));
  EXPECT_TRUE(s.InDomain(0, 99));
  EXPECT_FALSE(s.InDomain(0, 100));
  EXPECT_FALSE(s.InDomain(0, -1));
  EXPECT_FALSE(s.InDomain(5, 0));
}

TEST(SchemaTest, ProjectKeepsOrderAndNames) {
  Schema s = TwoDimSchema();
  Result<Schema> p = s.Project({1});
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p->num_dims(), 1u);
  EXPECT_EQ(p->dim(0).name, "income");
  EXPECT_FALSE(s.Project({5}).ok());
}

TEST(SchemaTest, EqualityAndToString) {
  EXPECT_TRUE(TwoDimSchema() == TwoDimSchema());
  Schema other;
  ASSERT_TRUE(other.AddDimension("age", 100).ok());
  EXPECT_FALSE(TwoDimSchema() == other);
  EXPECT_EQ(TwoDimSchema().ToString(), "age[100], income[50]");
}

// ----------------------------------------------------------------- Table --

TEST(TableTest, AppendValidation) {
  Table t(TwoDimSchema());
  EXPECT_TRUE(t.AppendValues({5, 5}).ok());
  EXPECT_FALSE(t.AppendValues({5}).ok());            // arity
  EXPECT_FALSE(t.AppendValues({100, 5}).ok());       // out of domain
  Row bad;
  bad.values = {5, 5};
  bad.measure = 0;
  EXPECT_FALSE(t.Append(bad).ok());                  // non-positive measure
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(TableTest, EvaluateCountAndSum) {
  Table t = SmallTable();
  RangeQuery count = RangeQueryBuilder(Aggregation::kCount)
                         .Where(0, 20, 30)
                         .Build();
  EXPECT_EQ(t.Evaluate(count), 3);
  RangeQuery both = RangeQueryBuilder(Aggregation::kCount)
                        .Where(0, 20, 30)
                        .Where(1, 15, 30)
                        .Build();
  EXPECT_EQ(t.Evaluate(both), 1);
}

TEST(TableTest, EvaluateEmptyRangeMatchesAll) {
  Table t = SmallTable();
  RangeQuery q(Aggregation::kCount, {});
  EXPECT_EQ(t.Evaluate(q), 4);
}

TEST(TableTest, TotalMeasureCountsIndividuals) {
  Table t = SmallTable();
  EXPECT_EQ(t.TotalMeasure(), 4);
}

TEST(TableTest, CountTensorMergesCells) {
  Table t = SmallTable();
  Result<Table> tensor = t.BuildCountTensor({0});
  ASSERT_TRUE(tensor.ok());
  // Ages 20, 25, 70 -> 3 cells; 25 has measure 2.
  EXPECT_EQ(tensor->num_rows(), 3u);
  EXPECT_EQ(tensor->TotalMeasure(), 4);
  RangeQuery q25 = RangeQueryBuilder(Aggregation::kSum).Where(0, 25, 25).Build();
  EXPECT_EQ(tensor->Evaluate(q25), 2);
  RangeQuery c25 =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 25, 25).Build();
  EXPECT_EQ(tensor->Evaluate(c25), 1);
}

TEST(TableTest, CountTensorSumEqualsRawCount) {
  // SUM(Measure) on the tensor equals COUNT(*) on the raw table for any
  // range over tensor dimensions (Fig. 2 of the paper).
  Rng rng(5);
  Table raw(TwoDimSchema());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(raw.AppendValues({rng.UniformInt(0, 99), rng.UniformInt(0, 49)})
                    .ok());
  }
  Result<Table> tensor = raw.BuildCountTensor({0, 1});
  ASSERT_TRUE(tensor.ok());
  for (int trial = 0; trial < 20; ++trial) {
    Value lo = rng.UniformInt(0, 80);
    Value hi = rng.UniformInt(lo, 99);
    RangeQuery raw_count =
        RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
    RangeQuery tensor_sum =
        RangeQueryBuilder(Aggregation::kSum).Where(0, lo, hi).Build();
    EXPECT_EQ(raw.Evaluate(raw_count), tensor->Evaluate(tensor_sum));
  }
}

TEST(TableTest, PartitionHorizontallyPreservesRows) {
  Table t = SmallTable();
  Result<std::vector<Table>> parts = t.PartitionHorizontally(3);
  ASSERT_TRUE(parts.ok());
  size_t total = 0;
  for (const auto& p : *parts) {
    EXPECT_TRUE(p.schema() == t.schema());
    total += p.num_rows();
  }
  EXPECT_EQ(total, t.num_rows());
  EXPECT_FALSE(t.PartitionHorizontally(0).ok());
}

// ------------------------------------------------------------ RangeQuery --

TEST(RangeQueryTest, ValidateCatchesBadQueries) {
  Schema s = TwoDimSchema();
  EXPECT_TRUE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build()
          .Validate(s).ok());
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(5, 0, 1).Build()
          .Validate(s).ok());  // bad dim
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 4).Build()
          .Validate(s).ok());  // empty interval
  EXPECT_FALSE(
      RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 100).Build()
          .Validate(s).ok());  // outside domain
  EXPECT_FALSE(RangeQueryBuilder(Aggregation::kCount)
                   .Where(0, 0, 10)
                   .Where(0, 5, 9)
                   .Build()
                   .Validate(s)
                   .ok());  // duplicate dim
}

TEST(RangeQueryTest, SerializeRoundTrip) {
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum)
                     .Where(0, 5, 25)
                     .Where(1, 0, 49)
                     .Build();
  ByteWriter w;
  q.Serialize(&w);
  ByteReader r(w.bytes());
  Result<RangeQuery> back = RangeQuery::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->aggregation(), Aggregation::kSum);
  ASSERT_EQ(back->ranges().size(), 2u);
  EXPECT_EQ(back->ranges()[0].dim_index, 0u);
  EXPECT_EQ(back->ranges()[0].lo, 5);
  EXPECT_EQ(back->ranges()[1].hi, 49);
}

TEST(RangeQueryTest, ToStringIsReadable) {
  Schema s = TwoDimSchema();
  RangeQuery q =
      RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 40).Build();
  EXPECT_EQ(q.ToString(s), "SELECT COUNT(*) WHERE 20<=age<=40");
}

// --------------------------------------------------------------- Cluster --

TEST(ClusterTest, ScanCountsAndSums) {
  Cluster c(0, 2);
  Row r1{{10, 5}, 2};
  Row r2{{20, 6}, 3};
  Row r3{{30, 7}, 4};
  c.Append(r1);
  c.Append(r2);
  c.Append(r3);
  EXPECT_EQ(c.num_rows(), 3u);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 20).Build();
  ScanResult res = c.Scan(q);
  EXPECT_EQ(res.count, 2);
  EXPECT_EQ(res.sum, 5);
  EXPECT_EQ(res.For(Aggregation::kCount), 2);
  EXPECT_EQ(res.For(Aggregation::kSum), 5);
}

TEST(ClusterTest, MinMaxTracking) {
  Cluster c(1, 1);
  EXPECT_GT(c.MinValue(0), c.MaxValue(0));  // empty: min 0 > max -1
  Row r{{42}, 1};
  c.Append(r);
  EXPECT_EQ(c.MinValue(0), 42);
  EXPECT_EQ(c.MaxValue(0), 42);
  Row r2{{7}, 1};
  c.Append(r2);
  EXPECT_EQ(c.MinValue(0), 7);
  EXPECT_EQ(c.MaxValue(0), 42);
}

TEST(ClusterTest, FractionGreaterEqualUsesDenominator) {
  Cluster c(2, 1);
  for (Value v : {1, 2, 3, 4}) {
    Row r{{v}, 1};
    c.Append(r);
  }
  // Denominator is the capacity S (8), not the row count (4).
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 3, 8), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 0, 8), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(c.FractionGreaterEqual(0, 5, 8), 0.0);
}

// ----------------------------------------------------------- ClusterStore --

Table WideTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t(TwoDimSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        t.AppendValues({rng.UniformInt(0, 99), rng.UniformInt(0, 49)}).ok());
  }
  return t;
}

TEST(ClusterStoreTest, SplitsIntoBalancedCapacityChunks) {
  Table t = WideTable(1000, 3);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 128;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->num_clusters(), 8u);  // ceil(1000/128)
  EXPECT_EQ(store->TotalRows(), 1000u);
  // Balanced: every cluster within one row of the others, none above S,
  // and in particular no runt final cluster.
  for (size_t i = 0; i < store->num_clusters(); ++i) {
    EXPECT_LE(store->cluster(i).num_rows(), 128u);
    EXPECT_GE(store->cluster(i).num_rows(), 125u);  // 1000/8 = 125
  }
}

TEST(ClusterStoreTest, RejectsZeroCapacity) {
  Table t = WideTable(10, 3);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 0;
  EXPECT_FALSE(ClusterStore::Build(t, opts).ok());
}

TEST(ClusterStoreTest, ExactEvaluationMatchesTableScan) {
  Table t = WideTable(2000, 7);
  for (ClusterLayout layout :
       {ClusterLayout::kSequential, ClusterLayout::kSortedByFirstDim,
        ClusterLayout::kShuffled}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = 100;
    opts.layout = layout;
    Result<ClusterStore> store = ClusterStore::Build(t, opts);
    ASSERT_TRUE(store.ok());
    Rng rng(11);
    for (int trial = 0; trial < 10; ++trial) {
      Value lo = rng.UniformInt(0, 60);
      Value hi = rng.UniformInt(lo, 99);
      for (Aggregation agg : {Aggregation::kCount, Aggregation::kSum}) {
        RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
        EXPECT_EQ(store->EvaluateExact(q), t.Evaluate(q));
      }
    }
  }
}

TEST(ClusterStoreTest, SortedLayoutConcentratesValues) {
  Table t = WideTable(1000, 13);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  opts.layout = ClusterLayout::kSortedByFirstDim;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  // With sorting, consecutive clusters hold increasing value ranges.
  for (size_t i = 0; i + 1 < store->num_clusters(); ++i) {
    EXPECT_LE(store->cluster(i).MaxValue(0), store->cluster(i + 1).MinValue(0));
  }
}

TEST(ClusterStoreTest, ScanClustersSubset) {
  Table t = WideTable(500, 17);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build();
  Result<ScanResult> all = store->ScanClusters(q, {0, 1, 2, 3, 4});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->count, 500);
  Result<ScanResult> one = store->ScanClusters(q, {0});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->count, 100);
}

// A bad id list is a protocol error: out-of-range ids were UB-adjacent and
// duplicates silently double-counted before the guard existed.
TEST(ClusterStoreTest, ScanClustersRejectsOutOfRangeAndDuplicateIds) {
  Table t = WideTable(500, 17);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 0, 99).Build();

  Result<ScanResult> out_of_range = store->ScanClusters(q, {99});
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);

  Result<ScanResult> duplicate = store->ScanClusters(q, {1, 2, 1});
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);

  // The guard applies on the sharded path too.
  ThreadPool pool(2);
  ShardedScanExecutor exec(3, &pool);
  EXPECT_FALSE(store->ScanClusters(q, {0, 0}, &exec).ok());
  Result<ScanResult> sharded = store->ScanClusters(q, {0, 1, 2, 3, 4}, &exec);
  ASSERT_TRUE(sharded.ok());
  EXPECT_EQ(sharded->count, 500);
}

TEST(ClusterStoreTest, TotalMeasureMatchesTable) {
  Table t = SmallTable();
  Result<Table> tensor = t.BuildCountTensor({0});
  ASSERT_TRUE(tensor.ok());
  ClusterStoreOptions opts;
  opts.cluster_capacity = 2;
  Result<ClusterStore> store = ClusterStore::Build(*tensor, opts);
  ASSERT_TRUE(store.ok());
  EXPECT_EQ(store->TotalMeasure(), 4);
}

// S1 pin: specialized scan profiles must not change the aggregate they do
// produce, and must zero the ones they skip.
TEST(ClusterStoreTest, ScanProfilesPinAnswers) {
  Table t = WideTable(800, 23);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 70).Build();
  std::vector<uint32_t> ids = {0, 2, 5};
  Result<ScanResult> all = store->ScanClusters(q, ids);
  ASSERT_TRUE(all.ok());
  Result<ScanResult> count =
      store->ScanClusters(q, ids, nullptr, nullptr, ScanProfile::kCount);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->count, all->count);
  EXPECT_EQ(count->sum, 0);
  EXPECT_EQ(count->sum_squares, 0);
  Result<ScanResult> sum =
      store->ScanClusters(q, ids, nullptr, nullptr, ScanProfile::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->sum, all->sum);
  EXPECT_EQ(sum->sum_squares, 0);
}

// S2: totals are cached at build time, not recomputed per call; appending
// through Build keeps them in sync with the table.
TEST(ClusterStoreTest, CachedTotalsMatchWalk) {
  Table t = WideTable(1234, 29);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  size_t rows = 0;
  int64_t measure = 0;
  store->ForEachCluster([&](const Cluster& c) {
    rows += c.num_rows();
    for (size_t i = 0; i < c.num_rows(); ++i) measure += c.measure(i);
  });
  EXPECT_EQ(store->TotalRows(), rows);
  EXPECT_EQ(store->TotalMeasure(), measure);
  EXPECT_EQ(store->TotalRows(), 1234u);
}

// ------------------------------------------------------- MappedStoreFile --

class MappedStoreTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) {
    std::string p = ::testing::TempDir() + "fedaqp_mapped_" + name + ".bin";
    std::remove(p.c_str());
    paths_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  static std::vector<uint8_t> ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  static void WriteBytes(const std::string& path,
                         const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<std::string> paths_;
};

TEST_F(MappedStoreTest, RoundTripPreservesEveryAnswer) {
  Table t = WideTable(2500, 31);
  for (ClusterLayout layout :
       {ClusterLayout::kSequential, ClusterLayout::kSortedByFirstDim,
        ClusterLayout::kShuffled}) {
    ClusterStoreOptions opts;
    opts.cluster_capacity = 128;
    opts.layout = layout;
    Result<ClusterStore> built = ClusterStore::Build(t, opts);
    ASSERT_TRUE(built.ok());
    std::string path =
        Path("roundtrip_" + std::to_string(static_cast<int>(layout)));
    ASSERT_TRUE(built->SaveMapped(path).ok());

    Result<ClusterStore> mapped = ClusterStore::OpenMapped(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_TRUE(mapped->mapped());
    EXPECT_GT(mapped->MappedBytes(), 0u);
    EXPECT_EQ(mapped->num_clusters(), built->num_clusters());
    EXPECT_EQ(mapped->TotalRows(), built->TotalRows());
    EXPECT_EQ(mapped->TotalMeasure(), built->TotalMeasure());
    EXPECT_TRUE(mapped->schema() == built->schema());
    for (size_t c = 0; c < built->num_clusters(); ++c) {
      EXPECT_EQ(mapped->ClusterRows(c), built->ClusterRows(c));
    }

    Rng rng(41);
    ScanScratch scratch;
    for (int trial = 0; trial < 10; ++trial) {
      const Value lo = rng.UniformInt(0, 80);
      const Value hi = rng.UniformInt(lo, 99);
      for (Aggregation agg :
           {Aggregation::kCount, Aggregation::kSum,
            Aggregation::kSumSquares}) {
        RangeQuery q = RangeQueryBuilder(agg).Where(0, lo, hi).Build();
        EXPECT_EQ(mapped->EvaluateExact(q), built->EvaluateExact(q));
        const size_t c = static_cast<size_t>(
            rng.UniformU64(built->num_clusters()));
        ScanResult resident = built->ScanCluster(c, q);
        ScanResult decoded = mapped->ScanCluster(c, q, ScanProfile::kAll,
                                                 &scratch);
        EXPECT_EQ(resident.count, decoded.count);
        EXPECT_EQ(resident.sum, decoded.sum);
        EXPECT_EQ(resident.sum_squares, decoded.sum_squares);
      }
    }

    // Materialized clusters match the resident originals row for row.
    size_t idx = 0;
    mapped->ForEachCluster([&](const Cluster& mc) {
      const Cluster& rc = built->cluster(idx++);
      ASSERT_EQ(mc.num_rows(), rc.num_rows());
      for (size_t i = 0; i < rc.num_rows(); ++i) {
        for (size_t d = 0; d < rc.num_dims(); ++d) {
          EXPECT_EQ(mc.at(i, d), rc.at(i, d));
        }
        EXPECT_EQ(mc.measure(i), rc.measure(i));
      }
      for (size_t d = 0; d < rc.num_dims(); ++d) {
        EXPECT_EQ(mc.MinValue(d), rc.MinValue(d));
        EXPECT_EQ(mc.MaxValue(d), rc.MaxValue(d));
      }
    });
    EXPECT_EQ(idx, built->num_clusters());
  }
}

TEST_F(MappedStoreTest, CompressionShrinksSmallDomains) {
  // Two dims with domains <= 200 and measures <= 1000 pack into 1-2 bytes
  // per value vs 8 raw — the file must be well under half the raw size.
  Table t = WideTable(4000, 37);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 256;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("compression");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  ASSERT_TRUE(in.good());
  const size_t file_size = static_cast<size_t>(in.tellg());
  const size_t raw_size = 4000 * 3 * sizeof(int64_t);
  EXPECT_LT(file_size, raw_size / 2);
}

TEST_F(MappedStoreTest, RejectsNamedCorruptions) {
  Table t = WideTable(500, 53);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("corrupt_src");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  const std::vector<uint8_t> bytes = ReadBytes(path);
  auto open_variant = [&](size_t offset, uint8_t value) {
    std::vector<uint8_t> variant = bytes;
    variant[offset] = value;
    WriteBytes(path, variant);
    return ClusterStore::OpenMapped(path).ok();
  };
  EXPECT_FALSE(open_variant(0, bytes[0] ^ 0x5A));  // bad magic
  EXPECT_FALSE(open_variant(4, 99));               // unsupported version
  // Header total_rows (offset 8+8+8) inconsistent with the directory.
  EXPECT_FALSE(open_variant(24, bytes[24] ^ 0x01));
  EXPECT_EQ(ClusterStore::OpenMapped(Path("missing")).status().code(),
            StatusCode::kNotFound);
}

// Every proper prefix of a store file fails to open; every seeded
// mutation anywhere in it (tests/fixture.h's Mutate) either fails to open
// with a Status or opens into a store that answers exact and
// covering-set scans and carries a provider's metadata build over its
// untrusted per-cluster bounds.
TEST_F(MappedStoreTest, EveryPrefixAndSeededMutationFailsCleanly) {
  Table t = WideTable(500, 47);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  const std::string path = Path("fuzz");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  const std::vector<uint8_t> bytes = ReadBytes(path);
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteBytes(path, {bytes.begin(), bytes.begin() + len});
    EXPECT_FALSE(ClusterStore::OpenMapped(path).ok()) << "prefix " << len;
  }
  Rng rng(59);
  size_t opened_files = 0;
  for (int i = 0; i < 3000; ++i) {
    std::vector<uint8_t> mutated = bytes;
    Mutate(&mutated, &rng);
    WriteBytes(path, mutated);
    Result<ClusterStore> opened = ClusterStore::OpenMapped(path);
    if (!opened.ok()) continue;
    ++opened_files;
    std::vector<uint32_t> all(opened->num_clusters());
    for (uint32_t c = 0; c < all.size(); ++c) all[c] = c;
    for (Aggregation agg : {Aggregation::kCount, Aggregation::kSum,
                            Aggregation::kSumSquares}) {
      const RangeQuery q = RangeQueryBuilder(agg).Where(0, 10, 90).Build();
      (void)opened->EvaluateExact(q);
      (void)opened->ScanClusters(q, all);
    }
    (void)DataProvider::CreateFromStore(std::move(opened).value(), {});
  }
  // Mutated values are still values: many files open and get scanned.
  EXPECT_GT(opened_files, 0u);
}

TEST_F(MappedStoreTest, BytesMappedAccountingRisesAndFalls) {
  Table t = WideTable(800, 61);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("accounting");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  const uint64_t before = MappedStoreFile::TotalMappedBytes();
  {
    Result<ClusterStore> mapped = ClusterStore::OpenMapped(path);
    ASSERT_TRUE(mapped.ok());
    EXPECT_EQ(MappedStoreFile::TotalMappedBytes(),
              before + mapped->MappedBytes());
  }
  EXPECT_EQ(MappedStoreFile::TotalMappedBytes(), before);
}

TEST_F(MappedStoreTest, BytesMappedGaugeMatchesTotalUnderConcurrentOpens) {
  const bool metrics_were_enabled = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  Table t = WideTable(800, 67);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 100;
  Result<ClusterStore> built = ClusterStore::Build(t, opts);
  ASSERT_TRUE(built.ok());
  std::string path = Path("gauge");
  ASSERT_TRUE(built->SaveMapped(path).ok());
  const uint64_t before = MappedStoreFile::TotalMappedBytes();

  // Every thread maps and unmaps the file over and over, so maps and
  // unmaps of different threads interleave.
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&path] {
      for (int r = 0; r < kRounds; ++r) {
        EXPECT_TRUE(ClusterStore::OpenMapped(path).ok());
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const double gauge = obs::MetricRegistry::Global()
                           .GetGauge("storage.bytes_mapped")
                           ->Value();
  EXPECT_EQ(gauge, static_cast<double>(MappedStoreFile::TotalMappedBytes()));
  EXPECT_EQ(MappedStoreFile::TotalMappedBytes(), before);
  obs::SetMetricsEnabled(metrics_were_enabled);
}

}  // namespace
}  // namespace fedaqp
