// Unit tests for src/metadata: Algorithm 1 tail tables, covering-set
// identification (Eq. 2) and proportion approximation (Eq. 1).

#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "metadata/metadata_store.h"
#include "storage/cluster_store.h"
#include "storage/table.h"

namespace fedaqp {
namespace {

Schema TwoDimSchema() {
  Schema s;
  EXPECT_TRUE(s.AddDimension("x", 50).ok());
  EXPECT_TRUE(s.AddDimension("y", 30).ok());
  return s;
}

Table RandomTable(size_t rows, uint64_t seed) {
  Rng rng(seed);
  Table t(TwoDimSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        t.AppendValues({rng.UniformInt(0, 49), rng.UniformInt(0, 29)}).ok());
  }
  return t;
}

ClusterStore BuildStore(const Table& t, size_t capacity) {
  ClusterStoreOptions opts;
  opts.cluster_capacity = capacity;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  EXPECT_TRUE(store.ok());
  return std::move(store).value();
}

// ---------------------------------------------------------- DimensionMeta --

TEST(DimensionMetaTest, TailFractionsMatchBruteForce) {
  Table t = RandomTable(200, 3);
  ClusterStore store = BuildStore(t, 64);
  const Cluster& c = store.cluster(0);
  DimensionMeta meta = DimensionMeta::Build(c, 0, 64);
  for (Value v = -5; v <= 55; ++v) {
    EXPECT_DOUBLE_EQ(meta.FractionGreaterEqual(v),
                     c.FractionGreaterEqual(0, v, 64))
        << "at v=" << v;
  }
}

/// One-dimension cluster holding `values` in order.
Cluster ClusterOf(const std::vector<Value>& values) {
  Cluster c(0, 1);
  for (Value v : values) c.Append(Row{{v}, 1});
  return c;
}

/// The table holds exactly the cluster's distinct values, and every
/// present value and its two neighbours read the brute-force tail count.
void ExpectTailTableMatchesBruteForce(const Cluster& c, size_t capacity) {
  DimensionMeta meta = DimensionMeta::Build(c, 0, capacity);
  std::set<Value> distinct;
  for (size_t i = 0; i < c.num_rows(); ++i) distinct.insert(c.at(i, 0));
  ASSERT_EQ(meta.entries().size(), distinct.size());
  size_t k = 0;
  for (Value v : distinct) {
    EXPECT_EQ(meta.entries()[k++].value, v);
    for (Value probe : {v - 1, v, v + 1}) {
      EXPECT_EQ(meta.FractionGreaterEqual(probe),
                c.FractionGreaterEqual(0, probe, capacity))
          << "at v=" << probe;
    }
  }
  for (Value probe : {Value{-1}, Value{0}, Value{1}}) {
    EXPECT_EQ(meta.FractionGreaterEqual(probe),
              c.FractionGreaterEqual(0, probe, capacity));
  }
}

// Build counts values in a dense array over the cluster's [min, max]
// window unless that window is much wider than the row count, where it
// keeps an ordered map. Both paths must agree with brute force.
TEST(DimensionMetaTest, CountedAndMapPathsMatchBruteForce) {
  Rng rng(17);
  std::vector<Value> narrow(500);
  for (Value& v : narrow) v = rng.UniformInt(100, 139);
  std::vector<Value> wide(300);
  for (Value& v : wide) v = rng.UniformInt(0, 999999999);

  ExpectTailTableMatchesBruteForce(ClusterOf(narrow), 512);  // counted
  ExpectTailTableMatchesBruteForce(ClusterOf(wide), 512);    // map
  ExpectTailTableMatchesBruteForce(ClusterOf(std::vector<Value>(64, 42)), 64);
  Cluster empty(0, 1);
  ExpectTailTableMatchesBruteForce(empty, 64);
  EXPECT_TRUE(DimensionMeta::Build(empty, 0, 64).entries().empty());
}

// A mapped store's recorded bounds come from an untrusted file: values
// outside them must not be counted out of the window.
TEST(DimensionMetaTest, ValuesOutsideRecordedBoundsStillMatchBruteForce) {
  Cluster c = Cluster::FromColumns(0, {{5, 9, 100, 7, 3}}, {1, 1, 1, 1, 1},
                                   /*mins=*/{5}, /*maxs=*/{9});
  ExpectTailTableMatchesBruteForce(c, 8);
}

TEST(DimensionMetaTest, SpreadingValuesKeepsFractionsBitIdentical) {
  Rng rng(23);
  std::vector<Value> values(700);
  for (Value& v : values) v = rng.UniformInt(0, 63);
  std::vector<Value> spread = values;
  for (Value& v : spread) v *= 1000000;
  // The same counts over a window 10^6 times wider: the counted path
  // before, the map path after.
  DimensionMeta counted = DimensionMeta::Build(ClusterOf(values), 0, 1024);
  DimensionMeta mapped = DimensionMeta::Build(ClusterOf(spread), 0, 1024);
  ASSERT_EQ(counted.entries().size(), mapped.entries().size());
  for (size_t i = 0; i < counted.entries().size(); ++i) {
    EXPECT_EQ(mapped.entries()[i].value,
              counted.entries()[i].value * 1000000);
    uint64_t a, b;
    std::memcpy(&a, &counted.entries()[i].fraction_ge, sizeof(a));
    std::memcpy(&b, &mapped.entries()[i].fraction_ge, sizeof(b));
    EXPECT_EQ(a, b) << "entry " << i;
  }
}

TEST(DimensionMetaTest, FractionInRangeIsClosedInterval) {
  Cluster c(0, 1);
  for (Value v : {10, 10, 20, 30}) {
    Row r{{v}, 1};
    c.Append(r);
  }
  DimensionMeta meta = DimensionMeta::Build(c, 0, 4);
  // [10,10] must include both rows equal to 10.
  EXPECT_DOUBLE_EQ(meta.FractionInRange(10, 10), 0.5);
  EXPECT_DOUBLE_EQ(meta.FractionInRange(10, 30), 1.0);
  EXPECT_DOUBLE_EQ(meta.FractionInRange(11, 19), 0.0);
  EXPECT_DOUBLE_EQ(meta.FractionInRange(20, 30), 0.5);
  EXPECT_DOUBLE_EQ(meta.FractionInRange(30, 10), 0.0);  // inverted
}

TEST(DimensionMetaTest, SerializationRoundTrip) {
  Table t = RandomTable(100, 5);
  ClusterStore store = BuildStore(t, 64);
  DimensionMeta meta = DimensionMeta::Build(store.cluster(0), 1, 64);
  ByteWriter w;
  meta.Serialize(&w);
  ByteReader r(w.bytes());
  Result<DimensionMeta> back = DimensionMeta::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->entries().size(), meta.entries().size());
  for (size_t i = 0; i < meta.entries().size(); ++i) {
    EXPECT_EQ(back->entries()[i].value, meta.entries()[i].value);
    EXPECT_DOUBLE_EQ(back->entries()[i].fraction_ge,
                     meta.entries()[i].fraction_ge);
  }
}

// --------------------------------------------------------- ClusterMetadata --

TEST(ClusterMetadataTest, CoversMatchesBoundingBox) {
  Table t(TwoDimSchema());
  for (Value x = 10; x <= 20; ++x) {
    ASSERT_TRUE(t.AppendValues({x, 15}).ok());
  }
  ClusterStore store = BuildStore(t, 100);
  ClusterMetadata meta = ClusterMetadata::Build(store.cluster(0), 100);

  auto covers = [&](Value lo, Value hi) {
    return meta.Covers(
        RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build());
  };
  EXPECT_TRUE(covers(10, 20));
  EXPECT_TRUE(covers(0, 10));    // touches min
  EXPECT_TRUE(covers(20, 49));   // touches max
  EXPECT_TRUE(covers(15, 15));   // inside
  EXPECT_FALSE(covers(0, 9));    // below
  EXPECT_FALSE(covers(21, 49));  // above
}

TEST(ClusterMetadataTest, CoversChecksEveryDimension) {
  Table t(TwoDimSchema());
  ASSERT_TRUE(t.AppendValues({10, 10}).ok());
  ClusterStore store = BuildStore(t, 10);
  ClusterMetadata meta = ClusterMetadata::Build(store.cluster(0), 10);
  RangeQuery good = RangeQueryBuilder(Aggregation::kCount)
                        .Where(0, 5, 15)
                        .Where(1, 5, 15)
                        .Build();
  RangeQuery bad = RangeQueryBuilder(Aggregation::kCount)
                       .Where(0, 5, 15)
                       .Where(1, 20, 29)
                       .Build();
  EXPECT_TRUE(meta.Covers(good));
  EXPECT_FALSE(meta.Covers(bad));
}

TEST(ClusterMetadataTest, ApproximateRExactForSingleDimension) {
  // With one constrained dimension the product has a single factor, so the
  // approximation equals the true fraction over S.
  Table t = RandomTable(300, 7);
  ClusterStore store = BuildStore(t, 128);
  const Cluster& c = store.cluster(0);
  ClusterMetadata meta = ClusterMetadata::Build(c, 128);
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Value lo = rng.UniformInt(0, 40);
    Value hi = rng.UniformInt(lo, 49);
    RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, lo, hi).Build();
    ScanResult scan = c.Scan(q);
    EXPECT_NEAR(meta.ApproximateR(q),
                static_cast<double>(scan.count) / 128.0, 1e-12);
  }
}

TEST(ClusterMetadataTest, ApproximateRProductUnderIndependence) {
  // Construct a cluster where the two dimensions are exactly independent:
  // the cross product of {0..9} x {0..9}; the paper's product formula is
  // exact there.
  Table t(TwoDimSchema());
  for (Value x = 0; x < 10; ++x) {
    for (Value y = 0; y < 10; ++y) {
      ASSERT_TRUE(t.AppendValues({x, y}).ok());
    }
  }
  ClusterStore store = BuildStore(t, 100);
  ClusterMetadata meta = ClusterMetadata::Build(store.cluster(0), 100);
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount)
                     .Where(0, 0, 4)
                     .Where(1, 0, 1)
                     .Build();
  // True fraction: (5*2)/100 = 0.1; product: (50/100)*(20/100) = 0.1.
  EXPECT_NEAR(meta.ApproximateR(q), 0.1, 1e-12);
  ScanResult scan = store.cluster(0).Scan(q);
  EXPECT_EQ(scan.count, 10);
}

TEST(ClusterMetadataTest, SerializationRoundTrip) {
  Table t = RandomTable(150, 11);
  ClusterStore store = BuildStore(t, 64);
  ClusterMetadata meta = ClusterMetadata::Build(store.cluster(1), 64);
  ByteWriter w;
  meta.Serialize(&w);
  ByteReader r(w.bytes());
  Result<ClusterMetadata> back = ClusterMetadata::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->cluster_id(), meta.cluster_id());
  EXPECT_EQ(back->num_dims(), meta.num_dims());
  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 5, 30).Build();
  EXPECT_DOUBLE_EQ(back->ApproximateR(q), meta.ApproximateR(q));
  EXPECT_EQ(back->min_value(0), meta.min_value(0));
  EXPECT_EQ(back->max_value(1), meta.max_value(1));
}

// ----------------------------------------------------------- MetadataStore --

TEST(MetadataStoreTest, CoverFindsExactlyIntersectingClusters) {
  Table t = RandomTable(1000, 13);
  ClusterStoreOptions opts;
  opts.cluster_capacity = 50;
  opts.layout = ClusterLayout::kSortedByFirstDim;
  Result<ClusterStore> store = ClusterStore::Build(t, opts);
  ASSERT_TRUE(store.ok());
  MetadataStore metas = MetadataStore::Build(*store);

  RangeQuery q = RangeQueryBuilder(Aggregation::kCount).Where(0, 10, 15).Build();
  CoverInfo cover = metas.Cover(q);

  // Verify against brute force on the actual clusters.
  std::vector<uint32_t> expected;
  for (const auto& c : store->clusters()) {
    if (c.MinValue(0) <= 15 && c.MaxValue(0) >= 10) expected.push_back(c.id());
  }
  EXPECT_EQ(cover.cluster_ids, expected);
  EXPECT_EQ(cover.NumClusters(), expected.size());

  // A cover never misses a cluster containing matching rows.
  for (const auto& c : store->clusters()) {
    ScanResult scan = c.Scan(q);
    if (scan.count > 0) {
      bool in_cover = false;
      for (uint32_t id : cover.cluster_ids) in_cover |= (id == c.id());
      EXPECT_TRUE(in_cover) << "cluster " << c.id() << " missed";
    }
  }
}

TEST(MetadataStoreTest, AverageAndSumProportions) {
  CoverInfo info;
  info.cluster_ids = {0, 1, 2};
  info.proportions = {0.2, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(info.SumR(), 1.2);
  EXPECT_DOUBLE_EQ(info.AverageR(), 0.4);
  CoverInfo empty;
  EXPECT_DOUBLE_EQ(empty.AverageR(), 0.0);
}

TEST(MetadataStoreTest, SerializationRoundTrip) {
  Table t = RandomTable(400, 17);
  ClusterStore store = BuildStore(t, 64);
  MetadataStore metas = MetadataStore::Build(store);
  ByteWriter w;
  metas.Serialize(&w);
  ByteReader r(w.bytes());
  Result<MetadataStore> back = MetadataStore::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->num_clusters(), metas.num_clusters());
  EXPECT_EQ(back->capacity(), metas.capacity());
  RangeQuery q = RangeQueryBuilder(Aggregation::kSum).Where(1, 3, 20).Build();
  CoverInfo a = metas.Cover(q);
  CoverInfo b = back->Cover(q);
  EXPECT_EQ(a.cluster_ids, b.cluster_ids);
  ASSERT_EQ(a.proportions.size(), b.proportions.size());
  for (size_t i = 0; i < a.proportions.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.proportions[i], b.proportions[i]);
  }
}

TEST(MetadataStoreTest, FootprintIsSmallRelativeToData) {
  Table t = RandomTable(5000, 19);
  ClusterStore store = BuildStore(t, 256);
  MetadataStore metas = MetadataStore::Build(store);
  size_t data_bytes = 0;
  for (const auto& c : store.clusters()) data_bytes += c.ApproxBytes();
  // The paper reports tens of KB of metadata per cluster vs MBs of data.
  EXPECT_LT(metas.TotalSizeBytes(), data_bytes);
  EXPECT_GT(metas.TotalSizeBytes(), 0u);
}

TEST(MetadataStoreTest, EmptyQueryCoversEverything) {
  Table t = RandomTable(300, 23);
  ClusterStore store = BuildStore(t, 64);
  MetadataStore metas = MetadataStore::Build(store);
  RangeQuery q(Aggregation::kCount, {});
  CoverInfo cover = metas.Cover(q);
  EXPECT_EQ(cover.NumClusters(), store.num_clusters());
  for (double r : cover.proportions) EXPECT_DOUBLE_EQ(r, 1.0);
}

}  // namespace
}  // namespace fedaqp
