#include "storage/cluster_store.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/store_file.h"

namespace fedaqp {

/// Store-level scan telemetry (S4): resolved once, incremented lock-free.
void RecordStoreScan(size_t rows, double seconds) {
  static obs::Counter* rows_scanned =
      obs::MetricRegistry::Global().GetCounter("storage.rows_scanned");
  static obs::Histogram* scan_seconds =
      obs::MetricRegistry::Global().GetHistogram("storage.scan_seconds");
  rows_scanned->Add(rows);
  scan_seconds->Record(seconds);
}

Result<ClusterStore> ClusterStore::Build(const Table& table,
                                         const ClusterStoreOptions& options) {
  if (options.cluster_capacity == 0) {
    return Status::InvalidArgument("cluster capacity must be positive");
  }
  if (table.schema().num_dims() == 0) {
    return Status::InvalidArgument("cannot build clusters over an empty schema");
  }

  std::vector<size_t> order(table.num_rows());
  std::iota(order.begin(), order.end(), 0);
  switch (options.layout) {
    case ClusterLayout::kSequential:
      break;
    case ClusterLayout::kSortedByFirstDim:
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return table.row(a).values[0] < table.row(b).values[0];
      });
      break;
    case ClusterLayout::kShuffled: {
      Rng rng(options.shuffle_seed);
      rng.Shuffle(&order);
      break;
    }
  }

  ClusterStore store(table.schema(), options);
  const size_t dims = table.schema().num_dims();
  const size_t rows = order.size();
  if (rows == 0) return store;
  // Balanced chunking: ceil(rows/S) clusters whose sizes differ by at most
  // one row. A naive "fill to S" split instead leaves a runt final cluster
  // whose proportions (denominated by the shared S) are quadratically
  // underestimated by the Eq. 1 product — a single sampled runt then
  // blows up the Hansen-Hurwitz term y/p.
  const size_t num_clusters =
      (rows + options.cluster_capacity - 1) / options.cluster_capacity;
  const size_t base = rows / num_clusters;
  const size_t extra = rows % num_clusters;  // first `extra` get base+1
  // Cluster c holds the rows order[starts[c]] .. order[starts[c + 1] - 1].
  std::vector<size_t> starts(num_clusters + 1, 0);
  for (size_t c = 0; c < num_clusters; ++c) {
    starts[c + 1] = starts[c] + base + (c < extra ? 1 : 0);
  }

  // One pass per column (each dimension, then the measure): copy it out of
  // the rows in table order into `column`, then gather every cluster's
  // slice through `order`. Only one table-sized column is live at a time.
  std::vector<std::vector<std::vector<Value>>> columns(
      num_clusters, std::vector<std::vector<Value>>(dims));
  std::vector<std::vector<int64_t>> measures(num_clusters);
  std::vector<std::vector<Value>> mins(num_clusters, std::vector<Value>(dims));
  std::vector<std::vector<Value>> maxs(num_clusters, std::vector<Value>(dims));
  std::vector<int64_t> column(rows);
  for (size_t d = 0; d <= dims; ++d) {
    for (size_t r = 0; r < rows; ++r) {
      const Row& row = table.row(r);
      column[r] = d < dims ? row.values[d] : row.measure;
    }
    for (size_t c = 0; c < num_clusters; ++c) {
      std::vector<int64_t>& out = d < dims ? columns[c][d] : measures[c];
      out.resize(starts[c + 1] - starts[c]);
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = column[order[starts[c] + i]];
      }
      if (d < dims) {
        const auto bounds = std::minmax_element(out.begin(), out.end());
        mins[c][d] = *bounds.first;
        maxs[c][d] = *bounds.second;
      }
    }
  }
  // `column` now holds the measures.
  store.total_measure_ = std::accumulate(column.begin(), column.end(),
                                         int64_t{0});
  store.total_rows_ = rows;
  store.clusters_.reserve(num_clusters);
  for (size_t c = 0; c < num_clusters; ++c) {
    store.clusters_.push_back(Cluster::FromColumns(
        static_cast<uint32_t>(c), std::move(columns[c]),
        std::move(measures[c]), std::move(mins[c]), std::move(maxs[c])));
  }
  return store;
}

Result<ClusterStore> ClusterStore::OpenMapped(const std::string& path,
                                              size_t num_scan_shards) {
  FEDAQP_ASSIGN_OR_RETURN(std::shared_ptr<const MappedStoreFile> file,
                          MappedStoreFile::Open(path));
  ClusterStoreOptions options;
  options.cluster_capacity = file->cluster_capacity();
  options.layout = ClusterLayout::kSequential;
  options.num_scan_shards = num_scan_shards;
  ClusterStore store(file->schema(), options);
  store.total_rows_ = static_cast<size_t>(file->total_rows());
  store.total_measure_ = file->total_measure();
  store.mapped_file_ = std::move(file);
  return store;
}

Status ClusterStore::SaveMapped(const std::string& path) const {
  return MappedStoreFile::Save(*this, path);
}

size_t ClusterStore::MappedBytes() const {
  return mapped_file_ != nullptr ? mapped_file_->mapped_bytes() : 0;
}

size_t ClusterStore::num_clusters() const {
  return mapped_file_ != nullptr ? mapped_file_->num_clusters()
                                 : clusters_.size();
}

size_t ClusterStore::ClusterRows(size_t i) const {
  return mapped_file_ != nullptr ? mapped_file_->cluster_rows(i)
                                 : clusters_[i].num_rows();
}

ScanResult ClusterStore::ScanCluster(size_t i, const RangeQuery& query,
                                     ScanProfile profile,
                                     ScanScratch* scratch) const {
  if (mapped_file_ == nullptr) {
    return clusters_[i].Scan(query, profile);
  }
  const MappedStoreFile& file = *mapped_file_;
  ScanScratch local;
  if (scratch == nullptr) scratch = &local;
  const size_t dims = file.num_dims();
  if (scratch->dims.size() < dims) scratch->dims.resize(dims);

  constexpr size_t kStackCols = 16;
  const Value* stack_cols[kStackCols] = {nullptr};
  std::vector<const Value*> heap_cols;
  const Value** cols = stack_cols;
  if (dims > kStackCols) {
    heap_cols.assign(dims, nullptr);
    cols = heap_cols.data();
  }
  // Lazy decode: only the query-constrained columns ever leave the file.
  for (const DimRange& range : query.ranges()) {
    file.DecodeColumn(i, range.dim_index, &scratch->dims[range.dim_index]);
    cols[range.dim_index] = scratch->dims[range.dim_index].data();
  }
  const int64_t* measures = nullptr;
  if (ProfileNeedsMeasures(profile)) {
    file.DecodeColumn(i, dims, &scratch->measures);
    measures = scratch->measures.data();
  }
  return ScanColumnsForQuery(query, cols, measures, file.cluster_rows(i),
                             profile);
}

void ClusterStore::ForEachCluster(
    const std::function<void(const Cluster&)>& fn) const {
  if (mapped_file_ == nullptr) {
    for (const Cluster& c : clusters_) fn(c);
    return;
  }
  for (size_t c = 0; c < mapped_file_->num_clusters(); ++c) {
    Cluster materialized = mapped_file_->MaterializeCluster(c);
    fn(materialized);
  }
}

int64_t ClusterStore::EvaluateExact(const RangeQuery& query,
                                    const ShardedScanExecutor* exec,
                                    ShardScanStats* stats) const {
  const ShardedScanExecutor& ex = ShardedScanExecutor::OrInline(exec);
  const size_t n = num_clusters();
  // Only the requested aggregate is computed — COUNT never touches the
  // measure column, SUM never pays the sum-squares multiplies (S1).
  const ScanProfile profile = ProfileFor(query.aggregation());
  const size_t num_shards = ex.NumShardsFor(n);
  // One integer partial per shard; integer addition commutes, but the
  // merge still walks shard order so the code path stays identical to the
  // floating-point merges elsewhere.
  std::vector<int64_t> partials(num_shards, 0);
  std::vector<ScanScratch> scratches(num_shards);
  std::vector<double> seconds =
      ex.ForEachShard(n, [&](size_t shard, ShardRange range) {
        int64_t acc = 0;
        for (size_t c = range.begin; c < range.end; ++c) {
          acc += ScanCluster(c, query, profile, &scratches[shard])
                     .For(query.aggregation());
        }
        partials[shard] = acc;
      });
  int64_t total = 0;
  for (int64_t p : partials) total += p;
  const double max_seconds = ShardedScanExecutor::MaxSeconds(seconds);
  RecordStoreScan(TotalRows(), max_seconds);
  if (stats != nullptr) {
    stats->clusters_scanned += n;
    stats->rows_scanned += TotalRows();
    stats->max_shard_seconds += max_seconds;
  }
  return total;
}

Result<ScanResult> ClusterStore::ScanClusters(const RangeQuery& query,
                                              const std::vector<uint32_t>& ids,
                                              const ShardedScanExecutor* exec,
                                              ShardScanStats* stats,
                                              ScanProfile profile) const {
  const size_t n = num_clusters();
  size_t rows = 0;
  for (uint32_t id : ids) {
    if (id >= n) {
      return Status::InvalidArgument("scan clusters: cluster id " +
                                     std::to_string(id) + " out of range");
    }
    rows += ClusterRows(id);
  }
  // Duplicate check in O(|ids| log |ids|) on a scratch copy — the id list
  // (a covering set) is usually far smaller than the store.
  std::vector<uint32_t> sorted_ids(ids);
  std::sort(sorted_ids.begin(), sorted_ids.end());
  auto dup = std::adjacent_find(sorted_ids.begin(), sorted_ids.end());
  if (dup != sorted_ids.end()) {
    return Status::InvalidArgument("scan clusters: duplicate cluster id " +
                                   std::to_string(*dup) +
                                   " would double-count");
  }

  const ShardedScanExecutor& ex = ShardedScanExecutor::OrInline(exec);
  const size_t num_shards = ex.NumShardsFor(ids.size());
  std::vector<ScanResult> partials(num_shards);
  std::vector<ScanScratch> scratches(num_shards);
  std::vector<double> seconds =
      ex.ForEachShard(ids.size(), [&](size_t shard, ShardRange range) {
        ScanResult acc;
        for (size_t i = range.begin; i < range.end; ++i) {
          ScanResult r =
              ScanCluster(ids[i], query, profile, &scratches[shard]);
          acc.count += r.count;
          acc.sum += r.sum;
          acc.sum_squares += r.sum_squares;
        }
        partials[shard] = acc;
      });
  ScanResult out;
  for (const ScanResult& p : partials) {
    out.count += p.count;
    out.sum += p.sum;
    out.sum_squares += p.sum_squares;
  }
  const double max_seconds = ShardedScanExecutor::MaxSeconds(seconds);
  RecordStoreScan(rows, max_seconds);
  if (stats != nullptr) {
    stats->clusters_scanned += ids.size();
    stats->rows_scanned += rows;
    stats->max_shard_seconds += max_seconds;
  }
  return out;
}

}  // namespace fedaqp
