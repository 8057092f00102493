#ifndef FEDAQP_STORAGE_CLUSTER_STORE_H_
#define FEDAQP_STORAGE_CLUSTER_STORE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/cluster.h"
#include "storage/sharded_scan_executor.h"
#include "storage/table.h"

namespace fedaqp {

class MappedStoreFile;

/// How rows are laid out across clusters when a table is ingested.
enum class ClusterLayout {
  /// Rows kept in arrival order (the PostgreSQL-page analogue the paper's
  /// proof-of-concept uses). When ingesting a count tensor, cells arrive in
  /// lexicographic order, so clusters are value-correlated and skewed —
  /// exactly the "rows generally follow a skewed distribution" regime the
  /// paper targets.
  kSequential = 0,
  /// Rows sorted by the first dimension before splitting (clustered-index
  /// analogue; maximal inter-cluster skew).
  kSortedByFirstDim = 1,
  /// Rows shuffled before splitting (uniform distribution across clusters;
  /// the regime where distribution-aware sampling degenerates gracefully).
  kShuffled = 2,
};

/// Options controlling cluster construction.
struct ClusterStoreOptions {
  /// Maximum rows per cluster (the shared capacity S of the paper; every
  /// provider in a federation must agree on it for Avg(R) comparability).
  size_t cluster_capacity = 1024;
  ClusterLayout layout = ClusterLayout::kSequential;
  /// Seed used only by kShuffled.
  uint64_t shuffle_seed = 7;
  /// Worker shards a scan of this store splits into. Purely a runtime
  /// knob — it never changes how rows land in clusters, and results are
  /// bit-identical for every value. The store itself does not act on it:
  /// DataProvider (and the endpoints above it) build ShardedScanExecutors
  /// from it, attaching whatever pool the execution layer shares down.
  size_t num_scan_shards = 1;
};

/// Reusable decode buffers for scanning a mapped store. One per shard
/// (never shared across threads); scans of a resident store ignore it.
/// Holding one across calls amortizes the per-cluster column allocations
/// down to zero once the high-water cluster size has been seen.
struct ScanScratch {
  /// Per-dimension decode buffers (only query-constrained dims decode).
  std::vector<std::vector<int64_t>> dims;
  /// Measure-column decode buffer.
  std::vector<int64_t> measures;
};

/// Publishes one logical scan (storage.rows_scanned / storage.scan_seconds)
/// to the metric registry. EvaluateExact and ScanClusters call it
/// themselves; callers that drive ScanCluster directly (the sampled
/// approximate path, once per round) record their own aggregate here so
/// `stats storage` sees every scanned row, whichever path ran.
void RecordStoreScan(size_t rows, double seconds);

/// A provider's local storage: the table split into fixed-capacity clusters
/// plus whole-store scan helpers. This is the substrate both the exact
/// (plain-text) executor and the sampling-based approximation run on.
///
/// Two backends share this interface:
///  - resident: clusters live on the heap as column vectors (Build);
///  - mapped: clusters live in a read-only mmap of a compressed store
///    file (OpenMapped) and decode lazily, one cluster per scan, into
///    ScanScratch buffers.
/// Both feed the exact same scan kernels, so answers are bit-identical
/// across backends. Scans and totals work on either; `cluster()` /
/// `clusters()` (zero-copy references) are resident-only — streaming
/// consumers use ForEachCluster, which materializes mapped clusters one
/// at a time.
class ClusterStore {
 public:
  /// Builds a store from `table`. Fails on zero capacity or empty schema.
  static Result<ClusterStore> Build(const Table& table,
                                    const ClusterStoreOptions& options);

  /// Opens a compressed store file written by SaveMapped without loading
  /// it: the file is mmap'd read-only and clusters decode lazily per scan.
  /// Rejects missing, truncated, or corrupted files.
  static Result<ClusterStore> OpenMapped(const std::string& path,
                                         size_t num_scan_shards = 1);

  /// Writes this store to `path` in the compressed mapped format
  /// (per-cluster frame-of-reference/delta columns; see storage/store_file.h).
  Status SaveMapped(const std::string& path) const;

  /// True when backed by a mapped file instead of resident clusters.
  bool mapped() const { return mapped_file_ != nullptr; }
  /// Bytes of file mapped by this store (0 for resident stores).
  size_t MappedBytes() const;

  const Schema& schema() const { return schema_; }
  const ClusterStoreOptions& options() const { return options_; }
  size_t num_clusters() const;
  /// Rows in cluster `i` (works on both backends, no decode).
  size_t ClusterRows(size_t i) const;

  /// Zero-copy cluster access — resident stores only (mapped stores have
  /// no resident Cluster to reference; use ScanCluster/ForEachCluster).
  const Cluster& cluster(size_t i) const {
    assert(!mapped());
    return clusters_[i];
  }
  const std::vector<Cluster>& clusters() const {
    assert(!mapped());
    return clusters_;
  }

  /// Scans one cluster. Resident: zero-copy over the column vectors.
  /// Mapped: decodes the query-constrained dimension columns (and the
  /// measure column when `profile` needs it) into `scratch` and runs the
  /// same kernel. Pass a per-shard ScanScratch to amortize decode
  /// allocations; nullptr uses a transient one.
  ScanResult ScanCluster(size_t i, const RangeQuery& query,
                         ScanProfile profile = ScanProfile::kAll,
                         ScanScratch* scratch = nullptr) const;

  /// Streams every cluster in id order through `fn`. Resident clusters
  /// are passed by reference; mapped clusters are materialized one at a
  /// time (peak memory = one cluster, not the store).
  void ForEachCluster(const std::function<void(const Cluster&)>& fn) const;

  /// Total rows across clusters (cached at build/open time).
  size_t TotalRows() const { return total_rows_; }
  /// Total measure across clusters (cached at build/open time).
  int64_t TotalMeasure() const { return total_measure_; }

  /// Exact evaluation: scans every cluster (the "normal computation" the
  /// paper's Speed-UP metric divides by), computing only the aggregate the
  /// query asks for. With `exec`, the cluster range is fanned out over its
  /// shards and per-shard partial aggregates are summed in shard order —
  /// bit-identical to the sequential scan for any shard count. `stats`
  /// (optional) receives summed work counters and the max-over-shards
  /// wall time.
  int64_t EvaluateExact(const RangeQuery& query,
                        const ShardedScanExecutor* exec = nullptr,
                        ShardScanStats* stats = nullptr) const;

  /// Scans only the clusters listed in `ids`, sharded like EvaluateExact.
  /// `profile` selects which aggregates are computed (default: all three;
  /// aggregates outside the profile come back as 0). Fails with
  /// InvalidArgument on an out-of-range id (UB in the scan loop) or a
  /// duplicate id (silent double-counting) — callers hold the covering
  /// set, which is unique by construction, so a bad list is a protocol
  /// error worth surfacing, not skipping.
  Result<ScanResult> ScanClusters(const RangeQuery& query,
                                  const std::vector<uint32_t>& ids,
                                  const ShardedScanExecutor* exec = nullptr,
                                  ShardScanStats* stats = nullptr,
                                  ScanProfile profile = ScanProfile::kAll) const;

 private:
  ClusterStore(Schema schema, ClusterStoreOptions options)
      : schema_(std::move(schema)), options_(options) {}

  Schema schema_;
  ClusterStoreOptions options_;
  std::vector<Cluster> clusters_;
  std::shared_ptr<const MappedStoreFile> mapped_file_;
  size_t total_rows_ = 0;
  int64_t total_measure_ = 0;
};

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_CLUSTER_STORE_H_
