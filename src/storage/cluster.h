#ifndef FEDAQP_STORAGE_CLUSTER_H_
#define FEDAQP_STORAGE_CLUSTER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "storage/range_query.h"
#include "storage/row.h"
#include "storage/scan_kernel.h"
#include "storage/schema.h"

namespace fedaqp {

/// A storage cluster: the paper's unit of sampling (a table page / HDFS
/// block analogue). Stores rows column-wise so that a scan is a tight loop
/// over contiguous memory — the real CPU cost that the paper's speed-up
/// numbers are a ratio of. Scans run through the vectorized kernels in
/// storage/scan_kernel.h (AVX2 with a bit-identical scalar fallback).
class Cluster {
 public:
  Cluster(uint32_t id, size_t num_dims);

  /// Assembles a cluster directly from column arrays (ClusterStore::Build's
  /// column gather and the mapped store's lazy materialization). `mins`/
  /// `maxs` are the per-dim observed bounds; sizes must be consistent
  /// (columns all measures.size() long, bounds num_dims long).
  static Cluster FromColumns(uint32_t id,
                             std::vector<std::vector<Value>> columns,
                             std::vector<int64_t> measures,
                             std::vector<Value> mins, std::vector<Value> maxs);

  uint32_t id() const { return id_; }
  size_t num_rows() const { return measures_.size(); }
  size_t num_dims() const { return columns_.size(); }

  /// Appends one row; caller guarantees schema conformity (Table
  /// validates on append).
  void Append(const Row& row);

  /// Value of dimension `dim` in row `row`.
  Value at(size_t row, size_t dim) const { return columns_[dim][row]; }
  /// Measure of row `row`.
  int64_t measure(size_t row) const { return measures_[row]; }
  /// Contiguous column array of dimension `dim` (kernel input).
  const Value* column_data(size_t dim) const { return columns_[dim].data(); }
  /// Contiguous measure array (kernel input).
  const int64_t* measure_data() const { return measures_.data(); }

  /// Full scan evaluating `query` over every row. `profile` selects which
  /// aggregates are produced (default: all three); aggregates outside the
  /// profile come back as 0, the ones inside are identical to a kAll scan.
  ScanResult Scan(const RangeQuery& query,
                  ScanProfile profile = ScanProfile::kAll) const;

  /// Observed min value of dimension `dim` (0 if the cluster is empty).
  Value MinValue(size_t dim) const { return mins_[dim]; }
  /// Observed max value of dimension `dim` (-1 if the cluster is empty).
  Value MaxValue(size_t dim) const { return maxs_[dim]; }

  /// Exact fraction of rows with value >= v on `dim`, denominated by
  /// `denominator` (the agreed cluster capacity S in the paper's R_{d>=}).
  double FractionGreaterEqual(size_t dim, Value v, size_t denominator) const;

  /// Bytes a provider would ship to share this cluster's raw rows
  /// (dims+measure at 8 bytes per value) — used to charge SMC row sharing.
  size_t ApproxBytes() const {
    return num_rows() * (num_dims() + 1) * sizeof(int64_t);
  }

 private:
  uint32_t id_;
  std::vector<std::vector<Value>> columns_;
  std::vector<int64_t> measures_;
  std::vector<Value> mins_;
  std::vector<Value> maxs_;
};

/// Runs the scan kernel for `query` over raw column arrays: `columns[d]`
/// must hold the column of dimension `d` referenced by the query's ranges
/// (unreferenced slots may be null). Shared by the resident Cluster scan
/// and the mapped store's decoded-block scan so both feed the exact same
/// kernels.
ScanResult ScanColumnsForQuery(const RangeQuery& query,
                               const Value* const* columns,
                               const int64_t* measures, size_t num_rows,
                               ScanProfile profile);

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_CLUSTER_H_
