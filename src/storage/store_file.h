#ifndef FEDAQP_STORAGE_STORE_FILE_H_
#define FEDAQP_STORAGE_STORE_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/cluster.h"
#include "storage/schema.h"

namespace fedaqp {

class ClusterStore;

/// Per-cluster column encodings of the mapped store file. Both are
/// byte-aligned fixed-width packings chosen per column at save time —
/// whichever is smaller wins:
///   kFor:   frame-of-reference. `reference` = column min; each value is
///           stored as the unsigned delta (v - min) in `width` bytes.
///           width 0 encodes a constant column (every value == reference).
///   kDelta: consecutive-difference coding for value-correlated columns
///           (sorted layouts, tensor cells in lexicographic order).
///           `reference` = first value; entry i is zigzag(v[i] - v[i-1])
///           in `width` bytes (entry 0 is zigzag(0) so the packing stays
///           uniform).
enum class ColumnEncoding : uint8_t { kFor = 0, kDelta = 1 };

/// A read-only, mmap-backed cluster store file:
///
///   [u32 magic][u32 version]
///   [u64 cluster_capacity][u64 num_clusters][u64 total_rows]
///   [i64 total_measure][schema]
///   per cluster: [u32 id][u64 num_rows]
///     per column (num_dims dims then the measure column):
///       [u8 encoding][u8 width][i64 reference][i64 min][i64 max]
///       [u64 offset][u64 byte_len]
///   [u64 data_size][data bytes...]
///
/// Open() maps the file read-only and validates the header, version and
/// every directory entry (widths, encodings, lengths, bounds) before any
/// decode touches the data section — a truncated or corrupted file is
/// rejected with a Status, never a crash. Column data decodes lazily, one
/// cluster at a time, into caller-owned scratch buffers that feed the
/// same scan kernels the resident store uses; resident memory stays
/// O(scratch), not O(file).
class MappedStoreFile {
 public:
  /// Serializes `store` (resident clusters) into the format above.
  static Status Save(const ClusterStore& store, const std::string& path);

  /// Maps and validates `path`. The returned object owns the mapping.
  static Result<std::shared_ptr<const MappedStoreFile>> Open(
      const std::string& path);

  ~MappedStoreFile();
  MappedStoreFile(const MappedStoreFile&) = delete;
  MappedStoreFile& operator=(const MappedStoreFile&) = delete;

  const Schema& schema() const { return schema_; }
  size_t cluster_capacity() const { return static_cast<size_t>(capacity_); }
  size_t num_clusters() const { return rows_.size(); }
  size_t num_dims() const { return schema_.num_dims(); }
  uint64_t total_rows() const { return total_rows_; }
  int64_t total_measure() const { return total_measure_; }
  /// Bytes of file currently mapped (the provider's real resident charge
  /// is the page cache's business, not the heap's).
  size_t mapped_bytes() const { return map_size_; }

  size_t cluster_rows(size_t c) const {
    return static_cast<size_t>(rows_[c]);
  }
  /// Observed per-dimension bounds from the directory (no decode).
  Value min_value(size_t c, size_t dim) const {
    return col(c, dim).min_value;
  }
  Value max_value(size_t c, size_t dim) const {
    return col(c, dim).max_value;
  }

  /// Decodes column `column` of cluster `c` into `out` (resized to the
  /// cluster's row count). `column` in [0, num_dims) selects a dimension;
  /// `column` == num_dims selects the measure column.
  void DecodeColumn(size_t c, size_t column, std::vector<int64_t>* out) const;

  /// Fully decodes cluster `c` into a resident Cluster (metadata build,
  /// row flattening — the streaming consumers).
  Cluster MaterializeCluster(size_t c) const;

  /// Total mapped bytes across every open MappedStoreFile in the process
  /// (mirrors the `storage.bytes_mapped` gauge).
  static uint64_t TotalMappedBytes();

 private:
  struct ColInfo {
    uint8_t encoding = 0;
    uint8_t width = 0;
    int64_t reference = 0;
    int64_t min_value = 0;
    int64_t max_value = 0;
    uint64_t offset = 0;
    uint64_t byte_len = 0;
  };

  MappedStoreFile() = default;

  const ColInfo& col(size_t c, size_t column) const {
    return cols_[c * (schema_.num_dims() + 1) + column];
  }

  void* map_ = nullptr;
  size_t map_size_ = 0;
  const uint8_t* data_ = nullptr;
  uint64_t data_size_ = 0;

  Schema schema_;
  uint64_t capacity_ = 0;
  uint64_t total_rows_ = 0;
  int64_t total_measure_ = 0;
  std::vector<uint64_t> rows_;  // per-cluster row counts
  std::vector<ColInfo> cols_;   // flat: cluster-major, num_dims + 1 each
};

}  // namespace fedaqp

#endif  // FEDAQP_STORAGE_STORE_FILE_H_
