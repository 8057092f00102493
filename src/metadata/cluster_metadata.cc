#include "metadata/cluster_metadata.h"

#include <algorithm>
#include <map>

namespace fedaqp {

namespace {

/// A cluster whose [min, max] window spans fewer than this many values per
/// row counts into a dense array; wider windows (sparse values on a wide
/// domain) keep the ordered map, whose cost follows the row count alone.
constexpr uint64_t kDenseValuesPerRow = 8;

/// Counts the `rows` values of `col` into one slot per value of the window
/// [lo, lo + span]. False as soon as a value falls outside the window.
bool CountWindow(const Value* col, size_t rows, Value lo, uint64_t span,
                 std::vector<size_t>* counts) {
  counts->assign(span + 1, 0);
  for (size_t i = 0; i < rows; ++i) {
    const uint64_t k =
        static_cast<uint64_t>(col[i]) - static_cast<uint64_t>(lo);
    if (k > span) return false;
    ++(*counts)[k];
  }
  return true;
}

}  // namespace

DimensionMeta DimensionMeta::Build(const Cluster& cluster, size_t dim,
                                   size_t capacity) {
  DimensionMeta meta;
  const size_t rows = cluster.num_rows();
  if (rows == 0) return meta;
  const Value* col = cluster.column_data(dim);
  // The window is the cluster's recorded [min, max]. A mapped store's
  // bounds come from an untrusted file, so CountWindow checks every value
  // against them, and any value outside sends the cluster to the map path.
  const Value lo = cluster.MinValue(dim);
  const uint64_t span = static_cast<uint64_t>(cluster.MaxValue(dim)) -
                        static_cast<uint64_t>(lo);
  if (std::vector<size_t> counts;
      span < kDenseValuesPerRow * rows &&
      CountWindow(col, rows, lo, span, &counts)) {
    // Suffix-sum the counts from the top so each entry holds
    // |rows >= v| / S: the same integer counts and divisions as the map
    // path below, so the bytes are identical.
    size_t slot = counts.size() - static_cast<size_t>(std::count(
                                      counts.begin(), counts.end(), 0));
    meta.entries_.resize(slot);
    size_t suffix = 0;
    for (size_t k = counts.size(); k-- > 0;) {
      if (counts[k] == 0) continue;
      suffix += counts[k];
      meta.entries_[--slot] =
          Entry{lo + static_cast<Value>(k),
                static_cast<double>(suffix) / static_cast<double>(capacity)};
    }
    return meta;
  }
  // Count occurrences per distinct value, then suffix-sum from the top so
  // each entry holds |rows >= v| / S.
  std::map<Value, size_t> counts;
  for (size_t i = 0; i < cluster.num_rows(); ++i) {
    counts[cluster.at(i, dim)] += 1;
  }
  meta.entries_.reserve(counts.size());
  size_t suffix = 0;
  for (auto it = counts.rbegin(); it != counts.rend(); ++it) {
    suffix += it->second;
    meta.entries_.push_back(
        Entry{it->first, static_cast<double>(suffix) /
                             static_cast<double>(capacity)});
  }
  std::reverse(meta.entries_.begin(), meta.entries_.end());
  return meta;
}

double DimensionMeta::FractionGreaterEqual(Value v) const {
  // First entry with value >= v carries the tail fraction for v, because
  // rows with values in (v, entry.value) do not exist in this cluster.
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const Entry& e, Value x) { return e.value < x; });
  if (it == entries_.end()) return 0.0;
  return it->fraction_ge;
}

double DimensionMeta::FractionInRange(Value lo, Value hi) const {
  if (lo > hi) return 0.0;
  double r = FractionGreaterEqual(lo) - FractionGreaterEqual(hi + 1);
  return r < 0.0 ? 0.0 : r;
}

void DimensionMeta::Serialize(ByteWriter* w) const {
  w->PutU32(static_cast<uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    w->PutI64(e.value);
    w->PutDouble(e.fraction_ge);
  }
}

Result<DimensionMeta> DimensionMeta::Deserialize(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  DimensionMeta meta;
  meta.entries_.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Entry e;
    FEDAQP_ASSIGN_OR_RETURN(e.value, r->GetI64());
    FEDAQP_ASSIGN_OR_RETURN(e.fraction_ge, r->GetDouble());
    meta.entries_.push_back(e);
  }
  return meta;
}

ClusterMetadata ClusterMetadata::Build(const Cluster& cluster,
                                       size_t capacity) {
  ClusterMetadata meta;
  meta.cluster_id_ = cluster.id();
  meta.capacity_ = capacity > 0 ? capacity : 1;
  meta.dims_.reserve(cluster.num_dims());
  meta.mins_.reserve(cluster.num_dims());
  meta.maxs_.reserve(cluster.num_dims());
  for (size_t d = 0; d < cluster.num_dims(); ++d) {
    meta.dims_.push_back(DimensionMeta::Build(cluster, d, capacity));
    meta.mins_.push_back(cluster.MinValue(d));
    meta.maxs_.push_back(cluster.MaxValue(d));
  }
  return meta;
}

bool ClusterMetadata::Covers(const RangeQuery& query) const {
  for (const auto& r : query.ranges()) {
    if (r.dim_index >= dims_.size()) return false;
    // Empty clusters have min=0 > max=-1 and never cover anything.
    if (maxs_[r.dim_index] < r.lo || mins_[r.dim_index] > r.hi) return false;
  }
  return true;
}

double ClusterMetadata::ApproximateR(const RangeQuery& query) const {
  double r = 1.0;
  for (const auto& range : query.ranges()) {
    r *= dims_[range.dim_index].FractionInRange(range.lo, range.hi);
    if (r == 0.0) break;
  }
  // Floor non-zero products at one row's worth of mass (see header).
  double floor = 1.0 / static_cast<double>(capacity_);
  if (r > 0.0 && r < floor) r = floor;
  return r;
}

void ClusterMetadata::Serialize(ByteWriter* w) const {
  w->PutU32(cluster_id_);
  w->PutU64(capacity_);
  w->PutU32(static_cast<uint32_t>(dims_.size()));
  for (size_t d = 0; d < dims_.size(); ++d) {
    w->PutI64(mins_[d]);
    w->PutI64(maxs_[d]);
    dims_[d].Serialize(w);
  }
}

Result<ClusterMetadata> ClusterMetadata::Deserialize(ByteReader* r) {
  ClusterMetadata meta;
  FEDAQP_ASSIGN_OR_RETURN(meta.cluster_id_, r->GetU32());
  FEDAQP_ASSIGN_OR_RETURN(uint64_t cap, r->GetU64());
  meta.capacity_ = cap > 0 ? static_cast<size_t>(cap) : 1;
  FEDAQP_ASSIGN_OR_RETURN(uint32_t nd, r->GetU32());
  meta.dims_.reserve(nd);
  for (uint32_t d = 0; d < nd; ++d) {
    Value mn, mx;
    FEDAQP_ASSIGN_OR_RETURN(mn, r->GetI64());
    FEDAQP_ASSIGN_OR_RETURN(mx, r->GetI64());
    meta.mins_.push_back(mn);
    meta.maxs_.push_back(mx);
    FEDAQP_ASSIGN_OR_RETURN(DimensionMeta dm, DimensionMeta::Deserialize(r));
    meta.dims_.push_back(std::move(dm));
  }
  return meta;
}

size_t ClusterMetadata::SizeBytes() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

}  // namespace fedaqp
