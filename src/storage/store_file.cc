#include "storage/store_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <mutex>

#include "common/bytes.h"
#include "obs/metrics.h"
#include "storage/cluster_store.h"

namespace fedaqp {

namespace {

constexpr uint32_t kMappedMagic = 0xFEDA0003;
constexpr uint32_t kMappedVersion = 1;
/// Upper bound on rows per cluster accepted from a file: a directory is
/// attacker-shaped until validated, and a width-0 (constant) column would
/// otherwise let a tiny file demand an arbitrarily large decode buffer.
constexpr uint64_t kMaxRowsPerCluster = uint64_t{1} << 28;

/// Process-wide mapped-byte accounting behind the storage.bytes_mapped
/// gauge (and MappedStoreFile::TotalMappedBytes). The total and the gauge
/// change under one lock, so concurrent maps and unmaps cannot leave the
/// gauge on an older total.
std::mutex g_mapped_mutex;
uint64_t g_mapped_bytes = 0;  // guarded by g_mapped_mutex

void AddMappedBytes(int64_t delta) {
  static obs::Gauge* gauge =
      obs::MetricRegistry::Global().GetGauge("storage.bytes_mapped");
  std::lock_guard<std::mutex> lock(g_mapped_mutex);
  g_mapped_bytes += static_cast<uint64_t>(delta);
  gauge->Set(static_cast<double>(g_mapped_bytes));
}

void SerializeSchema(const Schema& schema, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(schema.num_dims()));
  for (const auto& d : schema.dims()) {
    w->PutString(d.name);
    w->PutI64(d.domain_size);
  }
}

Result<Schema> DeserializeSchema(ByteReader* r) {
  FEDAQP_ASSIGN_OR_RETURN(uint32_t n, r->GetU32());
  Schema schema;
  for (uint32_t i = 0; i < n; ++i) {
    FEDAQP_ASSIGN_OR_RETURN(std::string name, r->GetString());
    FEDAQP_ASSIGN_OR_RETURN(int64_t domain, r->GetI64());
    FEDAQP_RETURN_IF_ERROR(schema.AddDimension(name, domain));
  }
  return schema;
}

uint8_t BytesForUnsigned(uint64_t max_value) {
  if (max_value == 0) return 0;
  if (max_value <= 0xFFu) return 1;
  if (max_value <= 0xFFFFu) return 2;
  if (max_value <= 0xFFFFFFFFull) return 4;
  return 8;
}

bool ValidWidth(uint8_t w) {
  return w == 0 || w == 1 || w == 2 || w == 4 || w == 8;
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

void PutPacked(ByteWriter* w, uint64_t v, uint8_t width) {
  for (uint8_t b = 0; b < width; ++b) {
    w->PutU8(static_cast<uint8_t>(v >> (8 * b)));
  }
}

template <typename U>
inline uint64_t ReadLE(const uint8_t* p) {
  U v;
  std::memcpy(&v, p, sizeof(U));
  return v;
}

uint64_t ReadPacked(const uint8_t* p, uint8_t width) {
  switch (width) {
    case 1:
      return *p;
    case 2:
      return ReadLE<uint16_t>(p);
    case 4:
      return ReadLE<uint32_t>(p);
    default:
      return ReadLE<uint64_t>(p);
  }
}

/// The per-column save-time decision: frame-of-reference vs delta, at the
/// smallest byte width that fits; smaller width wins, FOR breaks ties
/// (its decode is branch-free and vectorizes).
struct ColumnPlan {
  ColumnEncoding encoding = ColumnEncoding::kFor;
  uint8_t width = 0;
  int64_t reference = 0;
  int64_t min_value = 0;
  int64_t max_value = 0;
};

ColumnPlan PlanColumn(const int64_t* v, size_t n) {
  ColumnPlan plan;
  if (n == 0) {
    plan.min_value = 0;
    plan.max_value = -1;  // matches an empty Cluster's bounds
    return plan;
  }
  int64_t mn = v[0];
  int64_t mx = v[0];
  for (size_t i = 1; i < n; ++i) {
    mn = std::min(mn, v[i]);
    mx = std::max(mx, v[i]);
  }
  const uint8_t for_width =
      BytesForUnsigned(static_cast<uint64_t>(mx) - static_cast<uint64_t>(mn));
  uint64_t max_zz = 0;  // entry 0 is zigzag(0), never the max
  uint64_t prev = static_cast<uint64_t>(v[0]);
  for (size_t i = 1; i < n; ++i) {
    const uint64_t cur = static_cast<uint64_t>(v[i]);
    max_zz = std::max(max_zz, ZigZag(static_cast<int64_t>(cur - prev)));
    prev = cur;
  }
  const uint8_t delta_width = BytesForUnsigned(max_zz);
  if (delta_width < for_width) {
    plan.encoding = ColumnEncoding::kDelta;
    plan.width = delta_width;
    plan.reference = v[0];
  } else {
    plan.encoding = ColumnEncoding::kFor;
    plan.width = for_width;
    plan.reference = mn;
  }
  plan.min_value = mn;
  plan.max_value = mx;
  return plan;
}

/// Appends one column's directory entry to `dir` and its packed bytes to
/// `data`.
void EncodeColumn(const int64_t* v, size_t n, ByteWriter* dir,
                  ByteWriter* data) {
  const ColumnPlan plan = PlanColumn(v, n);
  const uint64_t offset = data->size();
  if (plan.width > 0) {
    if (plan.encoding == ColumnEncoding::kFor) {
      const uint64_t ref = static_cast<uint64_t>(plan.reference);
      for (size_t i = 0; i < n; ++i) {
        PutPacked(data, static_cast<uint64_t>(v[i]) - ref, plan.width);
      }
    } else {
      uint64_t prev = static_cast<uint64_t>(plan.reference);
      for (size_t i = 0; i < n; ++i) {
        const uint64_t cur = static_cast<uint64_t>(v[i]);
        PutPacked(data, ZigZag(static_cast<int64_t>(cur - prev)), plan.width);
        prev = cur;
      }
    }
  }
  dir->PutU8(static_cast<uint8_t>(plan.encoding));
  dir->PutU8(plan.width);
  dir->PutI64(plan.reference);
  dir->PutI64(plan.min_value);
  dir->PutI64(plan.max_value);
  dir->PutU64(offset);
  dir->PutU64(data->size() - offset);
}

Status WriteFileBytes(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("mapped store: " + what);
}

}  // namespace

Status MappedStoreFile::Save(const ClusterStore& store,
                             const std::string& path) {
  if (store.schema().num_dims() == 0) {
    return Status::InvalidArgument("cannot save a store with no dimensions");
  }
  ByteWriter dir;
  ByteWriter data;
  store.ForEachCluster([&](const Cluster& c) {
    const size_t n = c.num_rows();
    dir.PutU32(c.id());
    dir.PutU64(n);
    for (size_t d = 0; d < c.num_dims(); ++d) {
      EncodeColumn(c.column_data(d), n, &dir, &data);
    }
    EncodeColumn(c.measure_data(), n, &dir, &data);
  });

  ByteWriter w;
  w.PutU32(kMappedMagic);
  w.PutU32(kMappedVersion);
  w.PutU64(store.options().cluster_capacity);
  w.PutU64(store.num_clusters());
  w.PutU64(store.TotalRows());
  w.PutI64(store.TotalMeasure());
  SerializeSchema(store.schema(), &w);
  w.PutRaw(dir.bytes().data(), dir.size());
  w.PutU64(data.size());
  w.PutRaw(data.bytes().data(), data.size());
  return WriteFileBytes(path, w.bytes());
}

Result<std::shared_ptr<const MappedStoreFile>> MappedStoreFile::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return Corrupt("'" + path + "' is empty or unstattable");
  }
  const size_t file_size = static_cast<size_t>(st.st_size);
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    return Status::Internal("mmap of '" + path + "' failed");
  }

  // The mapping is owned from here on: any validation failure destroys
  // `file`, which unmaps.
  std::shared_ptr<MappedStoreFile> file(new MappedStoreFile());
  file->map_ = map;
  file->map_size_ = file_size;
  AddMappedBytes(static_cast<int64_t>(file_size));

  ByteReader r(static_cast<const uint8_t*>(map), file_size);
  FEDAQP_ASSIGN_OR_RETURN(uint32_t magic, r.GetU32());
  if (magic != kMappedMagic) return Corrupt("bad file magic");
  FEDAQP_ASSIGN_OR_RETURN(uint32_t version, r.GetU32());
  if (version != kMappedVersion) {
    return Status::NotSupported("unsupported mapped store version " +
                                std::to_string(version));
  }
  FEDAQP_ASSIGN_OR_RETURN(file->capacity_, r.GetU64());
  if (file->capacity_ == 0) return Corrupt("zero cluster capacity");
  FEDAQP_ASSIGN_OR_RETURN(uint64_t num_clusters, r.GetU64());
  FEDAQP_ASSIGN_OR_RETURN(file->total_rows_, r.GetU64());
  FEDAQP_ASSIGN_OR_RETURN(file->total_measure_, r.GetI64());
  FEDAQP_ASSIGN_OR_RETURN(file->schema_, DeserializeSchema(&r));
  const size_t dims = file->schema_.num_dims();
  if (dims == 0) return Corrupt("schema has no dimensions");

  // Directory first (it self-limits: every entry consumes bytes, so a
  // huge claimed cluster count fails on truncation, not allocation)...
  std::vector<uint64_t> rows;
  std::vector<ColInfo> cols;
  uint64_t rows_seen = 0;
  for (uint64_t c = 0; c < num_clusters; ++c) {
    FEDAQP_ASSIGN_OR_RETURN(uint32_t id, r.GetU32());
    if (id != c) return Corrupt("cluster ids not dense");
    FEDAQP_ASSIGN_OR_RETURN(uint64_t n, r.GetU64());
    if (n > kMaxRowsPerCluster) return Corrupt("cluster row count too large");
    rows.push_back(n);
    rows_seen += n;
    for (size_t col = 0; col < dims + 1; ++col) {
      ColInfo info;
      FEDAQP_ASSIGN_OR_RETURN(info.encoding, r.GetU8());
      FEDAQP_ASSIGN_OR_RETURN(info.width, r.GetU8());
      FEDAQP_ASSIGN_OR_RETURN(info.reference, r.GetI64());
      FEDAQP_ASSIGN_OR_RETURN(info.min_value, r.GetI64());
      FEDAQP_ASSIGN_OR_RETURN(info.max_value, r.GetI64());
      FEDAQP_ASSIGN_OR_RETURN(info.offset, r.GetU64());
      FEDAQP_ASSIGN_OR_RETURN(info.byte_len, r.GetU64());
      if (info.encoding > static_cast<uint8_t>(ColumnEncoding::kDelta)) {
        return Corrupt("unknown column encoding");
      }
      if (!ValidWidth(info.width)) return Corrupt("bad column width");
      if (info.width == 0 &&
          info.encoding != static_cast<uint8_t>(ColumnEncoding::kFor)) {
        return Corrupt("constant column must be frame-of-reference");
      }
      const uint64_t expected = n * info.width;
      if (info.byte_len != expected) return Corrupt("column length mismatch");
      cols.push_back(info);
    }
  }
  if (rows_seen != file->total_rows_) {
    return Corrupt("cluster row counts disagree with header total");
  }

  // ...then the data section, which must be exactly the rest of the file.
  FEDAQP_ASSIGN_OR_RETURN(file->data_size_, r.GetU64());
  if (r.remaining() != file->data_size_) {
    return Corrupt("data section size disagrees with file size");
  }
  file->data_ =
      static_cast<const uint8_t*>(map) + (file_size - r.remaining());
  for (const ColInfo& info : cols) {
    if (info.offset > file->data_size_ ||
        info.byte_len > file->data_size_ - info.offset) {
      return Corrupt("column data out of bounds");
    }
  }

  file->rows_ = std::move(rows);
  file->cols_ = std::move(cols);
  return std::shared_ptr<const MappedStoreFile>(std::move(file));
}

MappedStoreFile::~MappedStoreFile() {
  if (map_ != nullptr) {
    ::munmap(map_, map_size_);
    AddMappedBytes(-static_cast<int64_t>(map_size_));
  }
}

namespace {

/// Width-specialized frame-of-reference decode: a branch-free add loop
/// the compiler auto-vectorizes (this is the mapped scan's hot path).
template <typename U>
void DecodeForLoop(const uint8_t* src, size_t n, uint64_t ref, int64_t* dst) {
  for (size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<int64_t>(ref + ReadLE<U>(src + i * sizeof(U)));
  }
}

}  // namespace

void MappedStoreFile::DecodeColumn(size_t c, size_t column,
                                   std::vector<int64_t>* out) const {
  const ColInfo& info = col(c, column);
  const size_t n = cluster_rows(c);
  out->resize(n);
  int64_t* dst = out->data();
  if (info.width == 0) {
    std::fill(dst, dst + n, info.reference);
    return;
  }
  const uint8_t* src = data_ + info.offset;
  if (info.encoding == static_cast<uint8_t>(ColumnEncoding::kFor)) {
    const uint64_t ref = static_cast<uint64_t>(info.reference);
    switch (info.width) {
      case 1:
        DecodeForLoop<uint8_t>(src, n, ref, dst);
        break;
      case 2:
        DecodeForLoop<uint16_t>(src, n, ref, dst);
        break;
      case 4:
        DecodeForLoop<uint32_t>(src, n, ref, dst);
        break;
      default:
        DecodeForLoop<uint64_t>(src, n, ref, dst);
        break;
    }
    return;
  }
  // Delta: a wrap-safe prefix sum (entry 0 is zigzag(0), so the uniform
  // loop reproduces reference at row 0).
  uint64_t acc = static_cast<uint64_t>(info.reference);
  const uint8_t w = info.width;
  for (size_t i = 0; i < n; ++i) {
    acc += static_cast<uint64_t>(UnZigZag(ReadPacked(src + i * w, w)));
    dst[i] = static_cast<int64_t>(acc);
  }
}

Cluster MappedStoreFile::MaterializeCluster(size_t c) const {
  const size_t dims = num_dims();
  std::vector<std::vector<Value>> columns(dims);
  std::vector<Value> mins(dims);
  std::vector<Value> maxs(dims);
  for (size_t d = 0; d < dims; ++d) {
    DecodeColumn(c, d, &columns[d]);
    mins[d] = col(c, d).min_value;
    maxs[d] = col(c, d).max_value;
  }
  std::vector<int64_t> measures;
  DecodeColumn(c, dims, &measures);
  return Cluster::FromColumns(static_cast<uint32_t>(c), std::move(columns),
                              std::move(measures), std::move(mins),
                              std::move(maxs));
}

uint64_t MappedStoreFile::TotalMappedBytes() {
  std::lock_guard<std::mutex> lock(g_mapped_mutex);
  return g_mapped_bytes;
}

}  // namespace fedaqp
