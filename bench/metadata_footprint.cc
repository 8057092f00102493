// Metadata footprint (Sec. 6.1): the paper reports 6.4 MB total /
// 64 KB-per-cluster for Adult and 11 MB / 56 KB-per-cluster for Amazon.
// Absolute numbers scale with the synthetic data volume; the claim under
// test is that metadata stays a negligible fraction of the data.
//
// A second table times the offline phase per dataset (timing only, best
// of 3): the wall time of Federation::Open, and provider 0's
// ClusterStore::Build and MetadataStore::Build run alone on this thread.
//
//   ./metadata_footprint [--rows=N] [--providers=P] [--seed=S] [--full]

#include <algorithm>
#include <cstdio>
#include <limits>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "metadata/metadata_store.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

namespace {

/// Timings report the best of this many runs: the host's other load only
/// ever adds time.
constexpr int kReps = 3;

struct OfflineTimes {
  const char* dataset = "";
  double open_ms = std::numeric_limits<double>::infinity();
  double store_ms = std::numeric_limits<double>::infinity();
  double meta_ms = std::numeric_limits<double>::infinity();
};

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 2);

  std::printf("# Metadata space allocation (Sec. 6.1)\n");
  std::printf("%-12s %10s %12s %14s %14s %10s\n", "dataset", "clusters",
              "data_MB", "metadata_MB", "KB_per_clstr", "overhead");

  std::vector<OfflineTimes> times;
  for (Dataset dataset : {Dataset::kAdult, Dataset::kAmazon}) {
    const size_t rows = flags.GetInt(
        "rows", dataset == Dataset::kAdult ? (full ? 400000 : 100000)
                                           : (full ? 1000000 : 250000));
    const std::vector<Table> parts =
        PaperPartitions(dataset, rows, providers, seed);
    OfflineTimes t;
    t.dataset = DatasetName(dataset);
    std::unique_ptr<Federation> fed;
    for (int r = 0; r < kReps; ++r) {
      std::vector<Table> copy = parts;
      Stopwatch open_timer;
      fed = OpenPaperFederation(std::move(copy), seed, FederationConfig{});
      t.open_ms = std::min(t.open_ms, open_timer.ElapsedSeconds() * 1e3);
      if (!fed) return 1;
    }
    for (int r = 0; r < kReps; ++r) {
      Stopwatch store_timer;
      Result<ClusterStore> store =
          ClusterStore::Build(parts[0], fed->provider(0)->options().storage);
      t.store_ms = std::min(t.store_ms, store_timer.ElapsedSeconds() * 1e3);
      if (!store.ok()) return 1;
      Stopwatch meta_timer;
      MetadataStore meta = MetadataStore::Build(*store);
      t.meta_ms = std::min(t.meta_ms, meta_timer.ElapsedSeconds() * 1e3);
    }
    times.push_back(t);

    size_t clusters = 0;
    size_t data_bytes = 0;
    for (auto* p : fed->provider_ptrs()) {
      clusters += p->store().num_clusters();
      for (const auto& c : p->store().clusters()) {
        data_bytes += c.ApproxBytes();
      }
    }
    size_t meta_bytes = fed->MetadataBytes();
    std::printf("%-12s %10zu %12.2f %14.2f %14.1f %9.2f%%\n",
                DatasetName(dataset), clusters, data_bytes / 1048576.0,
                meta_bytes / 1048576.0,
                meta_bytes / 1024.0 / static_cast<double>(clusters),
                100.0 * static_cast<double>(meta_bytes) /
                    static_cast<double>(data_bytes));
  }
  std::printf("# paper: 6.4MB/64KB-per-cluster (adult), 11MB/56KB-per-"
              "cluster (amazon);\n# the shape claim: metadata is KB-scale "
              "per cluster, a small fraction of data\n");

  std::printf("# Offline phase wall time, best of %d (timing only)\n", kReps);
  std::printf("%-12s %10s %14s %14s\n", "dataset", "open_ms", "p0_store_ms",
              "p0_meta_ms");
  for (const OfflineTimes& t : times) {
    std::printf("%-12s %10.1f %14.1f %14.1f\n", t.dataset, t.open_ms,
                t.store_ms, t.meta_ms);
  }
  return 0;
}
