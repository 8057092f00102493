#ifndef FEDAQP_BENCH_BENCH_UTIL_H_
#define FEDAQP_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction benches: flag parsing,
// dataset construction matching the paper's setup (Sec. 6.1), and small
// printing utilities. Every bench accepts:
//   --rows=N        raw rows before tensor construction (per dataset scale)
//   --queries=M     queries per workload (paper: 100)
//   --providers=P   data providers (paper: 4)
//   --seed=S        master seed
//   --full          paper-scale defaults (slower)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fedaqp.h"
#include "obs/metrics.h"

namespace fedaqp {
namespace bench {

/// Minimal --name=value flag reader.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  bool Has(const std::string& name) const {
    std::string prefix = "--" + name;
    for (const auto& a : args_) {
      if (a == prefix || a.rfind(prefix + "=", 0) == 0) return true;
    }
    return false;
  }

  long GetInt(const std::string& name, long fallback) const {
    std::string v = GetRaw(name);
    return v.empty() ? fallback : std::atol(v.c_str());
  }

  double GetDouble(const std::string& name, double fallback) const {
    std::string v = GetRaw(name);
    return v.empty() ? fallback : std::atof(v.c_str());
  }

  std::string GetString(const std::string& name,
                        const std::string& fallback = "") const {
    std::string v = GetRaw(name);
    return v.empty() ? fallback : v;
  }

 private:
  std::string GetRaw(const std::string& name) const {
    std::string prefix = "--" + name + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return "";
  }

  std::vector<std::string> args_;
};

/// Which of the paper's two datasets a federation models.
enum class Dataset { kAdult, kAmazon };

/// The paper's partitions of `dataset`: the dataset preset's count tensor,
/// split equally over `providers`. Empty (after printing why) on failure.
inline std::vector<Table> PaperPartitions(Dataset dataset, size_t rows,
                                          size_t providers, uint64_t seed) {
  SyntheticConfig cfg = dataset == Dataset::kAdult
                            ? AdultConfig(rows, seed)
                            : AmazonConfig(rows, seed);
  std::vector<size_t> tensor_dims =
      dataset == Dataset::kAdult ? AdultTensorDims() : AmazonTensorDims();
  Result<std::vector<Table>> parts =
      GenerateFederatedTensors(cfg, tensor_dims, providers);
  if (!parts.ok()) {
    std::fprintf(stderr, "datagen failed: %s\n",
                 parts.status().ToString().c_str());
    return {};
  }
  return std::move(parts).value();
}

/// Opens a federation over `parts` per the paper's setup: a cluster
/// capacity of ~1% (Adult) / ~0.5% (Amazon) of each provider's tensor.
inline std::unique_ptr<Federation> OpenPaperFederation(
    std::vector<Table> parts, uint64_t seed,
    const FederationConfig& protocol) {
  if (parts.empty()) return nullptr;
  size_t per_provider_cells = 0;
  for (const auto& p : parts) per_provider_cells += p.num_rows();
  per_provider_cells /= parts.size();
  // Cluster capacity: the paper uses 1% (Adult) / 0.5% (Amazon) of each
  // provider's tensor. At reduced bench scale that would leave hundreds of
  // tiny clusters whose fixed noise floor (~17.5 * N^Q / eps^2) dwarfs the
  // small absolute answers; 2% keeps the answer-to-noise ratio in the
  // regime the paper's full-size tables operate in. EXPERIMENTS.md
  // documents this scaling decision.
  double frac = 0.02;
  size_t capacity = static_cast<size_t>(per_provider_cells * frac);
  if (capacity < 512) capacity = 512;

  FederationOptions opts;
  opts.cluster_capacity = capacity;
  // N_min scales with the cluster count: a provider with hundreds of
  // clusters only approximates genuinely large queries, and the induced
  // EM score sensitivity Delta_p = 1/(N_min(N_min+1)) then lets the
  // sampler track the pps scores closely (Theorem 5.2).
  opts.n_min = 16;
  // The paper's proof-of-concept materializes tensor cells into PostgreSQL
  // tables, whose physical order is the (hash-)aggregation output order —
  // effectively random. Shuffled clusters reproduce that regime: every
  // cluster carries a slice of the whole distribution, so pps weights are
  // well-conditioned and the sensitivity slopes 1/p stay ~N^Q, matching
  // the paper's reported noise magnitudes. The value-sorted layout is
  // exercised separately in the ablation bench.
  opts.layout = ClusterLayout::kShuffled;
  opts.protocol = protocol;
  // Benches sweep parameters; the analyst grant must never interfere.
  opts.protocol.total_xi = 1e18;
  opts.protocol.total_psi = 1e9;
  // Sub-millisecond LAN latency so that, at bench scale, compute and
  // network costs stay in the proportions the paper's testbed exhibits.
  opts.protocol.network.latency_seconds = 1e-5;
  opts.seed = seed ^ 0xfed;
  Result<std::unique_ptr<Federation>> fed =
      Federation::Open(std::move(parts), opts);
  if (!fed.ok()) {
    std::fprintf(stderr, "open failed: %s\n", fed.status().ToString().c_str());
    return nullptr;
  }
  return std::move(fed).value();
}

/// Builds a federation per the paper's setup: PaperPartitions, then
/// OpenPaperFederation over them.
inline std::unique_ptr<Federation> OpenPaperFederation(
    Dataset dataset, size_t rows, size_t providers, uint64_t seed,
    const FederationConfig& protocol) {
  return OpenPaperFederation(PaperPartitions(dataset, rows, providers, seed),
                             seed, protocol);
}

/// Fresh orchestrator over a federation's providers with a tweaked config
/// (parameter sweeps reuse the expensive offline build).
inline Result<QueryOrchestrator> Orchestrate(Federation* fed,
                                             FederationConfig config) {
  config.total_xi = 1e18;
  config.total_psi = 1e9;
  config.network.latency_seconds = 1e-5;
  return QueryOrchestrator::Create(fed->provider_ptrs(), config);
}

/// Admission rule of the paper's workloads: the query must trigger
/// approximation (N^Q >= N_min) at every provider.
inline bool TriggersApproximationEverywhere(Federation* fed,
                                            const RangeQuery& q) {
  for (auto* p : fed->provider_ptrs()) {
    CoverInfo cover = p->Cover(q, nullptr);
    if (!p->ShouldApproximate(cover)) return false;
  }
  return true;
}

/// Second admission rule, a scale substitution: the exact answer must be at
/// least 1% of the federation's aggregate. The paper's datasets are 2-3
/// orders of magnitude larger, so even its most selective random queries
/// return answers far above the (scale-independent) DP noise floor; this
/// floor keeps reduced-scale workloads in the same answer-to-noise regime
/// instead of benchmarking noise on near-empty slices.
inline bool AnswerIsSubstantial(Federation* fed, const RangeQuery& q,
                                double min_fraction = 0.01) {
  double answer = 0.0;
  double total = 0.0;
  for (auto* p : fed->provider_ptrs()) {
    answer += static_cast<double>(p->store().EvaluateExact(q));
    total += q.aggregation() == Aggregation::kCount
                 ? static_cast<double>(p->store().TotalRows())
                 : static_cast<double>(p->store().TotalMeasure());
  }
  return answer >= min_fraction * total;
}

/// Generates an (m, n) workload admitted by the approximation rule.
inline Result<std::vector<RangeQuery>> PaperWorkload(Federation* fed, size_t m,
                                                     size_t n, Aggregation agg,
                                                     uint64_t seed) {
  QueryGenOptions qopts;
  qopts.num_dims = n;
  qopts.aggregation = agg;
  qopts.seed = seed;
  // Wide ranges: the paper only admits queries big enough to trigger
  // approximation everywhere, which de facto selects broad analytical
  // ranges rather than point lookups.
  qopts.min_width_fraction = 0.3;
  qopts.max_width_fraction = 0.8;
  RandomQueryGenerator gen(fed->schema(), qopts);
  return gen.Workload(
      m, [fed](const RangeQuery& q) {
        return TriggersApproximationEverywhere(fed, q) &&
               AnswerIsSubstantial(fed, q);
      });
}

/// The median (upper middle for an even count) of `values`; 0 when empty.
inline double Percentile50(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// FNV-1a over the bit patterns of `values`: a compact fingerprint of a
/// run's answers. Emitted as `answers_checksum` so the cross-run bench
/// gate (tools/bench_compare.py --gate) can detect answer divergence
/// between PRs without storing every estimate.
inline uint64_t AnswersChecksum(const std::vector<double>& values) {
  uint64_t h = 1469598103934665603ull;
  for (double v : values) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Machine-readable bench output: a flat JSON object written to
/// BENCH_<name>.json in the working directory, so successive PRs leave a
/// perf trajectory (query latency, network bytes, speedups) that CI and
/// scripts can diff without scraping stdout.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void Set(const std::string& key, double value) {
    if (!std::isfinite(value)) {
      // NaN/Inf are not valid JSON literals; null keeps the file parseable.
      fields_.emplace_back(key, "null");
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    fields_.emplace_back(key, buf);
  }
  template <typename T,
            typename = typename std::enable_if<std::is_integral<T>::value>::type>
  void Set(const std::string& key, T value) {
    fields_.emplace_back(key, std::to_string(value));
  }
  void Set(const std::string& key, const std::string& value) {
    fields_.emplace_back(key, "\"" + Escaped(value) + "\"");
  }

  /// Writes BENCH_<name>.json; returns false (with a note on stderr) on
  /// I/O failure so benches can keep printing their human output.
  bool Write() const {
    std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\"", Escaped(name_).c_str());
    for (const auto& kv : fields_) {
      std::fprintf(f, ",\n  \"%s\": %s", Escaped(kv.first).c_str(),
                   kv.second.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out.push_back('\\');
        out.push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        out += buf;
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  std::string name_;
  /// Values pre-rendered as JSON literals.
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Folds a MetricRegistry snapshot into a bench's JSON: counters/gauges as
/// `metric_<name>` (dots → underscores), histograms additionally with
/// `_p50/_p95/_p99` second-quantile fields. Lets the perf-trajectory files
/// carry the observability layer's view of a run alongside the bench's
/// own timings.
inline void EmitRegistrySnapshot(BenchJson* json,
                                 const std::string& prefix = {}) {
  const std::vector<obs::MetricSample> samples =
      obs::MetricRegistry::Global().Snapshot(prefix);
  for (const obs::MetricSample& s : samples) {
    std::string key = "metric_" + s.name;
    for (char& c : key) {
      if (c == '.') c = '_';
    }
    json->Set(key, s.value);
    if (s.kind == obs::MetricSample::Kind::kHistogram) {
      json->Set(key + "_p50", s.p50);
      json->Set(key + "_p95", s.p95);
      json->Set(key + "_p99", s.p99);
    }
  }
}

inline const char* AggName(Aggregation agg) {
  return agg == Aggregation::kCount ? "count" : "sum";
}

inline const char* DatasetName(Dataset d) {
  return d == Dataset::kAdult ? "adult_synth" : "amazon";
}

}  // namespace bench
}  // namespace fedaqp

#endif  // FEDAQP_BENCH_BENCH_UTIL_H_
