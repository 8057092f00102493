#ifndef FEDAQP_FEDERATION_PROVIDER_H_
#define FEDAQP_FEDERATION_PROVIDER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "dp/budget.h"
#include "metadata/metadata_store.h"
#include "sampling/em_sampler.h"
#include "storage/cluster_store.h"
#include "storage/table.h"

namespace fedaqp {

/// Per-query work counters for one provider; deterministic (unlike wall
/// time) so tests can assert on them, while benches report the measured
/// seconds alongside.
struct ProviderWorkStats {
  size_t clusters_scanned = 0;
  size_t rows_scanned = 0;
  double compute_seconds = 0.0;

  ProviderWorkStats& operator+=(const ProviderWorkStats& o) {
    clusters_scanned += o.clusters_scanned;
    rows_scanned += o.rows_scanned;
    compute_seconds += o.compute_seconds;
    return *this;
  }
};

/// The Laplace-perturbed summary a provider publishes in the allocation
/// phase (protocol step 2, Eq. 5).
struct ProviderSummary {
  double noisy_avg_r = 0.0;
  double noisy_n_q = 0.0;
  /// Budget consumed publishing the pair (= eps_O).
  double epsilon_spent = 0.0;
  ProviderWorkStats work;
};

/// A provider's local answer (protocol steps 4-6).
struct LocalEstimate {
  /// Hansen-Hurwitz estimate (approximate path) or the exact local result.
  double estimate = 0.0;
  /// Variance of the released value: the Hansen-Hurwitz sampling variance
  /// plus (when noised locally) the Laplace noise variance 2b^2. Zero on
  /// the exact path without noise. Lets the analyst build confidence
  /// intervals — an extension over the paper, which reports only points.
  double variance = 0.0;
  /// Average smooth sensitivity of the estimator over the sampled clusters
  /// (Eq. 9 / Algorithm 3); for the exact path, the global sensitivity of
  /// the aggregate.
  double sensitivity = 0.0;
  /// True when the provider bypassed approximation (N^Q < N_min, step 4).
  bool exact = false;
  /// True when Laplace noise was already applied locally (DP mode); SMC
  /// mode leaves the estimate clean for oblivious aggregation.
  bool noised = false;
  /// Budget consumed by this answer: eps_S + eps_E (and delta) on the
  /// approximate path, eps_E on the exact path.
  PrivacyBudget spent{0.0, 0.0};
  ProviderWorkStats work;
};

/// The approximate path's state across the rounds of one query: the EM
/// sample drawn on round 1, and the value of every sampled cluster scanned
/// so far, so a cluster drawn in several rounds is scanned once. A one-shot
/// query is round 1 of 1; a progressive query keeps this in its endpoint
/// session between rounds.
struct SampleDraw {
  /// R, the number of rounds the draws are released in.
  size_t rounds = 1;
  /// Rounds released so far.
  size_t released = 0;
  EmSample sample;
  /// Cover index -> the cluster's scanned Q(C).
  std::unordered_map<size_t, double> values;
};

/// One data provider of the horizontal federation: owns its cluster store
/// and Algorithm-1 metadata, performs the local protocol steps, and never
/// exposes raw rows — only DP-protected summaries and estimates leave it.
class DataProvider {
 public:
  struct Options {
    /// Storage layout; cluster_capacity is the federation-wide S.
    ClusterStoreOptions storage;
    /// Approximation threshold N_min (step 4); also feeds the published
    /// sensitivities Delta_Avg(R) and Delta_p.
    size_t n_min = 4;
    /// Public bound on a single individual's contribution to SUM(Measure)
    /// used as the sensitivity of exact-path SUM releases.
    double sum_sensitivity_bound = 1.0;
    /// Public bound on any single cell's aggregated measure; only used to
    /// bound the per-individual change of SUM(Measure^2) releases
    /// ((m+B)^2 - m^2 <= 2*cap*B + B^2).
    double measure_cap = 1 << 20;
    /// Seed of the provider's private randomness (noise, sampling).
    uint64_t seed = 1;
    /// Human-readable name for diagnostics.
    std::string name = "provider";
  };

  /// Runs the offline phase: ingests `table` into clusters and builds
  /// metadata (Algorithm 1).
  static Result<std::unique_ptr<DataProvider>> Create(const Table& table,
                                                      const Options& options);

  /// Adopts an already-built store (e.g. one opened with
  /// ClusterStore::OpenMapped) and builds metadata over it. The store's
  /// own storage options replace `options.storage` so the federation-wide
  /// capacity S stays the one the store was built with.
  static Result<std::unique_ptr<DataProvider>> CreateFromStore(
      ClusterStore store, const Options& options);

  const std::string& name() const { return options_.name; }
  const Options& options() const { return options_; }
  const ClusterStore& store() const { return store_; }
  const MetadataStore& metadata() const { return metadata_; }

  /// Protocol step 1: identify C^Q and approximate the R's from metadata.
  /// Pure metadata work — clusters are not touched. `exec` (optional)
  /// shards the metadata pass; when null the provider falls back to its
  /// own executor built from `storage.num_scan_shards` (inline, no pool).
  CoverInfo Cover(const RangeQuery& query, ProviderWorkStats* work,
                  const ShardedScanExecutor* exec = nullptr) const;

  /// Protocol step 2: publish ~N^Q and ~Avg(R) under Laplace noise with
  /// the Theorem 5.1 sensitivities, spending eps_allocation. Draws from
  /// `rng` when given, else from the provider's persistent stream; the
  /// execution layer passes a per-query-session stream (derived from the
  /// provider seed and the query id) so answers do not depend on the
  /// order in which concurrent queries reach the provider.
  Result<ProviderSummary> PublishSummary(const RangeQuery& query,
                                         const CoverInfo& cover,
                                         double eps_allocation,
                                         Rng* rng = nullptr);

  /// Protocol step 4 test: true when the query is large enough to warrant
  /// approximation.
  bool ShouldApproximate(const CoverInfo& cover) const {
    return cover.NumClusters() >= options_.n_min;
  }

  /// Protocol steps 5-6 for round `draw->released + 1` of `draw->rounds`
  /// (round 1 of 1 when `draw` is null): round 1 EM-samples `sample_size`
  /// clusters (eps_sampling); each round scans the clusters first drawn in
  /// its share of the draws, estimates with Hansen-Hurwitz over the draws
  /// released so far (the first round * sample_size / rounds) and computes
  /// the smooth sensitivity for (eps_estimate, delta), the round's share.
  /// When `add_noise` (DP mode) the estimate is released with Laplace
  /// noise; otherwise (SMC mode) it is returned clean for oblivious
  /// aggregation.
  Result<LocalEstimate> Approximate(const RangeQuery& query,
                                    const CoverInfo& cover, size_t sample_size,
                                    double eps_sampling, double eps_estimate,
                                    double delta, bool add_noise,
                                    Rng* rng = nullptr,
                                    const ShardedScanExecutor* exec = nullptr,
                                    SampleDraw* draw = nullptr);

  /// Exact local answer over the covering clusters (step 4 bypass),
  /// released with Laplace noise under the aggregate's global sensitivity
  /// when `add_noise`.
  Result<LocalEstimate> ExactAnswer(const RangeQuery& query,
                                    const CoverInfo& cover,
                                    double eps_estimate, bool add_noise,
                                    Rng* rng = nullptr,
                                    const ShardedScanExecutor* exec = nullptr);

  /// Plain-text full scan (the "normal computation" baseline timed by the
  /// paper's Speed-UP metric).
  int64_t ExactFullScan(const RangeQuery& query, ProviderWorkStats* work,
                        const ShardedScanExecutor* exec = nullptr) const;

  /// Largest change one individual can make to the aggregate: 1 for COUNT,
  /// the configured contribution bound for SUM, and the squared-measure
  /// bound for SUM_SQUARES. Drives both exact-path Laplace calibration and
  /// the scenario-4 smooth-sensitivity slope.
  double UnitChange(Aggregation agg) const;

  /// Flattens every cluster into doubles for the Fig. 1 row-sharing
  /// baseline (dims + measure per row).
  std::vector<double> FlattenRows() const;

  /// Provider-private randomness (exposed for deterministic test setups).
  Rng* rng() { return &rng_; }

  /// The provider's own scan executor: `storage.num_scan_shards` shards,
  /// no pool (inline). Used whenever a caller passes no executor; the
  /// execution layer substitutes pool-backed executors per endpoint.
  const ShardedScanExecutor& default_scan_executor() const {
    return default_exec_;
  }

 private:
  DataProvider(ClusterStore store, MetadataStore metadata, Options options)
      : store_(std::move(store)),
        metadata_(std::move(metadata)),
        options_(options),
        rng_(options.seed),
        default_exec_(options.storage.num_scan_shards, nullptr) {}

  const ShardedScanExecutor& ScanExec(const ShardedScanExecutor* exec) const {
    return exec != nullptr ? *exec : default_exec_;
  }

  ClusterStore store_;
  MetadataStore metadata_;
  Options options_;
  Rng rng_;
  ShardedScanExecutor default_exec_;
};

}  // namespace fedaqp

#endif  // FEDAQP_FEDERATION_PROVIDER_H_
