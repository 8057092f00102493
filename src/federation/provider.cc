#include "federation/provider.h"

#include <cmath>

#include "common/stopwatch.h"
#include "dp/laplace.h"
#include "dp/sensitivity.h"
#include "dp/smooth_sensitivity.h"
#include "sampling/em_sampler.h"
#include "sampling/hansen_hurwitz.h"

namespace fedaqp {

Result<std::unique_ptr<DataProvider>> DataProvider::Create(
    const Table& table, const Options& options) {
  if (options.n_min == 0) {
    return Status::InvalidArgument("provider: N_min must be >= 1");
  }
  if (options.sum_sensitivity_bound <= 0.0) {
    return Status::InvalidArgument(
        "provider: sum sensitivity bound must be positive");
  }
  FEDAQP_ASSIGN_OR_RETURN(ClusterStore store,
                          ClusterStore::Build(table, options.storage));
  return CreateFromStore(std::move(store), options);
}

Result<std::unique_ptr<DataProvider>> DataProvider::CreateFromStore(
    ClusterStore store, const Options& options) {
  if (options.n_min == 0) {
    return Status::InvalidArgument("provider: N_min must be >= 1");
  }
  if (options.sum_sensitivity_bound <= 0.0) {
    return Status::InvalidArgument(
        "provider: sum sensitivity bound must be positive");
  }
  Options adopted = options;
  adopted.storage = store.options();
  MetadataStore metadata = MetadataStore::Build(store);
  return std::unique_ptr<DataProvider>(
      new DataProvider(std::move(store), std::move(metadata), adopted));
}

CoverInfo DataProvider::Cover(const RangeQuery& query, ProviderWorkStats* work,
                              const ShardedScanExecutor* exec) const {
  ShardScanStats stats;
  CoverInfo cover = metadata_.Cover(query, &ScanExec(exec), &stats);
  if (work != nullptr) {
    // Shards run in parallel in the deployment: charge the slowest shard,
    // not the sum — the intra-provider analogue of the orchestrator's
    // max-across-providers rule.
    work->compute_seconds += stats.max_shard_seconds;
  }
  return cover;
}

Result<ProviderSummary> DataProvider::PublishSummary(const RangeQuery& query,
                                                     const CoverInfo& cover,
                                                     double eps_allocation,
                                                     Rng* rng) {
  if (rng == nullptr) rng = &rng_;
  if (eps_allocation <= 0.0) {
    return Status::InvalidArgument("publish summary: eps must be positive");
  }
  Stopwatch timer;
  // Eq. 5: each of the two values gets eps_O / 2.
  double half_eps = eps_allocation / 2.0;
  double delta_avg = DeltaAvgR(options_.storage.cluster_capacity,
                               query.num_constrained_dims(), options_.n_min);
  FEDAQP_ASSIGN_OR_RETURN(LaplaceMechanism avg_mech,
                          LaplaceMechanism::Create(half_eps, delta_avg));
  FEDAQP_ASSIGN_OR_RETURN(LaplaceMechanism nq_mech,
                          LaplaceMechanism::Create(half_eps, DeltaNQ()));
  ProviderSummary out;
  out.noisy_avg_r = avg_mech.AddNoise(cover.AverageR(), rng);
  out.noisy_n_q =
      nq_mech.AddNoise(static_cast<double>(cover.NumClusters()), rng);
  out.epsilon_spent = eps_allocation;
  out.work.compute_seconds = timer.ElapsedSeconds();
  return out;
}

Result<LocalEstimate> DataProvider::Approximate(
    const RangeQuery& query, const CoverInfo& cover, size_t sample_size,
    double eps_sampling, double eps_estimate, double delta, bool add_noise,
    Rng* rng, const ShardedScanExecutor* exec, SampleDraw* draw) {
  if (rng == nullptr) rng = &rng_;
  SampleDraw one_shot;
  if (draw == nullptr) draw = &one_shot;
  if (cover.NumClusters() == 0) {
    return Status::FailedPrecondition("approximate: empty covering set");
  }
  if (draw->released >= draw->rounds) {
    return Status::FailedPrecondition("approximate: every round released");
  }
  Stopwatch timer;
  LocalEstimate out;
  const bool first_round = draw->released == 0;
  if (first_round) {
    // Step 5: DP cluster sampling (Algorithm 2), drawn once for every
    // round.
    EmSamplerOptions em_opts;
    em_opts.epsilon = eps_sampling;
    em_opts.n_min = options_.n_min;
    em_opts.with_replacement = true;
    FEDAQP_ASSIGN_OR_RETURN(
        draw->sample,
        EmSampleClusters(cover.proportions, sample_size, em_opts, rng));
    draw->values.reserve(draw->sample.chosen.size());
  }
  const std::vector<size_t>& chosen = draw->sample.chosen;
  const std::vector<double>& pps = draw->sample.pps;
  const size_t round = draw->released + 1;
  const size_t begin = draw->released * chosen.size() / draw->rounds;
  const size_t end = round * chosen.size() / draw->rounds;
  const double pre_scan_seconds = timer.ElapsedSeconds();

  // Step 6: scan only the sampled clusters and estimate (Eq. 3). Draws are
  // made with replacement (the Hansen-Hurwitz sampling design), but a
  // cluster drawn several times — in this round or an earlier one — is
  // scanned once and its result reused: the estimator consumes all draws
  // while the I/O cost is bounded by the number of distinct clusters. The
  // clusters first drawn in this round (in first-draw order, a pure
  // function of the sample) are scanned sharded: each shard writes
  // disjoint slots, so the values are bit-identical for any shard count.
  std::vector<size_t> fresh;  // cover indices, first-draw order
  std::vector<double*> slots;
  for (size_t i = begin; i < end; ++i) {
    auto [it, inserted] = draw->values.try_emplace(chosen[i], 0.0);
    if (inserted) {
      fresh.push_back(chosen[i]);
      slots.push_back(&it->second);
    }
  }
  const ShardedScanExecutor& ex = ScanExec(exec);
  const ScanProfile profile = ProfileFor(query.aggregation());
  std::vector<ScanScratch> scratches(ex.NumShardsFor(fresh.size()));
  std::vector<double> shard_seconds =
      ex.ForEachShard(fresh.size(), [&](size_t shard, ShardRange range) {
        for (size_t k = range.begin; k < range.end; ++k) {
          *slots[k] = static_cast<double>(
              store_.ScanCluster(cover.cluster_ids[fresh[k]], query, profile,
                                 &scratches[shard])
                  .For(query.aggregation()));
        }
      });
  size_t sampled_rows = 0;
  for (size_t cover_idx : fresh) {
    sampled_rows += store_.ClusterRows(cover.cluster_ids[cover_idx]);
  }
  out.work.clusters_scanned += fresh.size();
  out.work.rows_scanned += sampled_rows;
  RecordStoreScan(sampled_rows,
                  ShardedScanExecutor::MaxSeconds(shard_seconds));
  Stopwatch post_scan;

  std::vector<double> results(end);
  std::vector<double> probs(end);
  for (size_t i = 0; i < end; ++i) {
    results[i] = draw->values.find(chosen[i])->second;
    probs[i] = pps[chosen[i]];
    if (probs[i] <= 0.0) {
      // The EM's DP exploration can draw a cluster whose approximated
      // proportion is zero. A zero product proportion certifies that some
      // constrained dimension matches no row, hence Q(C) = 0 and the
      // Hansen-Hurwitz term is deterministically zero — encode 0/1
      // instead of the undefined 0/0.
      results[i] = 0.0;
      probs[i] = 1.0;
    }
  }
  FEDAQP_ASSIGN_OR_RETURN(HansenHurwitzEstimate hh,
                          HansenHurwitz(results, probs));
  out.estimate = hh.estimate;
  out.variance = hh.variance;

  // Smooth sensitivity of the estimator, averaged over the released draws
  // (Eq. 9, Algorithm 3 lines 2-6).
  FEDAQP_ASSIGN_OR_RETURN(SmoothSensitivity framework,
                          SmoothSensitivity::Create(eps_estimate, delta));
  double delta_r = DeltaR(options_.storage.cluster_capacity,
                          query.num_constrained_dims());
  double sum_r = cover.SumR();
  double sens_acc = 0.0;
  const double unit_change = UnitChange(query.aggregation());
  for (size_t i = 0; i < end; ++i) {
    EstimatorClusterState state;
    state.cluster_result = results[i];
    state.proportion = cover.proportions[chosen[i]];
    state.sum_proportions = sum_r;
    state.delta_r = delta_r;
    // The original pps probability (zero-probability draws are guarded to
    // contribute zero sensitivity, matching their zero estimator term).
    state.sampling_probability = pps[chosen[i]];
    state.unit_change = unit_change;
    sens_acc += EstimatorSmoothSensitivity(framework, state);
  }
  out.sensitivity = sens_acc / static_cast<double>(end);

  if (add_noise) {
    // Algorithm 3 line 10: Lap(2 * S_LS / eps_E). A zero sensitivity (all
    // sampled clusters empty for Q) releases the (all-zero) estimate
    // noiselessly — nothing about individuals is encoded in it.
    if (out.sensitivity > 0.0) {
      double scale = framework.NoiseScale(out.sensitivity);
      out.estimate += SampleLaplace(scale, rng);
      out.variance += 2.0 * scale * scale;  // Var[Lap(b)] = 2b^2
    }
    out.noised = true;
  }
  out.exact = false;
  // With local noise the provider itself consumed (eps_E, delta) for this
  // round, plus eps_S on round 1; in SMC mode it only consumed eps_S here —
  // the (eps_E, delta) release happens once, collectively, at the
  // aggregator.
  const double eps_s = first_round ? eps_sampling : 0.0;
  out.spent = add_noise ? PrivacyBudget{eps_s + eps_estimate, delta}
                        : PrivacyBudget{eps_s, 0.0};
  // Sequential phases (sampling, estimation) at wall time; the scan phase
  // at its slowest shard — what a parallel deployment would observe.
  out.work.compute_seconds += pre_scan_seconds +
                              ShardedScanExecutor::MaxSeconds(shard_seconds) +
                              post_scan.ElapsedSeconds();
  draw->released = round;
  return out;
}

Result<LocalEstimate> DataProvider::ExactAnswer(const RangeQuery& query,
                                                const CoverInfo& cover,
                                                double eps_estimate,
                                                bool add_noise, Rng* rng,
                                                const ShardedScanExecutor* exec) {
  if (rng == nullptr) rng = &rng_;
  LocalEstimate out;
  ShardScanStats stats;
  FEDAQP_ASSIGN_OR_RETURN(
      ScanResult scan,
      store_.ScanClusters(query, cover.cluster_ids, &ScanExec(exec), &stats,
                          ProfileFor(query.aggregation())));
  out.work.clusters_scanned += stats.clusters_scanned;
  out.work.rows_scanned += stats.rows_scanned;
  Stopwatch timer;  // the release steps below run after the scan barrier
  out.estimate = static_cast<double>(scan.For(query.aggregation()));
  out.sensitivity = UnitChange(query.aggregation());
  out.exact = true;
  if (add_noise) {
    FEDAQP_ASSIGN_OR_RETURN(
        LaplaceMechanism mech,
        LaplaceMechanism::Create(eps_estimate, out.sensitivity));
    out.estimate = mech.AddNoise(out.estimate, rng);
    out.variance += 2.0 * mech.scale() * mech.scale();
    out.noised = true;
  }
  out.spent = add_noise ? PrivacyBudget{eps_estimate, 0.0}
                        : PrivacyBudget{0.0, 0.0};
  out.work.compute_seconds += stats.max_shard_seconds + timer.ElapsedSeconds();
  return out;
}

double DataProvider::UnitChange(Aggregation agg) const {
  switch (agg) {
    case Aggregation::kCount:
      return 1.0;
    case Aggregation::kSum:
      return options_.sum_sensitivity_bound;
    case Aggregation::kSumSquares: {
      double b = options_.sum_sensitivity_bound;
      return 2.0 * options_.measure_cap * b + b * b;
    }
  }
  return 1.0;
}

int64_t DataProvider::ExactFullScan(const RangeQuery& query,
                                    ProviderWorkStats* work,
                                    const ShardedScanExecutor* exec) const {
  ShardScanStats stats;
  int64_t result = store_.EvaluateExact(query, &ScanExec(exec), &stats);
  if (work != nullptr) {
    work->clusters_scanned += stats.clusters_scanned;
    work->rows_scanned += stats.rows_scanned;
    work->compute_seconds += stats.max_shard_seconds;
  }
  return result;
}

std::vector<double> DataProvider::FlattenRows() const {
  std::vector<double> out;
  out.reserve(store_.TotalRows() * (store_.schema().num_dims() + 1));
  store_.ForEachCluster([&](const Cluster& cluster) {
    for (size_t i = 0; i < cluster.num_rows(); ++i) {
      for (size_t d = 0; d < cluster.num_dims(); ++d) {
        out.push_back(static_cast<double>(cluster.at(i, d)));
      }
      out.push_back(static_cast<double>(cluster.measure(i)));
    }
  });
  return out;
}

}  // namespace fedaqp
