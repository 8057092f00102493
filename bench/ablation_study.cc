// Ablations for the design choices DESIGN.md calls out.
//
// Part A isolates the sampling design (no DP noise): pps-from-metadata vs
// pps-from-exact-R vs uniform cluster sampling vs EM-without-replacement,
// on BOTH cluster layouts. Distribution-aware sampling matters exactly
// when clusters are value-correlated (sorted layout); on hash-like
// (shuffled) layouts every cluster is a microcosm and uniform sampling is
// already fine — this is the regime split the paper's Sec. 4 motivates.
//
// Part B compares protocol-level variants under full DP: global
// (collaborative) allocation vs local allocation, and row-level Bernoulli
// sampling (accurate but scans everything).
//
//   ./ablation_study [--rows=N] [--queries=M] [--seed=S] [--full]

#include <cstdio>

#include "baseline/local_sampling.h"
#include "baseline/row_sampling.h"
#include "bench/bench_util.h"
#include "sampling/em_sampler.h"
#include "sampling/hansen_hurwitz.h"
#include "sampling/stratified.h"
#include "sampling/uniform.h"

using namespace fedaqp;         // NOLINT
using namespace fedaqp::bench;  // NOLINT

namespace {

// Clean (noise-free) cluster-sampling estimate for one provider using the
// given proportions as pps scores.
Result<double> CleanEstimate(DataProvider* p, const RangeQuery& q,
                             const CoverInfo& cover,
                             const std::vector<double>& proportions,
                             double sample_fraction, bool with_replacement,
                             Rng* rng) {
  size_t sample = std::max<size_t>(
      1, static_cast<size_t>(sample_fraction * cover.NumClusters()));
  EmSamplerOptions em;
  em.epsilon = 0.1;
  em.n_min = p->options().n_min;
  em.with_replacement = with_replacement;
  if (!with_replacement && sample > cover.NumClusters()) {
    sample = cover.NumClusters();
  }
  FEDAQP_ASSIGN_OR_RETURN(EmSample picks,
                          EmSampleClusters(proportions, sample, em, rng));
  std::vector<double> results, probs;
  for (size_t idx : picks.chosen) {
    ScanResult s = p->store().cluster(cover.cluster_ids[idx]).Scan(q);
    double y = static_cast<double>(s.For(q.aggregation()));
    double prob = picks.pps[idx];
    if (prob <= 0.0) {
      y = 0.0;
      prob = 1.0;
    }
    results.push_back(y);
    probs.push_back(prob);
  }
  FEDAQP_ASSIGN_OR_RETURN(HansenHurwitzEstimate hh,
                          HansenHurwitz(results, probs));
  return hh.estimate;
}

enum class Variant {
  kMetadataPps,
  kExactRPps,
  kUniform,
  kNoReplacement,
  kStratified,
};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kMetadataPps:
      return "pps (metadata R, Eq.1)";
    case Variant::kExactRPps:
      return "pps (exact R, full scan)";
    case Variant::kUniform:
      return "uniform cluster sampling";
    case Variant::kNoReplacement:
      return "EM without replacement";
    case Variant::kStratified:
      return "stratified (3 strata by R)";
  }
  return "?";
}

// Stratified alternative: sample within R-quantile strata and expand by
// N_h/n_h instead of 1/(n p_i).
Result<double> StratifiedEstimate(DataProvider* p, const RangeQuery& q,
                                  const CoverInfo& cover,
                                  double sample_fraction, Rng* rng) {
  size_t total = std::max<size_t>(
      3, static_cast<size_t>(sample_fraction * cover.NumClusters()));
  FEDAQP_ASSIGN_OR_RETURN(StratifiedPlan plan,
                          BuildStratifiedPlan(cover.proportions, 3, total));
  FEDAQP_ASSIGN_OR_RETURN(StratifiedSample sample,
                          DrawStratifiedSample(plan, rng));
  double estimate = 0.0;
  for (size_t d = 0; d < sample.chosen.size(); ++d) {
    ScanResult s =
        p->store().cluster(cover.cluster_ids[sample.chosen[d]]).Scan(q);
    estimate += static_cast<double>(s.For(q.aggregation())) *
                sample.expansion[d];
  }
  return estimate;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool full = flags.Has("full");
  const size_t rows = flags.GetInt("rows", full ? 1200000 : 600000);
  const size_t queries = flags.GetInt("queries", full ? 60 : 20);
  const size_t providers = flags.GetInt("providers", 4);
  const uint64_t seed = flags.GetInt("seed", 9);

  // --------------------------- Part A: sampling designs, no DP noise ----
  std::printf("# Ablation A: sampling design (clean estimates, adult, "
              "sr=10%%)\n");
  std::printf("%-10s %-28s %12s\n", "layout", "variant", "mean_err%");

  SyntheticConfig cfg = AdultConfig(rows, seed);
  for (ClusterLayout layout :
       {ClusterLayout::kShuffled, ClusterLayout::kSortedByFirstDim}) {
    Result<std::vector<Table>> parts =
        GenerateFederatedTensors(cfg, AdultTensorDims(), providers);
    if (!parts.ok()) return 1;
    size_t cells = 0;
    for (const auto& t : *parts) cells += t.num_rows();
    size_t capacity = std::max<size_t>(512, cells / providers / 50);

    std::vector<std::unique_ptr<DataProvider>> owned;
    std::vector<DataProvider*> ptrs;
    for (size_t i = 0; i < parts->size(); ++i) {
      DataProvider::Options popts;
      popts.storage.cluster_capacity = capacity;
      popts.storage.layout = layout;
      popts.storage.shuffle_seed = seed + i;
      popts.n_min = 16;
      popts.seed = seed * 37 + i;
      Result<std::unique_ptr<DataProvider>> p =
          DataProvider::Create((*parts)[i], popts);
      if (!p.ok()) return 1;
      ptrs.push_back(p->get());
      owned.push_back(std::move(p).value());
    }

    // A fixed workload of 3-dim SUM queries with substantial answers.
    QueryGenOptions qopts;
    qopts.num_dims = 3;
    qopts.aggregation = Aggregation::kSum;
    qopts.seed = seed + 41;
    qopts.min_width_fraction = 0.3;
    qopts.max_width_fraction = 0.8;
    Schema schema = ptrs[0]->store().schema();
    RandomQueryGenerator gen(schema, qopts);
    Result<std::vector<RangeQuery>> wl = gen.Workload(
        queries, [&](const RangeQuery& q) {
          double answer = 0.0, total = 0.0;
          for (auto* p : ptrs) {
            answer += static_cast<double>(p->store().EvaluateExact(q));
            total += static_cast<double>(p->store().TotalMeasure());
          }
          for (auto* p : ptrs) {
            if (!p->ShouldApproximate(p->Cover(q, nullptr))) return false;
          }
          return answer >= 0.01 * total;
        });
    if (!wl.ok()) {
      std::fprintf(stderr, "workload failed: %s\n",
                   wl.status().ToString().c_str());
      return 1;
    }

    Rng rng(seed + 7);
    const char* layout_name =
        layout == ClusterLayout::kShuffled ? "shuffled" : "sorted";
    for (Variant variant :
         {Variant::kMetadataPps, Variant::kExactRPps, Variant::kUniform,
          Variant::kNoReplacement, Variant::kStratified}) {
      std::vector<double> errs;
      for (const auto& q : *wl) {
        double truth = 0.0, estimate = 0.0;
        bool ok = true;
        for (auto* p : ptrs) {
          truth += static_cast<double>(p->store().EvaluateExact(q));
          CoverInfo cover = p->Cover(q, nullptr);
          if (cover.NumClusters() == 0) continue;
          if (variant == Variant::kStratified) {
            Result<double> est = StratifiedEstimate(p, q, cover, 0.1, &rng);
            if (!est.ok()) {
              ok = false;
              break;
            }
            estimate += *est;
            continue;
          }
          std::vector<double> props;
          switch (variant) {
            case Variant::kMetadataPps:
            case Variant::kNoReplacement:
              props = cover.proportions;
              break;
            case Variant::kExactRPps:
              for (uint32_t id : cover.cluster_ids) {
                ScanResult s = p->store().cluster(id).Scan(q);
                props.push_back(static_cast<double>(s.count) /
                                static_cast<double>(capacity));
              }
              break;
            default:
              props.assign(cover.NumClusters(), 1.0);
              break;
          }
          Result<double> est = CleanEstimate(
              p, q, cover, props, 0.1,
              /*with_replacement=*/variant != Variant::kNoReplacement, &rng);
          if (!est.ok()) {
            ok = false;
            break;
          }
          estimate += *est;
        }
        if (ok) errs.push_back(RelativeError(truth, estimate));
      }
      std::printf("%-10s %-28s %11.2f%%\n", layout_name, VariantName(variant),
                  100.0 * Mean(errs));
    }
  }

  // ------------------------------ Part B: protocol-level, with DP -------
  std::printf("\n# Ablation B: protocol variants (with DP, adult, "
              "shuffled)\n");
  std::printf("%-34s %12s %16s\n", "variant", "mean_err%", "rows_scanned");

  FederationConfig protocol;
  protocol.sampling_rate = 0.1;
  protocol.per_query_budget = {1.0, 1e-3};
  std::unique_ptr<Federation> fed =
      OpenPaperFederation(Dataset::kAdult, rows, providers, seed, protocol);
  if (!fed) return 1;
  std::vector<DataProvider*> ptrs = fed->provider_ptrs();
  Result<std::vector<RangeQuery>> wl =
      PaperWorkload(fed.get(), queries, 3, Aggregation::kSum, seed + 41);
  if (!wl.ok()) return 1;

  {
    Result<QueryOrchestrator> orch = Orchestrate(fed.get(), protocol);
    if (!orch.ok()) return 1;
    std::vector<double> errs;
    size_t rows_scanned = 0;
    for (const auto& q : *wl) {
      Result<QueryResponse> exact = orch->ExecuteExact(q);
      Result<QueryResponse> resp = ExecuteQuery(*orch, q);
      if (!exact.ok() || !resp.ok()) return 1;
      errs.push_back(RelativeError(exact->estimate, resp->estimate));
      rows_scanned += resp->breakdown.rows_scanned;
    }
    std::printf("%-34s %11.2f%% %16zu\n", "full protocol (global alloc)",
                100.0 * Mean(errs), rows_scanned);
  }
  {
    std::vector<double> errs;
    size_t rows_scanned = 0;
    for (const auto& q : *wl) {
      double truth = 0.0;
      for (auto* p : ptrs) {
        truth += static_cast<double>(p->store().EvaluateExact(q));
      }
      Result<LocalSamplingResult> r =
          RunLocalSampling(ptrs, q, 0.1, 0.1, 0.8, 1e-3);
      if (!r.ok()) return 1;
      errs.push_back(RelativeError(truth, r->estimate));
      rows_scanned += r->rows_scanned;
    }
    std::printf("%-34s %11.2f%% %16zu\n", "local allocation (no collab)",
                100.0 * Mean(errs), rows_scanned);
  }
  {
    Rng rng(seed + 80);
    std::vector<double> errs;
    size_t rows_scanned = 0;
    for (const auto& q : *wl) {
      double truth = 0.0;
      for (auto* p : ptrs) {
        truth += static_cast<double>(p->store().EvaluateExact(q));
      }
      Result<RowSamplingResult> r = RunRowSampling(ptrs, q, 0.1, &rng);
      if (!r.ok()) return 1;
      errs.push_back(RelativeError(truth, r->estimate));
      rows_scanned += r->rows_scanned;
    }
    std::printf("%-34s %11.2f%% %16zu\n", "row-level Bernoulli (10%, no DP)",
                100.0 * Mean(errs), rows_scanned);
  }

  std::printf("# expected: on sorted layouts pps beats uniform by a wide\n"
              "# margin while on shuffled layouts they converge; exact-R\n"
              "# is the accuracy ceiling; Bernoulli is accurate but scans\n"
              "# every row (no speed-up), motivating the paper's design\n");
  return 0;
}
