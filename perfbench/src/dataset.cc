#include "dataset.h"

#include <algorithm>
#include <thread>

#include "common/rng.h"
#include "workload/datagen.h"
#include "workload/query_gen.h"

namespace perfbench {

using fedaqp::Aggregation;
using fedaqp::RangeQuery;
using fedaqp::Result;
using fedaqp::Table;

Result<std::vector<Table>> MakePartitions(size_t rows, size_t providers,
                                          uint64_t seed) {
  return fedaqp::GenerateFederatedTensors(fedaqp::AdultConfig(rows, seed),
                                          fedaqp::AdultTensorDims(), providers);
}

fedaqp::FederationOptions PaperOptions(const std::vector<Table>& parts,
                                       uint64_t seed,
                                       const fedaqp::FederationConfig& protocol) {
  size_t cells = 0;
  for (const Table& t : parts) cells += t.num_rows();
  const size_t per_provider = cells / std::max<size_t>(1, parts.size());
  fedaqp::FederationOptions opts;
  // At reduced scale the paper's 1% capacity leaves tiny clusters whose
  // noise floor dwarfs the answers; 2% keeps its answer-to-noise regime.
  opts.cluster_capacity =
      std::max<size_t>(512, static_cast<size_t>(per_provider * 0.02));
  opts.n_min = 16;
  opts.layout = fedaqp::ClusterLayout::kShuffled;
  opts.protocol = protocol;
  opts.seed = seed ^ 0xfed;
  return opts;
}

// ---------------------------------------------------------------- oracle --

ExactOracle::ExactOracle(const std::vector<Table>& parts) {
  if (parts.empty()) return;
  const fedaqp::Schema& schema = parts[0].schema();
  num_dims_ = schema.num_dims();
  for (size_t d = 0; d < num_dims_; ++d) {
    domains_.push_back(static_cast<size_t>(schema.dim(d).domain_size));
  }
  for (size_t a = 0; a < num_dims_; ++a) {
    for (size_t b = a + 1; b < num_dims_; ++b) {
      Plane p;
      p.a = a;
      p.b = b;
      p.na = domains_[a];
      p.nb = domains_[b];
      p.count.assign((p.na + 1) * (p.nb + 1), 0);
      p.measure.assign((p.na + 1) * (p.nb + 1), 0);
      planes_.push_back(std::move(p));
    }
  }
  for (const Table& t : parts) {
    for (const fedaqp::Row& row : t.rows()) {
      ++cells_;
      total_measure_ += row.measure;
      for (Plane& p : planes_) {
        const size_t at = (static_cast<size_t>(row.values[p.a]) + 1) * (p.nb + 1) +
                          static_cast<size_t>(row.values[p.b]) + 1;
        p.count[at] += 1;
        p.measure[at] += row.measure;
      }
    }
  }
  for (Plane& p : planes_) {
    const size_t w = p.nb + 1;
    for (size_t i = 1; i <= p.na; ++i) {
      for (size_t j = 1; j <= p.nb; ++j) {
        const size_t at = i * w + j;
        p.count[at] += p.count[at - w] + p.count[at - 1] - p.count[at - w - 1];
        p.measure[at] +=
            p.measure[at - w] + p.measure[at - 1] - p.measure[at - w - 1];
      }
    }
  }
}

const ExactOracle::Plane& ExactOracle::PlaneFor(size_t a, size_t b) const {
  // Planes are stored in (a, b) lexicographic order with a < b.
  size_t index = 0;
  for (size_t i = 0; i < a; ++i) index += num_dims_ - 1 - i;
  return planes_[index + (b - a - 1)];
}

int64_t ExactOracle::Total(Aggregation agg) const {
  return agg == Aggregation::kCount ? static_cast<int64_t>(cells_)
                                    : total_measure_;
}

int64_t ExactOracle::Answer(const RangeQuery& query) const {
  if (query.aggregation() == Aggregation::kSumSquares || num_dims_ < 2) {
    return -1;
  }
  const auto& ranges = query.ranges();
  if (ranges.empty()) return Total(query.aggregation());
  if (ranges.size() > 2) return -1;
  // Normalize to two [lo, hi] intervals on dimensions a < b; a 1-dim query
  // pairs its dimension with a full-domain partner.
  size_t a = ranges[0].dim_index;
  int64_t alo = ranges[0].lo, ahi = ranges[0].hi;
  size_t b = 0;
  int64_t blo = 0, bhi = 0;
  if (ranges.size() == 2) {
    b = ranges[1].dim_index;
    blo = ranges[1].lo;
    bhi = ranges[1].hi;
  } else {
    b = a == 0 ? 1 : 0;
    bhi = static_cast<int64_t>(domains_[b]) - 1;
  }
  if (a == b || a >= num_dims_ || b >= num_dims_) return -1;
  if (a > b) {
    std::swap(a, b);
    std::swap(alo, blo);
    std::swap(ahi, bhi);
  }
  const Plane& p = PlaneFor(a, b);
  alo = std::max<int64_t>(alo, 0);
  blo = std::max<int64_t>(blo, 0);
  ahi = std::min<int64_t>(ahi, static_cast<int64_t>(p.na) - 1);
  bhi = std::min<int64_t>(bhi, static_cast<int64_t>(p.nb) - 1);
  if (alo > ahi || blo > bhi) return 0;
  const std::vector<int64_t>& s =
      query.aggregation() == Aggregation::kCount ? p.count : p.measure;
  const size_t w = p.nb + 1;
  auto at = [&](int64_t i, int64_t j) {
    return s[static_cast<size_t>(i) * w + static_cast<size_t>(j)];
  };
  return at(ahi + 1, bhi + 1) - at(alo, bhi + 1) - at(ahi + 1, blo) +
         at(alo, blo);
}

// ----------------------------------------------------------------- pools --

std::string QueryKey(const RangeQuery& query) {
  std::vector<fedaqp::DimRange> ranges = query.ranges();
  std::sort(ranges.begin(), ranges.end(),
            [](const fedaqp::DimRange& x, const fedaqp::DimRange& y) {
              return x.dim_index < y.dim_index;
            });
  std::string key = std::to_string(static_cast<int>(query.aggregation()));
  for (const fedaqp::DimRange& r : ranges) {
    key += ";" + std::to_string(r.dim_index) + ":" + std::to_string(r.lo) +
           "-" + std::to_string(r.hi);
  }
  return key;
}

namespace {

bool Admitted(fedaqp::Federation* fed, const ExactOracle& oracle,
              const PoolSpec& spec, const RangeQuery& q) {
  if (!spec.dims.empty()) {
    for (const fedaqp::DimRange& r : q.ranges()) {
      if (std::find(spec.dims.begin(), spec.dims.end(), r.dim_index) ==
          spec.dims.end()) {
        return false;
      }
    }
  }
  // The answer floor first: it is an O(1) oracle lookup, the cover test
  // below walks every provider's metadata.
  const int64_t answer = oracle.Answer(q);
  if (answer < 0 ||
      static_cast<double>(answer) < 0.01 * static_cast<double>(
                                               oracle.Total(q.aggregation()))) {
    return false;
  }
  for (fedaqp::DataProvider* p : fed->provider_ptrs()) {
    if (!p->ShouldApproximate(p->Cover(q, nullptr))) return false;
  }
  return true;
}

}  // namespace

Result<std::vector<RangeQuery>> AdmittedPool(
    fedaqp::Federation* fed, const ExactOracle& oracle, const PoolSpec& spec,
    size_t count, size_t threads, std::unordered_set<std::string>* seen) {
  threads = std::max<size_t>(1, threads);
  std::vector<RangeQuery> out;
  out.reserve(count);
  for (uint64_t round = 0; out.size() < count; ++round) {
    if (round == 16) {
      return fedaqp::Status::FailedPrecondition(
          "perfbench: query space too small for a pool of " +
          std::to_string(count) + " distinct queries");
    }
    const size_t need = count - out.size();
    const size_t chunk = (need + threads - 1) / threads + 8;
    std::vector<Result<std::vector<RangeQuery>>> parts(
        threads, fedaqp::Status::Internal("unset"));
    std::vector<std::thread> workers;
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        fedaqp::QueryGenOptions qopts;
        qopts.num_dims = spec.num_dims;
        qopts.aggregation = spec.agg;
        qopts.min_width_fraction = 0.3;
        qopts.max_width_fraction = 0.8;
        qopts.seed = fedaqp::MixSeeds(spec.seed, round * threads + t);
        fedaqp::RandomQueryGenerator gen(fed->schema(), qopts);
        parts[t] = gen.Workload(chunk, [&](const RangeQuery& q) {
          return Admitted(fed, oracle, spec, q);
        });
      });
    }
    for (std::thread& w : workers) w.join();
    for (auto& part : parts) {
      if (!part.ok()) return part.status();
      for (RangeQuery& q : part.value()) {
        if (out.size() == count) break;
        if (seen->insert(QueryKey(q)).second) out.push_back(std::move(q));
      }
    }
  }
  return out;
}

}  // namespace perfbench
