#ifndef FEDAQP_CORE_FEDERATION_H_
#define FEDAQP_CORE_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/endpoint.h"
#include "federation/orchestrator.h"
#include "federation/provider.h"
#include "storage/table.h"

namespace fedaqp {

class RpcProviderServer;

/// The library's primary entry point: a private federation over
/// horizontally partitioned tables answering COUNT/SUM range queries with
/// the paper's end-to-end-DP approximate protocol.
///
/// Typical usage (see examples/quickstart.cc):
///
///   FederationOptions opts;
///   opts.cluster_capacity = 512;
///   auto fed = Federation::Open(std::move(partitions), opts);
///   auto q = RangeQueryBuilder(Aggregation::kCount).Where(0, 20, 40).Build();
///   auto resp = fed->Query(q);          // private approximate answer
///   auto truth = fed->QueryExact(q);    // non-private baseline
class Federation;

/// Options for Federation::Open.
struct FederationOptions {
  /// Shared cluster capacity S (all providers must use the same value).
  size_t cluster_capacity = 1024;
  /// Cluster layout used when ingesting partitions.
  ClusterLayout layout = ClusterLayout::kSequential;
  /// Per-provider approximation threshold N_min.
  size_t n_min = 4;
  /// Public bound on one individual's SUM contribution (exact-path
  /// sensitivity).
  double sum_sensitivity_bound = 1.0;
  /// Protocol/runtime configuration (budget, split, sampling rate, mode,
  /// network model, analyst grant).
  FederationConfig protocol;
  /// Master seed; providers and aggregator derive their streams from it.
  uint64_t seed = 1234;
};

class Federation {
 public:
  /// Builds one provider per partition (offline phase: clustering +
  /// Algorithm-1 metadata) and wires the online protocol around them.
  /// The providers build in parallel, on up to one thread per core. Every
  /// seed is drawn from `options.seed` first, so the result is
  /// bit-identical to building them one after another, and a failure
  /// reports the lowest failing partition.
  static Result<std::unique_ptr<Federation>> Open(
      std::vector<Table> partitions, const FederationOptions& options);

  /// Opens one provider per compressed mapped store file (see
  /// ClusterStore::SaveMapped): clusters stay on disk and decode lazily
  /// per scan, so the offline clustering cost — and the resident copy of
  /// the data — is skipped. All stores must share a schema, and
  /// `options.cluster_capacity`/`layout` are ignored in favor of what each
  /// file records. Providers build in parallel as in Open, and a failure
  /// (an open error or a schema mismatch) reports the lowest failing path.
  static Result<std::unique_ptr<Federation>> OpenMapped(
      const std::vector<std::string>& store_paths,
      const FederationOptions& options);

  /// Executes the private approximate protocol; consumes privacy budget.
  Result<QueryResponse> Query(const RangeQuery& query);

  /// Executes `queries` as one batch: each is admitted (validated, then
  /// charged) in order against the shared accountant, and the admitted set
  /// runs with provider work pipelined across the orchestrator's pool
  /// (FederationOptions::protocol.num_threads). Outcomes align with
  /// `queries`. For per-analyst grants, build a FederationClient over
  /// MakeEndpoints() instead.
  std::vector<BatchOutcome> QueryBatch(const std::vector<RangeQuery>& queries);

  /// Plain-text exact execution (baseline; no privacy spent).
  Result<QueryResponse> QueryExact(const RangeQuery& query);

  /// Message-interface views of this federation's providers, for wiring a
  /// FederationClient (or a custom orchestrator) over the same offline
  /// state. The federation must outlive the returned endpoints.
  std::vector<std::shared_ptr<ProviderEndpoint>> MakeEndpoints();

  /// Serves each provider over the wire protocol on base_port,
  /// base_port + 1, ... (base_port 0 picks an ephemeral port per
  /// provider; read the actual ones back from the servers). A remote
  /// coordinator reaches the same offline state via
  /// RemoteEndpoint::ConnectAll. The federation must outlive the servers;
  /// stop (or destroy) them before it goes away.
  Result<std::vector<std::unique_ptr<RpcProviderServer>>> Serve(
      uint16_t base_port);

  /// The public schema shared by every provider.
  const Schema& schema() const;

  /// Analyst budget status.
  const PrivacyAccountant& accountant() const;

  size_t num_providers() const { return providers_.size(); }
  DataProvider* provider(size_t i) { return providers_[i].get(); }
  /// Raw pointers to all providers (for baselines and the attack harness).
  std::vector<DataProvider*> provider_ptrs();

  /// Total metadata footprint across providers in bytes (paper §6.1).
  size_t MetadataBytes() const;

 private:
  Federation(std::vector<std::unique_ptr<DataProvider>> providers,
             QueryOrchestrator orchestrator)
      : providers_(std::move(providers)),
        orchestrator_(std::move(orchestrator)) {}

  /// Wires the online protocol (an orchestrator seeded with
  /// `protocol_seed`) around built providers.
  static Result<std::unique_ptr<Federation>> Assemble(
      std::vector<std::unique_ptr<DataProvider>> providers,
      FederationConfig protocol, uint64_t protocol_seed);

  std::vector<std::unique_ptr<DataProvider>> providers_;
  QueryOrchestrator orchestrator_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CORE_FEDERATION_H_
