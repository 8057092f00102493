#ifndef FEDAQP_CORE_FEDERATION_H_
#define FEDAQP_CORE_FEDERATION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/endpoint.h"
#include "exec/federation_client.h"
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
///   fed->client().ledger().Spent(Federation::kAnalyst);  // what it cost
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
  /// network model, and the grant of the federation's one analyst).
  FederationConfig protocol;
  /// Master seed; providers and aggregator derive their streams from it.
  uint64_t seed = 1234;
};

class Federation {
 public:
  /// The one analyst the federation's client serves. Query and
  /// QueryBatch charge its grant, (protocol.total_xi, protocol.total_psi).
  static constexpr const char* kAnalyst = "analyst";

  /// Builds one provider per partition (offline phase: clustering +
  /// Algorithm-1 metadata) and wires the online protocol around them: a
  /// FederationClient over the providers, granting kAnalyst the
  /// protocol's (total_xi, total_psi).
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

  /// Executes the private approximate protocol: submits `query` as
  /// kAnalyst to client() and waits. Charges kAnalyst's ledger.
  Result<QueryResponse> Query(const RangeQuery& query);

  /// Submits `queries` as kAnalyst in one SubmitAll and waits for each:
  /// the client admits (validates, then charges) them in order, and the
  /// admitted set runs with provider work pipelined across the pool
  /// (FederationOptions::protocol.num_threads). Outcomes align with
  /// `queries`.
  std::vector<BatchOutcome> QueryBatch(const std::vector<RangeQuery>& queries);

  /// Plain-text exact execution through client() (baseline; no privacy
  /// spent).
  Result<QueryResponse> QueryExact(const RangeQuery& query);

  /// The session layer every query above goes through. Its ledger() and
  /// audit_log() show what kAnalyst spent; Submit it more analysts'
  /// queries after RegisterAnalyst.
  FederationClient& client() { return *client_; }

  /// Message-interface views of this federation's providers, for wiring
  /// another FederationClient (or a bare orchestrator) over the same
  /// offline state. The federation must outlive the returned endpoints.
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

  size_t num_providers() const { return providers_.size(); }
  DataProvider* provider(size_t i) { return providers_[i].get(); }
  /// Raw pointers to all providers (for baselines and the attack harness).
  std::vector<DataProvider*> provider_ptrs();

  /// Total metadata footprint across providers in bytes (paper §6.1).
  size_t MetadataBytes() const;

 private:
  explicit Federation(std::vector<std::unique_ptr<DataProvider>> providers)
      : providers_(std::move(providers)) {}

  /// Wires the online protocol (a one-analyst client whose orchestrator
  /// is seeded with `protocol_seed`) around built providers.
  static Result<std::unique_ptr<Federation>> Assemble(
      std::vector<std::unique_ptr<DataProvider>> providers,
      const FederationConfig& protocol, uint64_t protocol_seed);

  std::vector<std::unique_ptr<DataProvider>> providers_;
  /// Declared after providers_, so it is destroyed first: its endpoints
  /// point into them.
  std::unique_ptr<FederationClient> client_;
};

}  // namespace fedaqp

#endif  // FEDAQP_CORE_FEDERATION_H_
