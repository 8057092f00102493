#include "core/federation.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "common/rng.h"
#include "exec/in_process_endpoint.h"
#include "exec/thread_pool.h"
#include "rpc/server.h"

namespace fedaqp {

namespace {

using ProviderBuilder =
    std::function<Result<std::unique_ptr<DataProvider>>(size_t)>;

/// The offline phase of every provider at once: build(0) .. build(n - 1)
/// run on a scoped pool of min(n, cores) threads. Each build owns its
/// inputs (seeds are drawn before this is called), so the providers are
/// the ones a sequential loop would build. On failure, returns the error
/// of the lowest failing index — the one a sequential loop stops at.
Result<std::vector<std::unique_ptr<DataProvider>>> BuildProviders(
    size_t n, const ProviderBuilder& build) {
  std::vector<std::unique_ptr<DataProvider>> providers(n);
  std::vector<Status> failures(n);
  {
    const size_t cores =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    ThreadPool pool(std::min(n, cores));
    ParallelFor(&pool, n, [&](size_t i) {
      Result<std::unique_ptr<DataProvider>> built = build(i);
      if (built.ok()) {
        providers[i] = std::move(built).value();
      } else {
        failures[i] = built.status();
      }
    });
  }
  for (const Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  return providers;
}

}  // namespace

Result<std::unique_ptr<Federation>> Federation::Open(
    std::vector<Table> partitions, const FederationOptions& options) {
  if (partitions.empty()) {
    return Status::InvalidArgument("federation: need at least one partition");
  }
  Rng seeder(options.seed);
  std::vector<DataProvider::Options> popts(partitions.size());
  for (size_t i = 0; i < partitions.size(); ++i) {
    popts[i].storage.cluster_capacity = options.cluster_capacity;
    popts[i].storage.layout = options.layout;
    popts[i].storage.shuffle_seed = seeder.NextU64();
    // The federation-level sharding knob becomes each provider's default;
    // every consumer (ShardedScanExecutor's constructor) clamps 0 to 1,
    // and the orchestrator then shares its pool down.
    popts[i].storage.num_scan_shards = options.protocol.num_scan_shards;
    popts[i].n_min = options.n_min;
    popts[i].sum_sensitivity_bound = options.sum_sensitivity_bound;
    popts[i].seed = seeder.NextU64();
    popts[i].name = "provider-" + std::to_string(i);
  }
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<DataProvider>> providers,
      BuildProviders(partitions.size(), [&](size_t i) {
        return DataProvider::Create(partitions[i], popts[i]);
      }));
  return Assemble(std::move(providers), options.protocol, seeder.NextU64());
}

Result<std::unique_ptr<Federation>> Federation::OpenMapped(
    const std::vector<std::string>& store_paths,
    const FederationOptions& options) {
  if (store_paths.empty()) {
    return Status::InvalidArgument("federation: need at least one store file");
  }
  Rng seeder(options.seed);
  std::vector<DataProvider::Options> popts(store_paths.size());
  for (size_t i = 0; i < store_paths.size(); ++i) {
    popts[i].n_min = options.n_min;
    popts[i].sum_sensitivity_bound = options.sum_sensitivity_bound;
    popts[i].seed = seeder.NextU64();
    popts[i].name = "provider-" + std::to_string(i);
  }
  // Store 0's schema is the reference every other store is checked
  // against, so it is opened (a map and a directory parse) up front.
  FEDAQP_ASSIGN_OR_RETURN(
      ClusterStore first,
      ClusterStore::OpenMapped(store_paths[0],
                               options.protocol.num_scan_shards));
  const Schema schema = first.schema();
  FEDAQP_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<DataProvider>> providers,
      BuildProviders(
          store_paths.size(),
          [&](size_t i) -> Result<std::unique_ptr<DataProvider>> {
            if (i == 0) {
              return DataProvider::CreateFromStore(std::move(first), popts[0]);
            }
            FEDAQP_ASSIGN_OR_RETURN(
                ClusterStore store,
                ClusterStore::OpenMapped(store_paths[i],
                                         options.protocol.num_scan_shards));
            if (!(store.schema() == schema)) {
              return Status::InvalidArgument(
                  "federation: mapped store '" + store_paths[i] +
                  "' schema differs from '" + store_paths[0] + "'");
            }
            return DataProvider::CreateFromStore(std::move(store), popts[i]);
          }));
  return Assemble(std::move(providers), options.protocol, seeder.NextU64());
}

Result<std::unique_ptr<Federation>> Federation::Assemble(
    std::vector<std::unique_ptr<DataProvider>> providers,
    const FederationConfig& protocol, uint64_t protocol_seed) {
  FederationClient::Options options;
  options.protocol = protocol;
  options.protocol.seed = protocol_seed;
  options.analysts = {
      AnalystGrant{kAnalyst, protocol.total_xi, protocol.total_psi}};
  std::unique_ptr<Federation> fed(new Federation(std::move(providers)));
  FEDAQP_ASSIGN_OR_RETURN(
      fed->client_, FederationClient::Create(fed->provider_ptrs(), options));
  return fed;
}

Result<QueryResponse> Federation::Query(const RangeQuery& query) {
  return client_->Submit(QuerySpec{kAnalyst, query}).Wait();
}

std::vector<BatchOutcome> Federation::QueryBatch(
    const std::vector<RangeQuery>& queries) {
  std::vector<QuerySpec> specs;
  specs.reserve(queries.size());
  for (const RangeQuery& query : queries) specs.push_back({kAnalyst, query});
  std::vector<QueryTicket> tickets = client_->SubmitAll(std::move(specs));
  std::vector<BatchOutcome> outcomes(tickets.size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    Result<QueryResponse> response = tickets[i].Wait();
    if (response.ok()) {
      outcomes[i].response = std::move(response).value();
    } else {
      outcomes[i].status = response.status();
    }
  }
  return outcomes;
}

std::vector<std::shared_ptr<ProviderEndpoint>> Federation::MakeEndpoints() {
  // Providers are owned and non-null by construction.
  return MakeInProcessEndpoints(provider_ptrs()).value();
}

Result<std::vector<std::unique_ptr<RpcProviderServer>>> Federation::Serve(
    uint16_t base_port) {
  if (base_port != 0 &&
      static_cast<size_t>(base_port) + providers_.size() - 1 > 65535) {
    return Status::InvalidArgument(
        "federation: port range " + std::to_string(base_port) + "+" +
        std::to_string(providers_.size()) + " providers exceeds 65535");
  }
  std::vector<std::unique_ptr<RpcProviderServer>> servers;
  servers.reserve(providers_.size());
  for (size_t i = 0; i < providers_.size(); ++i) {
    RpcServerOptions opts;
    opts.port =
        base_port == 0 ? 0 : static_cast<uint16_t>(base_port + i);
    FEDAQP_ASSIGN_OR_RETURN(std::unique_ptr<RpcProviderServer> server,
                            RpcProviderServer::Start(providers_[i].get(), opts));
    servers.push_back(std::move(server));
  }
  return servers;
}

Result<QueryResponse> Federation::QueryExact(const RangeQuery& query) {
  return client_->Submit(QuerySpec{"", query, QueryKind::kExact}).Wait();
}

const Schema& Federation::schema() const {
  return providers_[0]->store().schema();
}

std::vector<DataProvider*> Federation::provider_ptrs() {
  std::vector<DataProvider*> out;
  out.reserve(providers_.size());
  for (auto& p : providers_) out.push_back(p.get());
  return out;
}

size_t Federation::MetadataBytes() const {
  size_t total = 0;
  for (const auto& p : providers_) total += p->metadata().TotalSizeBytes();
  return total;
}

}  // namespace fedaqp
