// The shared test fixture: synthetic providers built from rows and seeds,
// the protocol config the suites share, loopback servers with the remote
// endpoints dialled to them, a forwarding ProviderEndpoint base for test
// decorators, the recording decorator that digests every message a
// federation exchanges, and the seeded byte mutation every fuzz loop uses.

#ifndef FEDAQP_TESTS_FIXTURE_H_
#define FEDAQP_TESTS_FIXTURE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/endpoint.h"
#include "federation/orchestrator.h"
#include "federation/provider.h"
#include "rpc/remote_endpoint.h"
#include "rpc/server.h"
#include "rpc/wire.h"
#include "workload/datagen.h"

namespace fedaqp {

/// A provider over a synthetic two-dimensional count tensor (a: 200
/// values, normal 0.5; b: 100 values, Zipf 1.2) in shuffled clusters of
/// `capacity` rows. `seed` seeds the data and the shuffle; the provider's
/// own randomness is seeded `seed * 3 + 1`.
inline std::unique_ptr<DataProvider> MakeProvider(size_t rows, uint64_t seed,
                                                  size_t capacity = 128,
                                                  size_t n_min = 4,
                                                  size_t scan_shards = 1) {
  SyntheticConfig cfg;
  cfg.rows = rows;
  cfg.seed = seed;
  cfg.dims = {{"a", 200, DistributionKind::kNormal, 0.5},
              {"b", 100, DistributionKind::kZipf, 1.2}};
  Result<Table> t = GenerateSynthetic(cfg);
  EXPECT_TRUE(t.ok());
  Result<Table> tensor = t->BuildCountTensor({0, 1});
  EXPECT_TRUE(tensor.ok());
  DataProvider::Options popts;
  popts.storage.cluster_capacity = capacity;
  popts.storage.layout = ClusterLayout::kShuffled;
  popts.storage.shuffle_seed = seed;
  popts.storage.num_scan_shards = scan_shards;
  popts.n_min = n_min;
  popts.seed = seed * 3 + 1;
  Result<std::unique_ptr<DataProvider>> p =
      DataProvider::Create(*tensor, popts);
  EXPECT_TRUE(p.ok());
  return std::move(p).value();
}

/// `count` providers of `rows` rows; provider i is seeded
/// `first_seed + i * seed_step`.
inline std::vector<std::unique_ptr<DataProvider>> MakeProviders(
    size_t count, size_t rows, uint64_t first_seed, uint64_t seed_step) {
  std::vector<std::unique_ptr<DataProvider>> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(MakeProvider(rows, first_seed + i * seed_step));
  }
  return out;
}

inline std::vector<DataProvider*> Ptrs(
    const std::vector<std::unique_ptr<DataProvider>>& providers) {
  std::vector<DataProvider*> out;
  for (const auto& p : providers) out.push_back(p.get());
  return out;
}

/// The protocol config the suites share: (eps 1, delta 1e-3) per query
/// and sampling rate 0.3, under `seed`, `threads` and `scheduler`.
inline FederationConfig TestConfig(
    uint64_t seed, size_t threads = 1,
    BatchScheduler scheduler = BatchScheduler::kTaskGraph) {
  FederationConfig config;
  config.per_query_budget = {1.0, 1e-3};
  config.sampling_rate = 0.3;
  config.seed = seed;
  config.num_threads = threads;
  config.scheduler = scheduler;
  return config;
}

/// One RpcProviderServer per provider on 127.0.0.1, in provider order.
class LoopbackServers {
 public:
  explicit LoopbackServers(const std::vector<DataProvider*>& providers,
                           const RpcServerOptions& options = {}) {
    for (DataProvider* p : providers) {
      Result<std::unique_ptr<RpcProviderServer>> server =
          RpcProviderServer::Start(p, options);
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      if (server.ok()) servers_.push_back(std::move(server).value());
    }
  }

  /// Fresh remote endpoints, one new connection per server.
  Result<std::vector<std::shared_ptr<ProviderEndpoint>>> Connect() const {
    std::vector<std::string> host_ports;
    for (const auto& s : servers_) {
      host_ports.push_back("127.0.0.1:" + std::to_string(s->port()));
    }
    return RemoteEndpoint::ConnectAll(host_ports);
  }

  std::unique_ptr<RpcProviderServer>& operator[](size_t i) {
    return servers_[i];
  }
  const std::vector<std::unique_ptr<RpcProviderServer>>& servers() const {
    return servers_;
  }

 private:
  std::vector<std::unique_ptr<RpcProviderServer>> servers_;
};

/// Forwards every call to `inner`, IssueAsync, max_concurrent_calls and
/// ConfigureScanSharding included, so a decorated remote endpoint still
/// coalesces and a decorated in-process one still shards. Test decorators
/// override the calls they watch or script.
class ForwardingEndpoint : public ProviderEndpoint {
 public:
  explicit ForwardingEndpoint(std::shared_ptr<ProviderEndpoint> inner)
      : inner_(std::move(inner)) {}

  const EndpointInfo& info() const override { return inner_->info(); }
  Result<CoverReply> Cover(const CoverRequest& r) override {
    return inner_->Cover(r);
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    return inner_->PublishSummary(r);
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    return inner_->Approximate(r);
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& r) override {
    return inner_->ExactAnswer(r);
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& r) override {
    return inner_->ExactFullScan(r);
  }
  void EndQuery(uint64_t id) override { inner_->EndQuery(id); }
  void IssueAsync(std::function<void()> call) override {
    inner_->IssueAsync(std::move(call));
  }
  size_t max_concurrent_calls() const override {
    return inner_->max_concurrent_calls();
  }
  void ConfigureScanSharding(ThreadPool* pool, size_t shards) override {
    inner_->ConfigureScanSharding(pool, shards);
  }

 protected:
  std::shared_ptr<ProviderEndpoint> inner_;
};

/// The messages one federation exchanged: a digest of each call's wire
/// bytes (request, then reply or error), keyed by (session, provider,
/// method, round). Calls of one key add their digests, so sessionless
/// scans that share a key combine independently of their order, and the
/// whole record depends on what was said, never on when.
class Transcript {
 public:
  using Key = std::tuple<uint64_t, size_t, RpcMethod, uint32_t>;

  void Add(const Key& key, uint64_t digest) {
    std::lock_guard<std::mutex> lock(mutex_);
    calls_[key] += digest;
  }

  /// One number for the whole record, folded in key order.
  uint64_t Digest() const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t h = calls_.size();
    for (const auto& [key, digest] : calls_) {
      h = MixSeeds(h, std::get<0>(key));
      h = MixSeeds(h, std::get<1>(key));
      h = MixSeeds(h, static_cast<uint64_t>(std::get<2>(key)));
      h = MixSeeds(h, std::get<3>(key));
      h = MixSeeds(h, digest);
    }
    return h;
  }

  /// Keys recorded for `method`.
  size_t Count(RpcMethod method) const {
    std::lock_guard<std::mutex> lock(mutex_);
    size_t n = 0;
    for (const auto& entry : calls_) n += std::get<2>(entry.first) == method;
    return n;
  }

 private:
  mutable std::mutex mutex_;
  std::map<Key, uint64_t> calls_;
};

/// Records every call through it into a shared Transcript as provider
/// `provider`. Each reply's ProviderWorkStats::compute_seconds, the one
/// wall-time field on the wire, is zeroed before encoding.
class RecordingEndpoint : public ForwardingEndpoint {
 public:
  RecordingEndpoint(std::shared_ptr<ProviderEndpoint> inner, size_t provider,
                    std::shared_ptr<Transcript> transcript)
      : ForwardingEndpoint(std::move(inner)),
        provider_(provider),
        transcript_(std::move(transcript)) {}

  Result<CoverReply> Cover(const CoverRequest& r) override {
    return Record(kCoverRpc, r, r.query_id, 0, inner_->Cover(r));
  }
  Result<SummaryReply> PublishSummary(const SummaryRequest& r) override {
    return Record(kPublishSummaryRpc, r, r.query_id, 0,
                  inner_->PublishSummary(r));
  }
  Result<EstimateReply> Approximate(const ApproximateRequest& r) override {
    return Record(kApproximateRpc, r, r.query_id, r.round,
                  inner_->Approximate(r));
  }
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& r) override {
    return Record(kExactAnswerRpc, r, r.query_id, 0, inner_->ExactAnswer(r));
  }
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& r) override {
    return Record(kExactFullScanRpc, r, 0, 0, inner_->ExactFullScan(r));
  }
  void EndQuery(uint64_t id) override {
    inner_->EndQuery(id);
    Record(kEndQueryRpc, EndQueryRequest{id}, id, 0, Result<Empty>(Empty{}));
  }

 private:
  /// Zeroes compute_seconds wherever a message's field list nests a
  /// ProviderWorkStats.
  struct ZeroWallTime {
    template <typename T>
    void operator()(const char*, T& v) {
      if constexpr (std::is_same_v<T, ProviderWorkStats>) {
        v.compute_seconds = 0.0;
      } else if constexpr (!kIsWireLeaf<T>) {
        Fields(*this, v);
      }
    }
  };

  template <typename Row, typename Reply>
  Result<Reply> Record(const Row& row, const typename Row::Request& request,
                       uint64_t session, uint32_t round, Result<Reply> reply) {
    ByteWriter w;
    Encode(request, &w);
    if (reply.ok()) {
      Reply timeless = *reply;
      ZeroWallTime zero;
      zero("", timeless);
      Encode(timeless, &w);
    } else {
      Encode(ErrorReply{reply.status()}, &w);
    }
    uint64_t h = w.size();
    for (uint8_t byte : w.bytes()) h = MixSeeds(h, byte);
    transcript_->Add({session, provider_, row.id, round}, h);
    return reply;
  }

  size_t provider_;
  std::shared_ptr<Transcript> transcript_;
};

/// One seeded mutation: flip a byte, append bytes, or both.
inline void Mutate(std::vector<uint8_t>* bytes, Rng* rng) {
  const uint64_t kind = rng->UniformU64(3);
  if (kind != 1 && !bytes->empty()) {
    (*bytes)[rng->UniformU64(bytes->size())] ^=
        static_cast<uint8_t>(1 + rng->UniformU64(255));
  }
  for (uint64_t n = kind == 0 ? 0 : 1 + rng->UniformU64(4); n > 0; --n) {
    bytes->push_back(static_cast<uint8_t>(rng->NextU64()));
  }
}

}  // namespace fedaqp

#endif  // FEDAQP_TESTS_FIXTURE_H_
