#ifndef FEDAQP_EXEC_IN_PROCESS_ENDPOINT_H_
#define FEDAQP_EXEC_IN_PROCESS_ENDPOINT_H_

#include <mutex>
#include <unordered_map>

#include "exec/endpoint.h"
#include "storage/sharded_scan_executor.h"

namespace fedaqp {

/// ProviderEndpoint adapter over an in-process DataProvider. A mutex
/// serializes every call: the underlying provider mutates its private RNG
/// stream and is not itself thread-safe, while endpoints may be shared
/// between an orchestrator and a FederationClient running on a pool.
class InProcessEndpoint : public ProviderEndpoint {
 public:
  /// Wraps `provider` (not owned; must outlive the endpoint).
  explicit InProcessEndpoint(DataProvider* provider);

  const EndpointInfo& info() const override { return info_; }

  Result<CoverReply> Cover(const CoverRequest& request) override;
  Result<SummaryReply> PublishSummary(const SummaryRequest& request) override;
  Result<EstimateReply> Approximate(const ApproximateRequest& request) override;
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& request) override;
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& request) override;
  void EndQuery(uint64_t query_id) override;

  /// Rebinds this endpoint's scan executor: the provider's scans fan out
  /// `num_scan_shards` ways (0 = keep the current count, which starts as
  /// the provider's configured count) onto `scan_pool`. Safe to call
  /// between queries; serialized with the phase calls by the endpoint
  /// mutex. Must stay callable after the provider is destroyed — the
  /// owning orchestrator detaches its pool through here at teardown.
  void ConfigureScanSharding(ThreadPool* scan_pool,
                             size_t num_scan_shards) override;

  DataProvider* provider() { return provider_; }
  const ShardedScanExecutor& scan_executor() const { return scan_exec_; }

  /// Sessions currently open (Cover'd but not EndQuery'd). Diagnostic for
  /// the RPC server's session-lifecycle accounting and its tests.
  size_t num_open_sessions() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
  }

 private:
  /// Per-query session kept between the cover and estimate phases. The
  /// session RNG is a pure function of (provider seed, session nonce), so
  /// the noise a query receives does not depend on what other queries the
  /// provider served in between — the property that makes batched and
  /// pooled execution bit-identical to one-at-a-time execution.
  struct Session {
    RangeQuery query;
    CoverInfo cover;
    Rng rng;
    /// The published ~N^Q, rounded and clamped at 0 as the allocation
    /// solver reads it: no allocation asks for more draws (0 before
    /// PublishSummary).
    double published_n_q = 0.0;
    /// The approximate path's sample and scanned values, across rounds.
    SampleDraw draw;
  };

  DataProvider* provider_;
  EndpointInfo info_;
  /// Scan fan-out for this endpoint's provider calls; defaults to the
  /// provider's own shard count with no pool (inline execution).
  ShardedScanExecutor scan_exec_;
  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, Session> sessions_;
};

/// Wraps each provider in an InProcessEndpoint (providers must be
/// non-null and outlive the endpoints). The one place the in-process
/// wrap loop lives — orchestrator, engine, and federation all route
/// through it.
Result<std::vector<std::shared_ptr<ProviderEndpoint>>> MakeInProcessEndpoints(
    const std::vector<DataProvider*>& providers);

}  // namespace fedaqp

#endif  // FEDAQP_EXEC_IN_PROCESS_ENDPOINT_H_
