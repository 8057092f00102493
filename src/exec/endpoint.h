#ifndef FEDAQP_EXEC_ENDPOINT_H_
#define FEDAQP_EXEC_ENDPOINT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "common/result.h"
#include "federation/provider.h"
#include "storage/range_query.h"
#include "storage/schema.h"

namespace fedaqp {

class ThreadPool;

/// Static facts about one provider endpoint, exchanged once at federation
/// setup (the offline phase). The orchestrator validates the shared-S
/// requirement (Sec. 7) against these instead of reaching into provider
/// internals.
struct EndpointInfo {
  std::string name;
  /// The provider's public schema (must match across the federation).
  Schema schema;
  /// Cluster capacity S (must match across the federation).
  size_t cluster_capacity = 0;
  /// Approximation threshold N_min.
  size_t n_min = 0;
};

/// --- Request/response messages of the online protocol (Fig. 3). Each pair
/// is a self-contained value type so a remote transport can serialize it
/// verbatim; `query_id` names the per-query session an endpoint keeps
/// between the cover and estimate phases, so the covering set itself never
/// travels back and forth.

/// Step 1: identify the covering set C^Q.
struct CoverRequest {
  uint64_t query_id = 0;
  /// Coordinator-chosen session nonce (a function of the orchestrator's
  /// seed and the query id). The endpoint folds it into the session's
  /// noise stream, so two coordinators over the same provider draw
  /// distinct noise when their FederationConfig::seeds differ. With equal
  /// seeds (the default is 42 for every coordinator) equal query ids get
  /// equal nonces and replay one noise stream, which lets an analyst
  /// cancel the DP noise by differencing releases; no provider refuses a
  /// nonce it has seen (ROADMAP item 1).
  uint64_t session_nonce = 0;
  RangeQuery query;
};
struct CoverReply {
  /// Step 4 test, decided provider-side (N^Q >= N_min). The cover itself
  /// stays in the endpoint's session state, and N^Q is not sent: the
  /// protocol publishes it only Laplace-perturbed, in the summary (Eq. 5).
  bool should_approximate = false;
  ProviderWorkStats work;
};

/// Step 2: publish the Laplace-perturbed (~Avg(R), ~N^Q) pair.
struct SummaryRequest {
  uint64_t query_id = 0;
  double eps_allocation = 0.0;
};
struct SummaryReply {
  ProviderSummary summary;
};

/// Steps 5-6: sample, scan, estimate, (optionally) noise — round `round`
/// of `rounds`. A one-shot query is round 1 of 1. A progressive query
/// sends rounds 1..R in order on one session: round 1 draws the EM sample
/// of `sample_size` at eps_sampling, and round r releases the estimate
/// over the first r/R of those draws at (eps_estimate, delta), the
/// round's share of the estimate budget.
struct ApproximateRequest {
  uint64_t query_id = 0;
  size_t sample_size = 0;
  double eps_sampling = 0.0;
  double eps_estimate = 0.0;
  double delta = 0.0;
  bool add_noise = true;
  uint32_t round = 1;
  uint32_t rounds = 1;
};

/// Step 4 bypass: exact scan of the covering set.
struct ExactAnswerRequest {
  uint64_t query_id = 0;
  double eps_estimate = 0.0;
  bool add_noise = true;
};

/// Both estimate paths reply with the provider's local answer.
struct EstimateReply {
  LocalEstimate estimate;
};

/// Non-private full scan (the Speed-UP baseline); stateless, no session.
/// Deliberately carries no session nonce: the reply is a pure function of
/// the provider's store and draws no provider RNG, so the call is
/// idempotent — a coordinator may blindly retry it after a transport
/// error without skewing any later query's noise stream (pinned by
/// tests/rpc_loopback_test.cc). Every sessionful request, by contrast,
/// must NOT be auto-retried: replaying Cover re-keys the session stream.
struct ExactScanRequest {
  RangeQuery query;
};
struct ExactScanReply {
  double value = 0.0;
  ProviderWorkStats work;
};

/// One data provider seen from the coordinator, reduced to the protocol's
/// message exchanges. The in-process adapter wraps a DataProvider; the
/// RPC backend (rpc/remote_endpoint.h) implements the same interface over
/// a wire.
///
/// Threading contract: implementations must be safe to call from any
/// thread, and the caller must order each *session's* calls (Cover before
/// PublishSummary before Approximate/ExactAnswer, once per round, before
/// EndQuery — the task-graph scheduler encodes this as dependency edges). Calls
/// belonging to different sessions may interleave arbitrarily: every
/// session's randomness is keyed purely by (provider seed, session
/// nonce), never by arrival order, so answers are bit-identical for every
/// schedule — the property the barrier-free scheduler rests on and that
/// tests/determinism_matrix_test.cc pins.
class ProviderEndpoint {
 public:
  virtual ~ProviderEndpoint() = default;

  virtual const EndpointInfo& info() const = 0;

  /// Protocol step 1. Opens the `query_id` session.
  virtual Result<CoverReply> Cover(const CoverRequest& request) = 0;

  /// Protocol step 2. Requires an open session.
  virtual Result<SummaryReply> PublishSummary(const SummaryRequest& request) = 0;

  /// Protocol steps 5-6. Requires an open session.
  virtual Result<EstimateReply> Approximate(const ApproximateRequest& request) = 0;

  /// Step 4 bypass. Requires an open session.
  virtual Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& request) = 0;

  /// Non-private baseline; does not touch session state.
  virtual Result<ExactScanReply> ExactFullScan(const ExactScanRequest& request) = 0;

  /// Releases the session opened by Cover. Idempotent.
  virtual void EndQuery(uint64_t query_id) = 0;

  /// Issue half of the scheduler's async issue/complete pair: runs `call`
  /// — a closure performing one or more blocking calls on this endpoint
  /// and then signalling completion to its scheduler — on the endpoint's
  /// dispatch context. The default runs it inline on the calling thread,
  /// which is right for in-process endpoints (their calls are real local
  /// compute, so occupying the worker IS the work). Transport-backed
  /// endpoints override this to park `call` on a per-connection dispatch
  /// thread, so a scheduler worker never blocks on a slow network
  /// round-trip and one slow provider cannot stall the task graph.
  /// Implementations must run every issued closure exactly once, even
  /// during shutdown (the closure carries the scheduler's completion
  /// signal; dropping it would hang the graph). Relative order across
  /// concurrently issued closures is unspecified — the scheduler's
  /// dependency edges already order each session's calls, and the
  /// threading contract above makes cross-session interleaving harmless —
  /// which is what lets a transport endpoint run several issued calls at
  /// once and coalesce them into one batched wire exchange.
  ///
  /// Cancellation contract: the scheduler only issues *live* work here.
  /// A node whose cancellation makes its stage claim — and therefore its
  /// whole body — a guaranteed no-op bypasses this path entirely (the
  /// stub runs inline on a graph worker), so cancelled queries never
  /// queue no-op closures behind live traffic on a transport dispatch
  /// thread. A cancelled node whose stage a peer already claimed still
  /// does real work and is issued here normally.
  virtual void IssueAsync(std::function<void()> call) { call(); }

  /// How many issued calls this endpoint can usefully have in flight at
  /// once — the task-graph scheduler admits at most this many of the
  /// endpoint's nodes concurrently (exec/task_graph.cc's admission gate).
  /// The default 1 is right for mutex-serialized endpoints: admitting
  /// more would only park scheduler workers on that mutex. Transport
  /// endpoints whose dispatch coalesces concurrent requests into batched
  /// wire exchanges (rpc/remote_endpoint.h) report a larger window.
  virtual size_t max_concurrent_calls() const { return 1; }

  /// Deployment hint for in-process endpoints: shard provider-side scans
  /// `num_scan_shards` ways (0 keeps the provider's own configured count)
  /// and run the shard work on `scan_pool` (nullable — shards then run
  /// inline), so provider scans and cross-provider orchestration share one
  /// bounded pool instead of oversubscribing the host. Default no-op: a
  /// remote backend owns its workers and ignores the coordinator's pool.
  /// The pool must outlive every subsequent call on this endpoint; the
  /// owning orchestrator re-configures with a null pool on destruction.
  /// The binding is last-writer-wins — sharing one endpoint between
  /// concurrently live orchestrators is unsupported for scan sharding
  /// (the later orchestrator's pool/shard count wins, and whichever dies
  /// first detaches the binding, degrading the survivor to inline shards
  /// — answers are unaffected either way).
  virtual void ConfigureScanSharding(ThreadPool* scan_pool,
                                     size_t num_scan_shards) {
    (void)scan_pool;
    (void)num_scan_shards;
  }
};

}  // namespace fedaqp

#endif  // FEDAQP_EXEC_ENDPOINT_H_
