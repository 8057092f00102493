#ifndef FEDAQP_RPC_REMOTE_ENDPOINT_H_
#define FEDAQP_RPC_REMOTE_ENDPOINT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/endpoint.h"
#include "exec/thread_pool.h"
#include "rpc/transport.h"

namespace fedaqp {

/// ProviderEndpoint client over one framed TCP connection to an
/// RpcProviderServer. Connect() performs the kInfo handshake, so info()
/// is available immediately and the orchestrator's shared-S/schema
/// validation works unchanged over the wire.
///
/// Doorbell batching: calls that arrive while the wire is busy do not
/// queue up for their own round-trips — each caller parks its encoded
/// request in a slot list and rings the doorbell (tries to take the wire
/// mutex). Whoever holds the wire becomes the combiner: it drains every
/// parked slot, sends all of them as ONE kBatch frame (complete standard
/// frames concatenated in the payload), reads the single kBatch reply,
/// and distributes the sub-replies back to the parked callers. A slot
/// whose combiner already served it returns without ever touching the
/// socket. A lone call (nothing else parked) goes out as a plain frame,
/// byte-identical to the unbatched protocol — so batching only spends
/// header bytes when it actually coalesces, and a strictly sequential
/// caller's wire traffic is unchanged.
///
/// Byte accounting under coalescing: the per-message protocol bytes the
/// coordinator charges to SimNetwork are unchanged (they are a pure
/// function of each message, so charges stay bit-identical whether or not
/// batching happened to occur). The only real bytes batching adds is one
/// outer frame header per batched send and one per batched reply;
/// batch_overhead_bytes() reports exactly those, so
///   bytes_moved == protocol_charged + batch_overhead_bytes
/// holds to the byte (pinned by tests/determinism_matrix_test.cc and
/// tests/rpc_batch_test.cc).
///
/// After a transport error the connection is poisoned: sessionful calls
/// fail with FailedPrecondition instead of desynchronizing the frame
/// stream (replaying Cover would re-key a session's noise stream — never
/// auto-retried). The stateless `ExactFullScan` is the one exception: it
/// is documented idempotent (no session, no provider RNG), so a poisoned
/// or mid-call-broken endpoint performs ONE automatic reconnect — with a
/// bounded backoff that doubles per consecutive reconnect failure — and
/// retries the scan once; if that also fails, the transport Status is
/// surfaced to the caller. A successful reconnect heals the endpoint for
/// sessionful traffic too (fresh sessions only). When a batched exchange
/// fails in transport, every coalesced call in it reports the failure.
///
/// IssueAsync (the task-graph scheduler's issue/complete pair) runs the
/// issued closures on a small per-connection dispatch pool, started
/// lazily on first use: a scheduler worker only enqueues the call and
/// moves on, so one slow provider or network path never stalls the
/// coordinator's task graph. The pool has max_concurrent_calls() workers
/// — the same number the scheduler's admission gate lets through — so
/// concurrently issued calls actually overlap and coalesce into batches
/// instead of trickling one by one. Closures run exactly once and are
/// drained (never dropped) at destruction; relative order across
/// concurrent closures is unspecified (see ProviderEndpoint::IssueAsync —
/// session order comes from the graph's dependency edges). Cancelled
/// queries never reach this path at all: the scheduler runs their nodes
/// inline, so a cancellation is never stuck in line behind live
/// round-trips, and a burst of cancelled work costs this connection
/// nothing.
///
/// ConfigureScanSharding keeps the base-class no-op on purpose: the
/// server owns its workers, a coordinator's pool cannot reach across the
/// wire.
class RemoteEndpoint : public ProviderEndpoint {
 public:
  static Result<std::shared_ptr<RemoteEndpoint>> Connect(
      const std::string& host, uint16_t port);

  /// Connects every "host:port" entry, in order.
  static Result<std::vector<std::shared_ptr<ProviderEndpoint>>> ConnectAll(
      const std::vector<std::string>& host_ports);

  const EndpointInfo& info() const override { return info_; }

  Result<CoverReply> Cover(const CoverRequest& request) override;
  Result<SummaryReply> PublishSummary(const SummaryRequest& request) override;
  Result<EstimateReply> Approximate(const ApproximateRequest& request) override;
  Result<EstimateReply> ExactAnswer(const ExactAnswerRequest& request) override;
  Result<ExactScanReply> ExactFullScan(const ExactScanRequest& request) override;

  /// Best-effort over the wire: the interface returns void, so transport
  /// errors are swallowed (the server's sessions die with the provider
  /// process anyway; an unreachable server has nothing left to release).
  void EndQuery(uint64_t query_id) override;

  /// Parks `call` on this connection's dispatch pool (see class doc).
  void IssueAsync(std::function<void()> call) override;

  /// The scheduler's per-endpoint admission window and the dispatch
  /// pool's width: enough in-flight calls to fill a doorbell batch,
  /// small enough that a slow provider holds few scheduler nodes.
  size_t max_concurrent_calls() const override { return 4; }

  /// True once the lazily created dispatch pool exists. Diagnostic for
  /// the cancellation contract: a workload whose every node was cancelled
  /// before issue must leave this false (the scheduler ran the stubs
  /// inline instead of spinning up per-connection dispatch).
  bool dispatch_started() const;

  /// Real traffic odometers of this endpoint's lifetime traffic
  /// (handshakes and retired reconnected connections included), for
  /// checking SimNetwork's charges against actual bytes. Take them
  /// between queries, not mid-call.
  uint64_t bytes_sent() const;
  uint64_t bytes_received() const;

  /// The exact wire-byte cost of batching: one outer frame header per
  /// batched send plus one per batched reply — the only real bytes the
  /// per-message protocol charges do not cover. (The registry's
  /// `rpc.doorbell_batches` and `rpc.coalesced_calls` count the batches.)
  uint64_t batch_overhead_bytes() const;

 private:
  /// One parked call: an encoded request waiting for a combiner, and the
  /// reply slot the combiner fills. `done` flips (release) only after
  /// `reply` is written; waiters check it with acquire loads.
  struct CallSlot {
    RpcMethod method = RpcMethod::kError;
    const ByteWriter* payload = nullptr;
    Result<RpcFrame> reply;
    std::atomic<bool> done{false};
    CallSlot(RpcMethod m, const ByteWriter* p)
        : method(m), payload(p), reply(Status::Internal("rpc: slot unserved")) {}
  };

  RemoteEndpoint(TcpConnection conn, EndpointInfo info, std::string host,
                 uint16_t port);

  /// Dials host:port and runs the kInfo handshake.
  static Result<std::pair<TcpConnection, EndpointInfo>> Handshake(
      const std::string& host, uint16_t port);

  /// One typed call of a method-table row: encodes `request`, exchanges
  /// it through the doorbell engine inside an `rpc/<name>` span tagged
  /// with `session`, and decodes the reply. `retry_once` adds the single
  /// reconnect-and-retry after a transport error (idempotent methods
  /// only).
  template <typename Row>
  Result<typename Row::Reply> Call(const Row& row,
                                   const typename Row::Request& request,
                                   uint64_t session, bool retry_once = false);

  /// One logical request/reply exchange through the doorbell engine:
  /// parks a slot, acquires the wire, and either finds the slot already
  /// served by another combiner or combines everything parked (itself
  /// included) into one exchange. Returns the slot's unwrapped reply.
  Result<RpcFrame> RoundTrip(RpcMethod method, const ByteWriter& payload);

  /// Sends/receives exactly one plain frame on the wire and unwraps the
  /// reply (kError -> Status, method echo check). Caller holds mutex_.
  Result<RpcFrame> SingleExchangeLocked(RpcMethod method,
                                        const ByteWriter& payload);

  /// Serves a combiner's drained slot list: one plain exchange for a
  /// single slot, one kBatch exchange for several. Fills every slot's
  /// reply and flips its done flag. Caller holds mutex_.
  void ServeBatchLocked(const std::vector<CallSlot*>& batch);

  /// Replaces the poisoned connection with a freshly handshaken one
  /// (identity must match the original handshake). Takes `lock` (held on
  /// mutex_) and RELEASES it around both the backoff sleep and the
  /// blocking dial+handshake — an unreachable peer must not stall
  /// concurrent calls (which fail fast on broken_) or the byte odometers
  /// for the kernel's connect timeout. Reacquires before swapping; a
  /// connection another thread healed in the meantime is kept.
  Status Reconnect(std::unique_lock<std::mutex>& lock);

  /// Guards the wire (conn_, broken_, reconnect bookkeeping, odometers).
  /// Holding it makes a thread THE combiner.
  mutable std::mutex mutex_;
  TcpConnection conn_;
  bool broken_ = false;
  EndpointInfo info_;
  std::string host_;
  uint16_t port_ = 0;
  /// Consecutive failed reconnects; drives the backoff and resets on
  /// success.
  int reconnect_failures_ = 0;
  /// Bytes moved by connections already replaced via reconnect.
  uint64_t retired_bytes_sent_ = 0;
  uint64_t retired_bytes_received_ = 0;

  /// Slots parked since the last combiner drain (the doorbell's mailbox).
  /// Its own tiny lock: parking must never wait behind an in-flight
  /// round-trip.
  std::mutex pending_mutex_;
  std::vector<CallSlot*> pending_;

  /// Written under mutex_ together with the odometer-bearing exchange, so
  /// odometers and overhead snapshot consistently between queries.
  uint64_t batch_overhead_bytes_ = 0;

  /// Lazily started dispatch pool backing IssueAsync (guarded by
  /// dispatch_mutex_, not mutex_: enqueueing must never wait behind an
  /// in-flight round-trip). ThreadPool's destructor drains outstanding
  /// tasks before joining, which is exactly the never-drop-a-completion
  /// contract IssueAsync requires.
  mutable std::mutex dispatch_mutex_;
  std::unique_ptr<ThreadPool> dispatch_;
};

}  // namespace fedaqp

#endif  // FEDAQP_RPC_REMOTE_ENDPOINT_H_
