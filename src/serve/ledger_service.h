#ifndef FEDAQP_SERVE_LEDGER_SERVICE_H_
#define FEDAQP_SERVE_LEDGER_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dp/accountant.h"
#include "obs/audit_log.h"
#include "rpc/transport.h"
#include "serve/ledger_backend.h"

namespace fedaqp {
namespace serve {

/// The shared budget authority: a small TCP service owning the
/// authoritative AnalystLedger (and its append-only BudgetAuditLog) that
/// a fleet of coordinator processes charge through RemoteLedger clients,
/// so N FederationClients fronting one federation spend one budget.
///
/// Protocol: the framed wire transport from src/rpc/ with the kLedger*
/// methods (rpc/wire.h). Every mutation carries (coordinator id,
/// admission seq); both land in the audit log, so Replay reproduces the
/// merged multi-coordinator ledger bit-exactly and every entry is
/// attributable to one coordinator's admission decision.
///
/// Idempotency: a mutation with a nonzero (coordinator, seq) key is
/// applied once; re-sending the same key — a client retrying after a
/// reconnect, unsure whether its charge landed before the connection
/// died — returns the recorded outcome without touching the ledger
/// again. Ops with a zero key (e.g. registrations) skip the dedupe.
///
/// Registration is join-idempotent: re-registering an analyst with a
/// grant identical to the existing one is OK (every coordinator in a
/// fleet registers the same analyst roster at startup); a conflicting
/// grant is refused.
///
/// Concurrency: one acceptor thread plus one handler thread per
/// connection — ledger traffic is a few tiny frames per query, so the
/// epoll machinery of the provider server would be over-engineering
/// here. A handler that returns (its peer disconnected) reaps its own
/// connection: the socket closes at once and the acceptor joins the
/// finished thread on its next accept. All mutations serialize on one
/// service mutex (dedupe check + apply + outcome record are atomic),
/// which is also what makes concurrent hammering from many coordinators
/// unable to over-spend a grant.
class LedgerService {
 public:
  struct Options {
    /// 0 binds an ephemeral port (port() reports the actual one).
    uint16_t port = 0;
  };

  static Result<std::unique_ptr<LedgerService>> Start(const Options& options);

  /// Stops (idempotent) and joins every thread.
  ~LedgerService();
  LedgerService(const LedgerService&) = delete;
  LedgerService& operator=(const LedgerService&) = delete;

  /// Interrupts the acceptor, shuts every live connection down, and
  /// joins all handler threads. In-flight ops complete or fail on their
  /// connection; clients observe the close as a transport error.
  void Stop();

  uint16_t port() const { return port_; }

  /// Connections whose handler is still running (diagnostic: drops back
  /// once a disconnected peer's handler has noticed and returned).
  size_t num_connections() const;

  /// Local pre-registration (same join-idempotent semantics as the
  /// remote op).
  Status Register(const std::string& analyst, double xi, double psi);

  /// The authoritative ledger. Thread-safe reads any time.
  const AnalystLedger& ledger() const { return ledger_; }
  /// The merged audit log: every mutation from every coordinator, in
  /// apply order, (coordinator, seq)-stamped. Replay reproduces
  /// ledger() bit-exactly.
  const obs::BudgetAuditLog& audit_log() const { return audit_; }

 private:
  LedgerService() { ledger_.AttachAuditLog(&audit_); }

  /// The methods this service serves (see ledger_service.cc).
  struct RequestServer;

  /// A live connection and the thread serving it.
  struct Handler {
    std::shared_ptr<TcpConnection> conn;
    std::thread thread;
  };

  void AcceptLoop();
  void Serve(std::shared_ptr<TcpConnection> conn);
  /// Run by a handler as it returns: drops its connection and hands its
  /// own thread to finished_ for someone else to join.
  void Reap(uint64_t handler_id);
  /// Applies one mutation under op_mutex_ with idempotency dedupe.
  Status ApplyOp(RpcMethod method, const LedgerOpRequest& req);
  /// Join-idempotent registration body (no dedupe key needed: the grant
  /// comparison is the idempotency).
  Status RegisterOp(const std::string& analyst, double xi, double psi,
                    uint32_t coordinator);

  /// Declared before ledger_ so it outlives the ledger pointing at it.
  obs::BudgetAuditLog audit_;
  AnalystLedger ledger_;

  TcpListener listener_;
  uint16_t port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  /// Guards handlers_, finished_ and next_handler_id_.
  mutable std::mutex conn_mutex_;
  std::map<uint64_t, Handler> handlers_;
  /// Threads of handlers that have returned, awaiting a join.
  std::vector<std::thread> finished_;
  uint64_t next_handler_id_ = 0;

  /// Serializes dedupe-check + ledger apply + outcome record.
  std::mutex op_mutex_;
  /// (coordinator, seq, method) -> recorded outcome of the first apply.
  std::map<std::tuple<uint32_t, uint64_t, uint8_t>, Status> applied_;
};

/// LedgerBackend over one framed TCP connection to a LedgerService — the
/// client a coordinator process plugs into
/// FederationClient::Options::shared_ledger. Every mutation is stamped
/// with this coordinator's id plus the caller's admission seq.
///
/// Round trips are mutex-serialized (the admission thread is the main
/// caller; ledger ops are sequence points, never concurrent hot-path
/// work). A transport error poisons the connection: every subsequent op
/// fails fast with Unavailable, so affected admissions fail with a real
/// status instead of hanging — no budget is charged locally for them.
/// Reconnect() heals the connection explicitly; thanks to the service's
/// (coordinator, seq) dedupe, retrying the op that was in flight when
/// the wire died is safe — it lands at most once.
///
/// Identity cache: the analysts the service has confirmed — a
/// successful Register or a true Knows — are remembered, so admission's
/// Knows costs no round trip after the first. Registration is
/// irrevocable, so a positive answer cannot go stale while the
/// connection lives; the only way to lose it is a service restart, which
/// breaks the connection, and Reconnect() clears the cache. Negative
/// answers are never cached, and a poisoned connection fails Knows fast
/// like every other op.
class RemoteLedger final : public LedgerBackend {
 public:
  /// Dials the service. `coordinator_id` must be nonzero and unique per
  /// coordinator process — it keys audit attribution and idempotency.
  static Result<std::shared_ptr<RemoteLedger>> Connect(
      const std::string& host, uint16_t port, uint32_t coordinator_id);

  uint32_t coordinator_id() const { return coordinator_; }

  /// True once a transport error poisoned the connection.
  bool broken() const;

  /// Replaces a poisoned (or live) connection with a fresh dial.
  Status Reconnect();

  Status Register(const std::string& analyst, double xi, double psi) override;
  Result<bool> Knows(const std::string& analyst) const override;
  Status Charge(const std::string& analyst, const PrivacyBudget& cost,
                uint64_t seq) override;
  Status Refund(const std::string& analyst, const PrivacyBudget& amount,
                uint64_t seq) override;
  void RecordSaving(const std::string& analyst, const PrivacyBudget& amount,
                    uint64_t seq) override;
  Result<PrivacyBudget> Remaining(const std::string& analyst) const override;
  Result<PrivacyBudget> Spent(const std::string& analyst) const override;
  /// Extra read (not part of LedgerBackend): cache-saved budget.
  Result<PrivacyBudget> Saved(const std::string& analyst) const;

 private:
  RemoteLedger(TcpConnection conn, std::string host, uint16_t port,
               uint32_t coordinator_id);

  /// One mutation round trip: empty echo ack -> OK, kError -> its
  /// Status, transport failure -> poisoned + Unavailable.
  Status MutateOp(const RpcRow<LedgerOpRequest, Empty>& row,
                  const std::string& analyst, double epsilon, double delta,
                  uint64_t seq) const;
  Result<LedgerQueryReply> QueryOp(const std::string& analyst) const;
  /// One typed call of a method-table row; caller holds mutex_.
  template <typename Row>
  Result<typename Row::Reply> CallLocked(
      const Row& row, const typename Row::Request& request) const;

  /// Guards conn_, broken_ and known_ (mutable: reads are logically
  /// const).
  mutable std::mutex mutex_;
  mutable TcpConnection conn_;
  mutable bool broken_ = false;
  /// Analysts the service confirmed on this connection.
  mutable std::unordered_set<std::string> known_;
  std::string host_;
  uint16_t port_ = 0;
  uint32_t coordinator_ = 0;
};

}  // namespace serve
}  // namespace fedaqp

#endif  // FEDAQP_SERVE_LEDGER_SERVICE_H_
