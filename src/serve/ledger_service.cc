#include "serve/ledger_service.h"

#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "rpc/wire.h"

namespace fedaqp {
namespace serve {

namespace {

obs::Counter& LedgerOpsCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("ledger_service.ops");
  return *c;
}
obs::Counter& LedgerDedupedCounter() {
  static obs::Counter* c =
      obs::MetricRegistry::Global().GetCounter("ledger_service.deduped");
  return *c;
}

Status UnknownAnalyst(const std::string& analyst) {
  return Status::NotFound("ledger: unknown analyst '" + analyst + "'");
}

}  // namespace

// -------------------------------------------------------------- LedgerService

Result<std::unique_ptr<LedgerService>> LedgerService::Start(
    const Options& options) {
  std::unique_ptr<LedgerService> service(new LedgerService());
  FEDAQP_ASSIGN_OR_RETURN(service->listener_, TcpListener::Listen(options.port));
  service->port_ = service->listener_.port();
  service->acceptor_ = std::thread([s = service.get()] { s->AcceptLoop(); });
  return service;
}

LedgerService::~LedgerService() { Stop(); }

void LedgerService::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  listener_.Interrupt();
  if (acceptor_.joinable()) acceptor_.join();
  listener_.Shutdown();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    // ShutdownBoth is the one member safe against a concurrently blocked
    // read: every handler's ReceiveFrame unblocks with an error.
    for (auto& kv : handlers_) {
      kv.second.conn->ShutdownBoth();
      threads.push_back(std::move(kv.second.thread));
    }
    for (std::thread& t : finished_) threads.push_back(std::move(t));
  }
  // A handler returning from here on finds its thread already moved out,
  // so its Reap only drops the connection.
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  std::lock_guard<std::mutex> lock(conn_mutex_);
  finished_.clear();
}

size_t LedgerService::num_connections() const {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  return handlers_.size();
}

Status LedgerService::Register(const std::string& analyst, double xi,
                               double psi) {
  std::lock_guard<std::mutex> lock(op_mutex_);
  return RegisterOp(analyst, xi, psi, /*coordinator=*/0);
}

void LedgerService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    Result<TcpConnection> accepted = listener_.Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure
    }
    auto conn = std::make_shared<TcpConnection>(std::move(accepted).value());
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (stopping_.load(std::memory_order_acquire)) return;  // raced Stop
      finished.swap(finished_);
      const uint64_t id = next_handler_id_++;
      Handler& handler = handlers_[id];
      handler.conn = conn;
      // Started under conn_mutex_, so the handler's Reap cannot run
      // before its thread is stored.
      handler.thread = std::thread([this, id, conn]() mutable {
        Serve(std::move(conn));
        Reap(id);
      });
    }
    for (std::thread& t : finished) t.join();
  }
}

void LedgerService::Reap(uint64_t handler_id) {
  std::lock_guard<std::mutex> lock(conn_mutex_);
  auto it = handlers_.find(handler_id);
  if (it == handlers_.end()) return;
  finished_.push_back(std::move(it->second.thread));
  handlers_.erase(it);  // Drops the last reference: the socket closes.
}

/// The methods a ledger service serves; ServeRequest decodes each request
/// and writes each reply.
struct LedgerService::RequestServer {
  LedgerService& service;

  Result<Empty> operator()(RpcMethod method, LedgerOpRequest& request) {
    FEDAQP_RETURN_IF_ERROR(service.ApplyOp(method, request));
    return Empty{};
  }

  Result<LedgerQueryReply> operator()(RpcMethod, LedgerQueryRequest& request) {
    const AnalystLedger& ledger = service.ledger_;
    LedgerQueryReply reply;
    // Snapshot the three reads under the op mutex so a concurrent charge
    // cannot tear remaining vs spent.
    std::lock_guard<std::mutex> lock(service.op_mutex_);
    if (!ledger.Knows(request.analyst)) return reply;
    reply.registered = true;
    reply.remaining = *ledger.Remaining(request.analyst);
    reply.spent = *ledger.Spent(request.analyst);
    reply.saved = *ledger.Saved(request.analyst);
    return reply;
  }
};

void LedgerService::Serve(std::shared_ptr<TcpConnection> conn) {
  for (;;) {
    Result<RpcFrame> frame = conn->ReceiveFrame();
    if (!frame.ok()) return;  // closed or broken — either way, done
    LedgerOpsCounter().Add();
    ByteWriter reply;
    ServeRequest(*frame, RequestServer{*this}, &reply);
    if (!conn->SendFrames(reply).ok()) return;
  }
}

Status LedgerService::ApplyOp(RpcMethod method, const LedgerOpRequest& req) {
  std::lock_guard<std::mutex> lock(op_mutex_);
  const bool keyed = req.coordinator != 0 && req.seq != 0;
  const auto key = std::make_tuple(req.coordinator, req.seq,
                                   static_cast<uint8_t>(method));
  if (keyed) {
    auto it = applied_.find(key);
    if (it != applied_.end()) {
      LedgerDedupedCounter().Add();
      return it->second;
    }
  }
  Status status = Status::OK();
  const PrivacyBudget amount{req.epsilon, req.delta};
  switch (method) {
    case RpcMethod::kLedgerRegister:
      status = RegisterOp(req.analyst, req.epsilon, req.delta,
                          req.coordinator);
      break;
    case RpcMethod::kLedgerCharge:
      status = ledger_.Charge(req.analyst, amount, req.seq, req.coordinator);
      break;
    case RpcMethod::kLedgerRefund:
      status = ledger_.Refund(req.analyst, amount, req.seq, req.coordinator);
      break;
    case RpcMethod::kLedgerSaving:
      ledger_.RecordSaving(req.analyst, amount, req.seq, req.coordinator);
      break;
    default:
      status = Status::Internal("ledger service: non-mutation in ApplyOp");
      break;
  }
  if (keyed) applied_.emplace(key, status);
  return status;
}

Status LedgerService::RegisterOp(const std::string& analyst, double xi,
                                 double psi, uint32_t coordinator) {
  if (ledger_.Knows(analyst)) {
    const PrivacyBudget total = *ledger_.Total(analyst);
    if (total.epsilon == xi && total.delta == psi) {
      return Status::OK();  // identical grant: a fleet member joining
    }
    return Status::InvalidArgument(
        "ledger service: analyst '" + analyst +
        "' already registered with a different grant " + total.ToString());
  }
  return ledger_.Register(analyst, xi, psi, coordinator);
}

// --------------------------------------------------------------- RemoteLedger

Result<std::shared_ptr<RemoteLedger>> RemoteLedger::Connect(
    const std::string& host, uint16_t port, uint32_t coordinator_id) {
  if (coordinator_id == 0) {
    return Status::InvalidArgument(
        "remote ledger: coordinator id must be nonzero (it keys audit "
        "attribution and retry idempotency)");
  }
  FEDAQP_ASSIGN_OR_RETURN(TcpConnection conn,
                          TcpConnection::Connect(host, port));
  return std::shared_ptr<RemoteLedger>(
      new RemoteLedger(std::move(conn), host, port, coordinator_id));
}

RemoteLedger::RemoteLedger(TcpConnection conn, std::string host, uint16_t port,
                           uint32_t coordinator_id)
    : conn_(std::move(conn)),
      host_(std::move(host)),
      port_(port),
      coordinator_(coordinator_id) {}

bool RemoteLedger::broken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return broken_;
}

Status RemoteLedger::Reconnect() {
  Result<TcpConnection> fresh = TcpConnection::Connect(host_, port_);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!fresh.ok()) return fresh.status();
  conn_ = std::move(fresh).value();
  broken_ = false;
  // Perhaps a restarted service that has forgotten every registration.
  known_.clear();
  return Status::OK();
}

template <typename Row>
Result<typename Row::Reply> RemoteLedger::CallLocked(
    const Row& row, const typename Row::Request& request) const {
  if (broken_ || !conn_.valid()) {
    return Status::Unavailable(
        "remote ledger: connection poisoned by an earlier transport error "
        "(Reconnect() to heal; retries dedupe on the service)");
  }
  ByteWriter payload;
  Encode(request, &payload);
  Status sent = conn_.SendFrame(row.id, payload);
  if (!sent.ok()) {
    broken_ = true;
    return Status::Unavailable("remote ledger: send failed: " +
                               sent.message());
  }
  Result<RpcFrame> frame = conn_.ReceiveFrame();
  if (!frame.ok()) {
    broken_ = true;
    return Status::Unavailable("remote ledger: receive failed: " +
                               frame.status().message());
  }
  // A refusal leaves the wire healthy; a reply that breaks the protocol,
  // or does not decode, leaves the stream position untrusted.
  FEDAQP_ASSIGN_OR_RETURN(RpcFrame echoed,
                          UnwrapReply(std::move(*frame), row.id, &broken_));
  Result<typename Row::Reply> reply =
      Decode<typename Row::Reply>(echoed.payload);
  if (!reply.ok()) broken_ = true;
  return reply;
}

Status RemoteLedger::MutateOp(const RpcRow<LedgerOpRequest, Empty>& row,
                              const std::string& analyst, double epsilon,
                              double delta, uint64_t seq) const {
  std::lock_guard<std::mutex> lock(mutex_);
  FEDAQP_RETURN_IF_ERROR(
      CallLocked(row, LedgerOpRequest{coordinator_, seq, analyst, epsilon,
                                      delta})
          .status());
  if (row.id == RpcMethod::kLedgerRegister) known_.insert(analyst);
  return Status::OK();
}

Result<LedgerQueryReply> RemoteLedger::QueryOp(
    const std::string& analyst) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Result<LedgerQueryReply> reply =
      CallLocked(kLedgerQueryRpc, LedgerQueryRequest{analyst});
  if (reply.ok() && reply->registered) known_.insert(analyst);
  return reply;
}

Status RemoteLedger::Register(const std::string& analyst, double xi,
                              double psi) {
  return MutateOp(kLedgerRegisterRpc, analyst, xi, psi, /*seq=*/0);
}

Result<bool> RemoteLedger::Knows(const std::string& analyst) const {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!broken_ && known_.count(analyst) != 0) return true;
  }
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  return reply.registered;
}

Status RemoteLedger::Charge(const std::string& analyst,
                            const PrivacyBudget& cost, uint64_t seq) {
  return MutateOp(kLedgerChargeRpc, analyst, cost.epsilon, cost.delta,
                  seq);
}

Status RemoteLedger::Refund(const std::string& analyst,
                            const PrivacyBudget& amount, uint64_t seq) {
  return MutateOp(kLedgerRefundRpc, analyst, amount.epsilon,
                  amount.delta, seq);
}

void RemoteLedger::RecordSaving(const std::string& analyst,
                                const PrivacyBudget& amount, uint64_t seq) {
  // Best-effort, like the interface: a saving lost to a dead wire is
  // bookkeeping, not budget.
  (void)MutateOp(kLedgerSavingRpc, analyst, amount.epsilon,
                 amount.delta, seq);
}

Result<PrivacyBudget> RemoteLedger::Remaining(
    const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (!reply.registered) return UnknownAnalyst(analyst);
  return reply.remaining;
}

Result<PrivacyBudget> RemoteLedger::Spent(const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (!reply.registered) return UnknownAnalyst(analyst);
  return reply.spent;
}

Result<PrivacyBudget> RemoteLedger::Saved(const std::string& analyst) const {
  FEDAQP_ASSIGN_OR_RETURN(LedgerQueryReply reply, QueryOp(analyst));
  if (!reply.registered) return UnknownAnalyst(analyst);
  return reply.saved;
}

}  // namespace serve
}  // namespace fedaqp
